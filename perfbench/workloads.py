"""The four benchmark workloads.

Each workload fixes its generator specs (instance hardness differs by more
than 20x between generator seeds, so those seeds are part of the workload,
not of the run).  The run's ``--seed`` picks a permutation of every
instance's node ids: the solver gets an isomorphic instance with the same
optimum and work, laid out and explored in a different order.

``round`` is the timed section: it generates the inputs and runs the
program on them through the public API or the ``hybridpath`` CLI.
``check`` then verifies the round's outputs with ``checks`` (untimed), and
``signature`` lists the deterministic results that must repeat exactly in
every round.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import random
import shutil
import time
from pathlib import Path

from hybridpath import cli, generators, heuristics, instance, labeling, verify
from hybridpath.generators import GenSpec
from hybridpath.instance import EdgeParams
from hybridpath.labeling import STATUS_OPTIMAL, SolverConfig

import checks

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Bound at import, before any tracing patches the module attributes: the
# benchmark's own input steps call these and stay out of the trace.
_loads = instance.loads
_dumps = instance.dumps

CONFIGS = tuple(SolverConfig(selection=sel, heuristic=heur)
                for sel in ("label", "node") for heur in ("sup", "sld"))
LABEL_SUP, _, NODE_SUP, _ = CONFIGS


def _optimal(result):
    return result.status == STATUS_OPTIMAL


class Acc:
    """One round's operations attempted and failed, and the seconds the
    workload itself spent inside generation and inside table + solve."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.generate_s = 0.0
        self.solve_s = 0.0

    def op(self, fn, *args, ok=None, timer=None):
        self.attempted += 1
        t0 = time.perf_counter()
        result = fn(*args)
        if timer is not None:
            setattr(self, timer,
                    getattr(self, timer) + time.perf_counter() - t0)
        if ok is not None and not ok(result):
            self.failed += 1
        return result


def relabel(inst, seed, tag):
    """Copy of ``inst`` with node ids permuted by a stream seeded from
    (seed, tag); edges are listed in (u, v) order as a file would."""
    perm = list(range(inst.n_nodes))
    random.Random(f"{seed}/{tag}").shuffle(perm)
    nodes = [None] * inst.n_nodes
    for old, new in enumerate(perm):
        nodes[new] = inst.nodes[old]
    edges = sorted((EdgeParams(perm[e.u], perm[e.v], e.d, e.c, e.z,
                               e.gen_allowed, e.gliding) for e in inst.edges),
                   key=lambda e: (e.u, e.v))
    return dataclasses.replace(inst, nodes=tuple(nodes), edges=tuple(edges),
                               start=perm[inst.start], goal=perm[inst.goal])


def _result_signature(result):
    s = result.stats
    cost = result.solution.cost if result.solution else None
    return (result.status, cost, s.labels_created, s.labels_treated,
            s.labels_pruned, s.peak_open, s.rounds)


def reference_cost(spec):
    """The node/sup cost stored by ``run.py --make-reference`` for spec."""
    with open(REFERENCE, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    for entry in entries:
        if entry["spec"] == spec.to_dict():
            return entry["cost"]
    raise KeyError(f"no reference for {spec}; run run.py --make-reference")


def make_reference(specs):
    entries = []
    for spec in specs:
        inst = generators.generate(spec)
        result = labeling.solve(inst, NODE_SUP)
        if not _optimal(result):
            raise RuntimeError(f"reference solve of {spec} is {result.status}")
        problems = checks.check_solution(inst, result.solution)
        if problems:
            raise RuntimeError(f"reference solution rejected: {problems}")
        entries.append({"spec": spec.to_dict(), "selection": "node",
                        "heuristic": "sup", "cost": result.solution.cost})
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write('{"entries": [\n' + ",\n".join(
            json.dumps(e, sort_keys=True) for e in entries) + "\n]}\n")
    return entries


class Euclid20k:
    """The paper's headline scale as a user pipeline: generate -> dumps ->
    loads -> sup table -> label/sup solve -> replay, once per round."""

    name = "euclid-20k"

    def __init__(self, seed, smoke, work):
        self.seed = seed
        full, small = self.reference_specs()
        self.spec = small if smoke else full
        self.reference = reference_cost(self.spec)

    @staticmethod
    def reference_specs():
        """The full spec (criterion 7's instance) and the smoke spec."""
        return [GenSpec(n_nodes=20_000, seed=7), GenSpec(n_nodes=500, seed=0)]

    def round(self, acc):
        inst = acc.op(generators.generate, self.spec, timer="generate_s")
        inst = relabel(inst, self.seed, self.name)
        loaded = acc.op(instance.loads, acc.op(instance.dumps, inst))
        table = acc.op(heuristics.make_table, loaded, "sup", timer="solve_s")
        result = acc.op(labeling.solve, loaded, LABEL_SUP, table,
                        ok=_optimal, timer="solve_s")
        if _optimal(result):
            acc.op(instance.check_solution, loaded, result.solution,
                   ok=lambda err: err is None)
        return {"inst": inst, "loaded": loaded, "result": result}

    def check(self, out):
        problems = []
        loaded = out["loaded"]
        in_order = sorted(loaded.edges, key=lambda e: (e.u, e.v))
        if dataclasses.replace(loaded, edges=tuple(in_order)) != out["inst"]:
            problems.append("dumps/loads round trip changed the instance")
        result = out["result"]
        if _optimal(result):
            problems += checks.check_solution(out["loaded"], result.solution)
            if result.solution.cost != self.reference:
                problems.append(f"label/sup cost {result.solution.cost!r} != "
                                f"node/sup reference {self.reference!r}")
        return problems

    def signature(self, out):
        return (out["inst"].meta["discarded_draws"],
                _result_signature(out["result"]))


class Lattice3dNode:
    """A 15^3 lattice (12 moves per node, gliding descents) under node/sup
    and label/sup: dominance checks are nearly all of node selection's
    work, while generation and I/O are small."""

    name = "lattice3d-node"

    def __init__(self, seed, smoke, work):
        self.seed = seed
        self.spec = GenSpec(n_nodes=216 if smoke else 3375, family="lattice",
                            dim=3, seed=0)

    def round(self, acc):
        inst = acc.op(generators.generate, self.spec, timer="generate_s")
        inst = relabel(inst, self.seed, self.name)
        table = acc.op(heuristics.make_table, inst, "sup", timer="solve_s")
        results = []
        for config in (NODE_SUP, LABEL_SUP):
            result = acc.op(labeling.solve, inst, config, table, ok=_optimal,
                            timer="solve_s")
            if _optimal(result):
                acc.op(instance.check_solution, inst, result.solution,
                       ok=lambda err: err is None)
            results.append(result)
        return {"inst": inst, "results": results}

    def check(self, out):
        inst = out["inst"]
        solved = [r.solution for r in out["results"] if _optimal(r)]
        problems = checks.same_costs(self.name, [s.cost for s in solved])
        bound = checks.shortest_cost(inst)
        for solution in solved:
            problems += checks.check_solution(inst, solution, bound=bound)
        return problems

    def signature(self, out):
        return tuple(_result_signature(r) for r in out["results"])


def _sweep_manifests(smoke):
    big, small, side, tight_q = (100, 60, 10, 0.8) if smoke \
        else (500, 200, 22, 0.7)
    return {
        "sweep-big": ("sup", {
            "name": "sweep-big",
            "defaults": {"n_nodes": big},
            "instances": [
                {"id": "e2k4-s0", "k_neighbors": 4, "seed": 0},
                {"id": "e2k4-s2", "k_neighbors": 4, "seed": 2},
                {"id": "e2k12-s0", "k_neighbors": 12, "seed": 0},
                {"id": "e2k12-s1", "k_neighbors": 12, "seed": 1},
                {"id": "e3k8-s0", "dim": 3, "k_neighbors": 8, "seed": 0},
                {"id": "e3k8-s1", "dim": 3, "k_neighbors": 8, "seed": 1},
                {"id": "lat2-s0", "family": "lattice",
                 "n_nodes": side * side, "seed": 0},
            ]}),
        "sweep-small": ("sup,sld", {
            "name": "sweep-small",
            "defaults": {"n_nodes": small, "k_neighbors": 4},
            "instances": [
                {"id": "tight-s1", "q_frac": tight_q, "seed": 1},
                {"id": "e2k4-s1", "seed": 1},
            ]}),
    }


def _cli(argv):
    """Run one ``hybridpath`` command in-process; returns (code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _fields(line):
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


class SweepMixed:
    """The paper's numerical study in miniature, through the CLI:
    ``hybridpath generate`` on two manifests, serial ``hybridpath bench``
    (label,node x sup; plus sld on the small cells, where sld stays under
    a few seconds per solve) and ``hybridpath solve`` on the tight-fuel
    cell, whose generator discards two draws."""

    name = "sweep-mixed"
    TIGHT = "tight-s1"

    def __init__(self, seed, smoke, work):
        self.seed = seed
        self.work = work
        self.manifests = _sweep_manifests(smoke)

    def round(self, acc):
        ok = lambda res: res[0] == 0  # noqa: E731
        rows, instances = [], {}
        for name, (heur, manifest) in self.manifests.items():
            raw, suite = self.work / f"{name}-raw", self.work / name
            for d in (raw, suite):
                shutil.rmtree(d, ignore_errors=True)
            mpath = self.work / f"{name}.json"
            mpath.write_text(json.dumps(manifest), encoding="utf-8")
            acc.op(_cli, ["generate", mpath, raw], ok=ok, timer="generate_s")
            suite.mkdir()
            index = json.loads((raw / "suite.json").read_text("utf-8"))
            for rec in index["instances"]:
                inst = relabel(_loads((raw / rec["file"]).read_bytes()),
                               self.seed, rec["id"])
                (suite / rec["file"]).write_text(_dumps(inst), "utf-8")
                instances[rec["id"]] = inst
            shutil.copy(raw / "suite.json", suite / "suite.json")
            csv_path = self.work / f"{name}.csv"
            acc.op(_cli, ["bench", suite, "--out", csv_path,
                          "--selection", "label,node", "--heuristic", heur],
                   ok=ok)
            with open(csv_path, newline="", encoding="utf-8") as fh:
                rows += list(csv.DictReader(fh))

        sol_path = self.work / "tight.solution.json"
        code, text = acc.op(_cli, ["solve", self.work / "sweep-small" /
                                   f"{self.TIGHT}.json", "--out", sol_path],
                            ok=ok)
        solve_fields, doc = {}, None
        if code == 0:
            solve_fields = _fields(text.splitlines()[0])
            data = sol_path.read_bytes()
            doc = json.loads(data)
            tight = instances[self.TIGHT]
            acc.op(instance.check_solution, tight,
                   instance.solution_loads(data, tight),
                   ok=lambda err: err is None)
        tables = {}
        for row in rows:
            acc.attempted += 1
            if row["status"] != STATUS_OPTIMAL:
                acc.failed += 1
                continue
            acc.solve_s += float(row["wall_time"])
            tables[(row["id"], row["heuristic"])] = float(row["table_time"])
        acc.solve_s += sum(tables.values())
        acc.solve_s += sum(float(solve_fields.get(k, 0.0))
                           for k in ("wall_time", "table_time"))
        return {"rows": rows, "instances": instances, "solution": doc,
                "solve_fields": solve_fields}

    def check(self, out):
        rows, instances = out["rows"], out["instances"]
        problems = []
        expected = sum(len(m["instances"]) * 2 * len(heur.split(","))
                       for heur, m in self.manifests.values())
        if len(rows) != expected:
            problems.append(f"bench wrote {len(rows)} rows, expected "
                            f"{expected}")
        by_id = {}
        for row in rows:
            if row["status"] == STATUS_OPTIMAL:
                by_id.setdefault(row["id"], []).append(row)
        for iid, group in sorted(by_id.items()):
            problems += checks.same_costs(iid, [r["cost"] for r in group])
            bound = checks.shortest_cost(instances[iid])
            lb = float(group[0]["sup_lower_bound"])
            if abs(lb - bound) > checks.REL_TOL * bound:
                problems.append(f"{iid}: sup_lower_bound {lb!r} != "
                                f"shortest path {bound!r}")
            if float(group[0]["cost"]) < bound * (1 - checks.REL_TOL):
                problems.append(f"{iid}: cost below shortest path {bound!r}")
        doc = out["solution"]
        if doc is not None:
            inst = instances[self.TIGHT]
            q = inst.quantization
            problems += checks.check_path(
                inst, doc["path"], doc["gen"], doc["cost"],
                [round(b / q) for b in doc["battery"]],
                [round(f / q) for f in doc["fuel"]])
            bench = {r["cost"] for r in by_id.get(self.TIGHT, [])}
            if bench != {repr(doc["cost"])}:
                problems.append(f"solve cost {doc['cost']!r} differs from "
                                f"bench costs {sorted(bench)}")
        return problems

    def signature(self, out):
        keys = ("id", "selection", "heuristic", "status", "cost",
                "sup_lower_bound", "labels_created", "labels_treated",
                "labels_pruned", "peak_open", "rounds")
        fields = out["solve_fields"]
        return (tuple(tuple(r[k] for k in keys) for r in out["rows"]),
                tuple(fields.get(k) for k in ("cost", "labels_created",
                                              "labels_treated")))


_SMALL_FAMILIES = (
    dict(family="euclidean", dim=2, n_nodes=9, k_neighbors=3),
    dict(family="euclidean", dim=3, n_nodes=9, k_neighbors=3),
    dict(family="lattice", dim=2, n_nodes=9),
    dict(family="lattice", dim=3, n_nodes=8),
)


def small_spec(i):
    """Instance ``i`` of the acceptance suite's small-instance family:
    fuel-free every 5th, startup drain every 3rd, noise-free every 7th."""
    fuel_free = i % 5 == 0
    return GenSpec(
        seed=i,
        b_frac=1.3 if fuel_free else (0.7 if i % 2 else 0.8),
        q_frac=0.0 if fuel_free else 1.2,
        v_frac=0.04 if i % 3 == 0 else 0.0,
        noise_target=0.0 if i % 7 == 0 else 0.32,
        **_SMALL_FAMILIES[i % len(_SMALL_FAMILIES)])


class Crosscheck:
    """The verify layer: every instance is solved under all four solver
    configurations; 8-9-node instances are checked against the exhaustive
    oracle, 100-300-node ones against the scipy MILP (built, solved, and
    checked by row substitution with the label/sup solution)."""

    name = "crosscheck"

    def __init__(self, seed, smoke, work):
        self.seed = seed
        self.small = [small_spec(i) for i in ((0, 7) if smoke else range(8))]
        self.milp = [GenSpec(n_nodes=n, seed=0)
                     for n in ((30, 60) if smoke else (100, 200, 300))]

    def round(self, acc):
        oracle_runs, milp_runs = [], []
        for k, spec in enumerate(self.small):
            inst = relabel(acc.op(generators.generate, spec,
                                  timer="generate_s"),
                           self.seed, f"small{k}")
            oracle = acc.op(verify.oracle_solve, inst, ok=_optimal)
            results = [acc.op(labeling.solve, inst, config, ok=_optimal,
                              timer="solve_s") for config in CONFIGS]
            oracle_runs.append((inst, oracle, results))
        for k, spec in enumerate(self.milp):
            inst = relabel(acc.op(generators.generate, spec,
                                  timer="generate_s"),
                           self.seed, f"milp{k}")
            results = [acc.op(labeling.solve, inst, config, ok=_optimal,
                              timer="solve_s") for config in CONFIGS]
            result = results[0]
            model = acc.op(verify.build_milp, inst)
            _, values = acc.op(verify.solve_milp, model,
                               ok=lambda res: res[0] == "optimal")
            assignment = bad = None
            if _optimal(result):
                assignment = acc.op(verify.assignment_from_solution, inst,
                                    result.solution)
                bad = acc.op(verify.check_substitution, model, assignment,
                             ok=lambda rows: not rows)
            milp_runs.append((inst, results, model, values, assignment, bad))
        return {"oracle": oracle_runs, "milp": milp_runs}

    def check(self, out):
        problems = []
        for k, (inst, oracle, results) in enumerate(out["oracle"]):
            tag = f"small{k}"
            edges = checks.edge_index(inst)
            if not _optimal(oracle):
                continue
            problems += checks.check_solution(inst, oracle.solution,
                                              edges=edges)
            for config, result in zip(CONFIGS, results):
                if not _optimal(result):
                    continue
                if result.solution.cost != oracle.cost:
                    problems.append(
                        f"{tag} {config.selection}/{config.heuristic}: cost "
                        f"{result.solution.cost!r} != oracle {oracle.cost!r}")
                problems += checks.check_solution(inst, result.solution,
                                                  edges=edges)
        for k, (inst, results, model, values, assignment, bad) in \
                enumerate(out["milp"]):
            tag = f"milp{k}"
            solved = [r.solution for r in results if _optimal(r)]
            problems += checks.same_costs(tag, [s.cost for s in solved])
            bound = checks.shortest_cost(inst)
            for solution in solved:
                problems += checks.check_solution(inst, solution, bound=bound)
            if not _optimal(results[0]):
                continue
            cost = results[0].solution.cost
            if values is not None:
                objective = checks.milp_objective(model, values)
                if abs(objective - cost) > 1e-6 * max(1.0, abs(cost)):
                    problems.append(f"{tag}: MILP objective {objective!r} != "
                                    f"solver cost {cost!r}")
            violated = checks.rows_hold(model, assignment)
            if violated or bad:
                problems.append(f"{tag}: substitution violates "
                                f"{(violated or bad)[:3]}")
        return problems

    def signature(self, out):
        return (tuple((o.enumerated_count, o.cost,
                       tuple(_result_signature(r) for r in rs))
                      for _, o, rs in out["oracle"]),
                tuple((tuple(_result_signature(r) for r in rs), len(m.rows))
                      for _, rs, m, *_ in out["milp"]))


WORKLOADS = {w.name: w for w in (Euclid20k, Lattice3dNode, SweepMixed,
                                 Crosscheck)}
