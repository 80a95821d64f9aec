"""End-to-end acceptance gate.

Each test exercises one published claim about the solver at its stated
tolerance and records a one-line verdict (printed after the run summary).
The suites are deterministic: every instance comes from the seeded
generators, so reruns reproduce the same numbers apart from wall times.
"""

import csv
import math
import shutil
import statistics
import time
import warnings

import pytest

from hybridpath.cli import main as cli_main
from hybridpath.generators import GenSpec, generate
from hybridpath.heuristics import make_table, sup_path
from hybridpath.instance import (EdgeParams, Instance, check_solution, save)
from hybridpath.labeling import SolverConfig, solve
from hybridpath.verify import (assignment_from_solution, build_milp,
                               check_substitution, milp_objective,
                               oracle_solve, solve_milp)
from conftest import record_criterion

CONFIGS = tuple(SolverConfig(selection=sel, heuristic=heur)
                for sel in ("label", "node") for heur in ("sup", "sld"))


def _generate_quiet(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return generate(spec)


# ---------------------------------------------------------------------------
# small-instance suite shared by criteria 1-5
# ---------------------------------------------------------------------------

_FAMILIES = (
    dict(family="euclidean", dim=2, n_nodes=9, k_neighbors=3),
    dict(family="euclidean", dim=3, n_nodes=9, k_neighbors=3),
    dict(family="lattice", dim=2, n_nodes=9),
    dict(family="lattice", dim=3, n_nodes=8),
)


def _small_spec(i):
    fuel_free = i % 5 == 0
    return GenSpec(
        seed=i,
        b_frac=1.3 if fuel_free else (0.7 if i % 2 else 0.8),
        q_frac=0.0 if fuel_free else 1.2,
        v_frac=0.04 if i % 3 == 0 else 0.0,
        noise_target=0.0 if i % 7 == 0 else 0.32,
        **_FAMILIES[i % len(_FAMILIES)])


@pytest.fixture(scope="module")
def exact_runs():
    """(instance, oracle, {config: result}, sup bound) for 200 instances."""
    runs = []
    i = 0
    while len(runs) < 200 and i < 500:
        spec = _small_spec(i)
        i += 1
        try:
            inst = _generate_quiet(spec)
        except RuntimeError:
            continue
        oracle = oracle_solve(inst)
        results = {cfg: solve(inst, cfg) for cfg in CONFIGS}
        runs.append((inst, oracle, results, sup_path(inst).cost))
    assert len(runs) == 200
    return runs


def test_criterion_01_exact_on_oracle_suite(exact_runs):
    t0 = time.perf_counter()
    mismatches = []
    fuel_free = v_positive = 0
    for inst, oracle, results, _ in exact_runs:
        fuel_free += inst.q0 == 0
        v_positive += inst.v > 0
        for cfg, res in results.items():
            if res.status != oracle.status or (
                    oracle.solution is not None
                    and res.solution.cost != oracle.cost):
                mismatches.append((inst.meta["seed"], cfg))
    ok = not mismatches and fuel_free >= 20 and v_positive >= 30
    detail = (f"200 instances x {len(CONFIGS)} configs, "
              f"{len(mismatches)} cost mismatches, {fuel_free} fuel-free, "
              f"{v_positive} with startup drain, "
              f"checked in {time.perf_counter() - t0:.1f}s")
    record_criterion(1, "exact vs exhaustive oracle", ok, detail)
    assert ok, detail


def test_criterion_02_milp_substitution_and_backend(exact_runs):
    bad_rows = 0
    worst = 0.0
    for inst, oracle, results, _ in exact_runs[:50]:
        solution = results[CONFIGS[0]].solution
        model = build_milp(inst)
        assignment = assignment_from_solution(inst, solution)
        if check_substitution(model, assignment):
            bad_rows += 1
        status, backend = solve_milp(model)
        if status != "optimal":
            bad_rows += 1
            continue
        gap = abs(milp_objective(model, backend) - solution.cost)
        worst = max(worst, gap / max(1.0, abs(solution.cost)))
    ok = bad_rows == 0 and worst <= 1e-6
    detail = (f"50 instances, {bad_rows} substitution/backend failures, "
              f"worst relative objective gap {worst:.2e} (tol 1e-6)")
    record_criterion(2, "integer-program cross-check", ok, detail)
    assert ok, detail


def test_criterion_03_never_below_relaxed_bound(exact_runs):
    violations = 0
    total = 0
    for inst, oracle, results, bound in exact_runs:
        for res in results.values():
            if res.solution is None:
                continue
            total += 1
            if res.solution.cost < bound - 1e-9:
                violations += 1
    # and the bound is attained when the relaxed path is itself feasible
    line = Instance(nodes=((0.0, 0.0), (1.0, 0.0)),
                    edges=(EdgeParams(0, 1, 5.0, 2, 0),),
                    start=0, goal=1, b0=4, bmin=0, bmax=4, q0=0, v=0,
                    quantization=1.0)
    tight = solve(line).solution.cost == sup_path(line).cost == 5.0
    ok = violations == 0 and tight
    detail = (f"{total} solutions all at or above the relaxed bound "
              f"(tol 1e-9), equality attained on a feasible relaxed path: "
              f"{tight}")
    record_criterion(3, "relaxed path is a lower bound", ok, detail)
    assert ok, detail


def test_criterion_04_every_solution_replays(exact_runs):
    checked = rejected = 0
    for inst, _, results, _ in exact_runs:
        for res in results.values():
            if res.solution is None:
                continue
            checked += 1
            if check_solution(inst, res.solution) is not None:
                rejected += 1
    ok = rejected == 0 and checked > 0
    detail = f"{checked} returned solutions replayed, {rejected} rejected"
    record_criterion(4, "solutions pass the independent checker", ok, detail)
    assert ok, detail


def test_criterion_05_label_count_within_state_bound(exact_runs):
    over = 0
    worst = 0.0
    for inst, _, results, _ in exact_runs:
        bound = 2 * (inst.bmax - inst.bmin + 1) * (inst.q0 + 1)
        for res in results.values():
            peak = max(res.stats.created_per_node)
            worst = max(worst, peak / bound)
            if peak > bound:
                over += 1
    ok = over == 0
    detail = (f"max created-per-node at {worst:.2e} of the "
              f"2*(Bmax-Bmin+1)*(Q0+1) state bound, {over} exceedances")
    record_criterion(5, "label count bounded by state space", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 6: informed heuristic never treats more labels (per size cell)
# ---------------------------------------------------------------------------

def test_criterion_06_sup_treats_no_more_than_sld():
    sizes = (50, 100, 200)
    failures = []
    cells = {}
    for n in sizes:
        treated = {"sup": [], "sld": []}
        got = 0
        for seed in range(12):
            if got >= 10:
                break
            try:
                inst = _generate_quiet(GenSpec(n_nodes=n, seed=seed))
            except RuntimeError:
                continue
            got += 1
            for heur in ("sup", "sld"):
                res = solve(inst, SolverConfig(heuristic=heur))
                treated[heur].append(res.stats.labels_treated)
        med = {h: statistics.median(v) for h, v in treated.items()}
        cells[n] = (got, med["sup"], med["sld"])
        if got < 10 or med["sup"] > med["sld"]:
            failures.append(n)
    ok = not failures
    detail = "; ".join(
        f"n={n}: median treated sup {s:g} vs sld {d:g} over {g} seeds"
        for n, (g, s, d) in cells.items())
    record_criterion(6, "energy bound beats straight-line heuristic", ok,
                     detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 7: scale targets (generation untimed)
# ---------------------------------------------------------------------------

def test_criterion_07_scale_targets():
    big = _generate_quiet(GenSpec(n_nodes=20_000, seed=7))
    t0 = time.perf_counter()
    table = make_table(big, "sup")
    res = solve(big, SolverConfig(selection="label", heuristic="sup"),
                table=table)
    t_euclid = time.perf_counter() - t0
    ok_euclid = res.status == "optimal" and t_euclid < 60.0

    tall = _generate_quiet(GenSpec(n_nodes=12_500, family="lattice", dim=3,
                                   dims=(25, 25, 20), seed=7))
    t0 = time.perf_counter()
    table = make_table(tall, "sup")
    res2 = solve(tall, SolverConfig(selection="node", heuristic="sup"),
                 table=table)
    t_lattice = time.perf_counter() - t0
    ok_lattice = res2.status == "optimal" and t_lattice < 300.0

    ok = ok_euclid and ok_lattice
    detail = (f"20000-node euclidean label/sup {t_euclid:.1f}s (< 60s), "
              f"25x25x20 lattice node/sup {t_lattice:.1f}s (< 300s)")
    record_criterion(7, "scale targets", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criteria 8-9: connectivity sweep at n=2000
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def connectivity_suite():
    suite = {}
    for k in (4, 12):
        for seed in range(10):
            try:
                suite[(k, seed)] = _generate_quiet(
                    GenSpec(n_nodes=2000, k_neighbors=k, seed=seed))
            except RuntimeError:
                pass
    return suite


def test_criterion_08_density_hurts_node_selection_more(connectivity_suite):
    seeds = sorted(s for k, s in connectivity_suite if k == 4
                   and (12, s) in connectivity_suite)
    assert len(seeds) >= 8
    times = {}
    for sel in ("label", "node"):
        for k in (4, 12):
            samples = []
            for seed in seeds:
                inst = connectivity_suite[(k, seed)]
                res = solve(inst, SolverConfig(selection=sel))
                assert res.status == "optimal"
                samples.append(res.stats.wall_time)
            times[(sel, k)] = samples
    # per-seed times span two orders of magnitude, so the verdict is on
    # the geometric mean of per-seed growth; a median of times sits on a
    # gap between seeds and flips with one run's noise
    growth = {sel: statistics.geometric_mean(
        [t12 / t4 for t4, t12 in zip(times[(sel, 4)], times[(sel, 12)])])
        for sel in ("label", "node")}
    median = {sel: statistics.median(times[(sel, 12)])
              / statistics.median(times[(sel, 4)])
              for sel in ("label", "node")}
    ok = growth["label"] < growth["node"]
    detail = (f"per-seed time growth k=4 to k=12 over {len(seeds)} seeds, "
              f"geometric mean: label x{growth['label']:.2f} vs node "
              f"x{growth['node']:.2f} (ratio of medians: label "
              f"x{median['label']:.2f} vs node x{median['node']:.2f})")
    record_criterion(8, "connectivity cost grows faster under node "
                     "selection", ok, detail)
    assert ok, detail


def test_criterion_09_connectivity_suite_shape(connectivity_suite):
    targets = {4: 4869, 12: 13644}
    bad_edges = []
    bad_noise = []
    for (k, seed), inst in connectivity_suite.items():
        edges = inst.meta["undirected_edges"]
        if abs(edges - targets[k]) > 0.05 * targets[k]:
            bad_edges.append((k, seed, edges))
        if not 0.29 <= inst.meta["noise_fraction"] <= 0.35:
            bad_noise.append((k, seed, inst.meta["noise_fraction"]))
    ok = (not bad_edges and not bad_noise and len(connectivity_suite) >= 16)
    detail = (f"{len(connectivity_suite)} instances; edge counts within 5% "
              f"of {targets[4]} (k=4) and {targets[12]} (k=12): "
              f"{not bad_edges}; noise fractions in [0.29, 0.35]: "
              f"{not bad_noise}")
    record_criterion(9, "benchmark suite shape", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 10: benchmark harness determinism
# ---------------------------------------------------------------------------

def test_criterion_10_bench_determinism(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    for seed in range(4):
        save(_generate_quiet(GenSpec(n_nodes=30, seed=seed)),
             suite / f"s{seed}.json")

    def run(tag, jobs):
        out = tmp_path / f"bench-{tag}.csv"
        code = cli_main(["bench", str(suite), "--out", str(out),
                         "--selection", "label,node",
                         "--heuristic", "sup,sld,zero", "--jobs", jobs])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        stable = [(r["id"], r["selection"], r["heuristic"], r["status"],
                   r["cost"], r["labels_created"], r["labels_treated"],
                   r["labels_pruned"], r["peak_open"], r["rounds"])
                  for r in rows]
        return rows, stable

    rows, first = run("one", "1")
    _, second = run("two", "1")
    _, parallel = run("par", "2")
    ok = (first == second == parallel and len(rows) == 4 * 6
          and all(r["status"] == "optimal" for r in rows))
    detail = (f"{len(rows)} rows (4 instances x 6 configs); cost and label "
              f"columns identical across two serial runs and --jobs 2: "
              f"{first == second == parallel}")
    record_criterion(10, "benchmark CSV determinism", ok, detail)
    assert ok, detail
