"""Command-line harness: generate suites, solve, benchmark, verify, export.

The subcommands, exit codes, output locations and the manifest and CSV
formats are documented in the README (sections "Command line" and "File
formats").
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from . import generators, labeling, verify
from .heuristics import make_table, sup_path
from .instance import (FormatError, InvalidInstanceError, check_solution,
                       load, save, solution_dumps)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3

_STATUS_EXIT = {
    labeling.STATUS_OPTIMAL: EXIT_OK,
    labeling.STATUS_INFEASIBLE: EXIT_INFEASIBLE,
    labeling.STATUS_LIMIT: EXIT_LIMIT,
}

# the columns of one solve, shared by the bench CSV and the solve report
REPORT_FIELDS = [
    "status", "cost", "sup_lower_bound", "wall_time", "table_time",
    "labels_created", "labels_treated", "labels_pruned", "peak_open",
    "rounds",
]
CSV_FIELDS = [
    "id", "family", "dim", "n_nodes", "n_edges", "noise_fraction",
    "selection", "heuristic", *REPORT_FIELDS, "note",
]

# what makes an instance file unreadable: bench and verify flag the file
# and go on with the next
_LOAD_ERRORS = (FormatError, InvalidInstanceError, OSError)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 means infeasible here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _out_dir(explicit: Optional[str]) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("HYBRIDPATH_OUT_DIR", "."))


def _split_choices(value: str) -> List[str]:
    return [tok.strip() for tok in value.split(",")]


def _write_output(out: Optional[str], instance_path: str, suffix: str,
                  text: str) -> Path:
    """Write ``text`` to ``out``, or by default to the instance's stem plus
    ``suffix`` in the output directory; returns the path written."""
    path = Path(out) if out else \
        _out_dir(None) / (Path(instance_path).stem + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _instance_stats(instance) -> Dict[str, object]:
    meta = instance.meta or {}
    noise = meta.get("noise_fraction")
    if noise is None:
        restricted = sum(1 for e in instance.edges if not e.gen_allowed)
        noise = restricted / len(instance.edges) if instance.edges else 0.0
    return {
        "family": meta.get("family", ""),
        "dim": meta.get("dim", len(instance.nodes[0]) if instance.nodes else ""),
        "n_nodes": instance.n_nodes,
        "n_edges": len(instance.edges),
        "noise_fraction": noise,
    }


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    entries = manifest.get("instances")
    if not entries:
        raise ValueError("manifest has no instances")
    if not isinstance(entries, list) or not all(
            isinstance(entry, dict) for entry in entries):
        raise ValueError("manifest 'instances' must be a list of objects")
    defaults = manifest.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValueError("manifest 'defaults' must be an object")
    defaults = dict(defaults)
    if args.seed is not None:
        defaults["seed"] = args.seed

    # every id names a file <id>.json beside suite.json in out_dir
    seen = set()
    for entry in entries:
        eid = entry.get("id")
        if not eid or not isinstance(eid, str) or eid in seen:
            raise ValueError(f"missing, non-string or duplicate instance id "
                             f"{eid!r}")
        if eid in (".", "..", "suite") or "/" in eid or "\\" in eid:
            raise ValueError(f"instance id {eid!r} is not a plain file stem "
                             f"(no '/' or '\\', not '.', '..' or 'suite')")
        seen.add(eid)

    out_dir = _out_dir(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for entry in entries:
        entry = dict(entry)
        eid = entry.pop("id")
        spec = generators.GenSpec.from_dict({**defaults, **entry})
        instance = generators.generate(spec)
        path = out_dir / f"{eid}.json"
        save(instance, path)
        meta = instance.meta or {}
        records.append({
            "id": eid,
            "file": path.name,
            "spec": spec.to_dict(),
            "n_nodes": instance.n_nodes,
            "n_edges": len(instance.edges),
            "noise_fraction": meta.get("noise_fraction"),
        })
        print(f"{eid}: n={instance.n_nodes} edges={len(instance.edges)} "
              f"noise={meta.get('noise_fraction', 0.0):.3f}")
    suite = {"name": manifest.get("name", out_dir.name), "instances": records}
    with open(out_dir / "suite.json", "w", encoding="utf-8") as fh:
        json.dump(suite, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} instances to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _timed_table(instance, heuristic: str):
    t0 = time.perf_counter()
    table = make_table(instance, heuristic)
    return table, time.perf_counter() - t0


def _sup_lower_bound(instance) -> str:
    try:
        return repr(sup_path(instance).cost)
    except ValueError:  # goal unreachable
        return ""


def _solve_row(instance, config, table, table_time):
    """Solve once; returns the result and its report columns, all of
    ``REPORT_FIELDS`` but ``sup_lower_bound``, which depends only on the
    instance and is left to the caller."""
    result = labeling.solve(instance, config, table=table)
    s = result.stats
    return result, {
        "status": result.status,
        "cost": "" if result.solution is None else repr(result.solution.cost),
        "wall_time": f"{s.wall_time:.6f}",
        "table_time": f"{table_time:.6f}",
        "labels_created": s.labels_created,
        "labels_treated": s.labels_treated,
        "labels_pruned": s.labels_pruned,
        "peak_open": s.peak_open,
        "rounds": s.rounds,
    }


def cmd_solve(args) -> int:
    instance = load(args.instance)
    config = labeling.SolverConfig(
        selection=args.selection, heuristic=args.heuristic,
        max_labels=args.max_labels, max_seconds=args.max_seconds)
    result, row = _solve_row(instance, config,
                             *_timed_table(instance, config.heuristic))
    row["sup_lower_bound"] = _sup_lower_bound(instance)
    parts = []
    for key in REPORT_FIELDS:
        if row[key] != "":
            parts.append(f"{key}={row[key]}")
        if key == "sup_lower_bound" and result.status == labeling.STATUS_LIMIT:
            parts.append(f"open_lower_bound={result.lower_bound!r}")
    print(" ".join(parts))

    if result.solution is not None:
        out_path = _write_output(args.out, args.instance, ".solution.json",
                                 solution_dumps(instance, result.solution))
        print(f"solution written to {out_path}")
    elif result.status == labeling.STATUS_INFEASIBLE:
        print("no feasible path")
    return _STATUS_EXIT[result.status]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _suite_files(suite_dir: Path) -> List[Path]:
    suite_json = suite_dir / "suite.json"
    if suite_json.exists():
        with open(suite_json, "r", encoding="utf-8") as fh:
            suite = json.load(fh)
        if not isinstance(suite, dict):
            raise ValueError(f"{suite_json}: root must be a JSON object")
        entries = suite.get("instances")
        if not isinstance(entries, list):
            raise ValueError(f"{suite_json}: 'instances' must be a list")
        if not all(isinstance(rec, dict) and isinstance(rec.get("file"), str)
                   for rec in entries):
            raise ValueError(f"{suite_json}: every 'instances' entry must "
                             "be an object with a string 'file'")
        return [suite_dir / rec["file"] for rec in entries]
    files = sorted(p for p in suite_dir.glob("*.json")
                   if p.name != "suite.json"
                   and not p.name.endswith(".solution.json"))
    if not files:
        raise FileNotFoundError(f"no instance files in {suite_dir}")
    return files


def _bench_one(path_str: str, configs) -> List[Dict[str, object]]:
    """The runs of every ``SolverConfig`` in ``configs`` on one instance
    file (table shared per heuristic); errors become flagged rows so the
    sweep continues."""
    path = Path(path_str)
    base: Dict[str, object] = {k: "" for k in CSV_FIELDS}
    base["id"] = path.stem
    try:
        instance = load(path)
    except _LOAD_ERRORS as exc:
        base.update(status="error", note=str(exc))
        return [base]
    base.update(_instance_stats(instance),
                sup_lower_bound=_sup_lower_bound(instance))

    rows = []
    tables = {}
    for config in configs:
        if config.heuristic not in tables:
            tables[config.heuristic] = _timed_table(instance, config.heuristic)
        table, table_time = tables[config.heuristic]
        row = dict(base, selection=config.selection,
                   heuristic=config.heuristic)
        try:
            row.update(_solve_row(instance, config, table, table_time)[1])
        except Exception as exc:  # flag and continue
            row.update(status="error", table_time=f"{table_time:.6f}",
                       note=str(exc))
        rows.append(row)
    return rows


def _aggregate_rows(rows) -> List[Dict[str, object]]:
    cells: Dict[tuple, List[dict]] = {}
    for row in rows:
        if row["status"] != labeling.STATUS_OPTIMAL:
            continue
        key = (row["family"], row["dim"], row["n_nodes"],
               row["selection"], row["heuristic"])
        cells.setdefault(key, []).append(row)
    out = []
    for key in sorted(cells, key=lambda k: tuple(str(x) for x in k)):
        group = cells[key]
        times = sorted(float(r["wall_time"]) for r in group)
        treated = sorted(int(r["labels_treated"]) for r in group)
        if len(times) >= 2:
            q1, med, q3 = statistics.quantiles(times, n=4)
        else:
            q1 = med = q3 = times[0]
        out.append({
            "family": key[0], "dim": key[1], "n_nodes": key[2],
            "selection": key[3], "heuristic": key[4], "runs": len(group),
            "wall_time_q1": f"{q1:.6f}", "wall_time_median": f"{med:.6f}",
            "wall_time_q3": f"{q3:.6f}",
            "labels_treated_median": statistics.median(treated),
        })
    return out


def cmd_bench(args) -> int:
    suite_dir = Path(args.suite)
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    configs = [labeling.SolverConfig(selection=selection, heuristic=heuristic,
                                     max_labels=args.max_labels,
                                     max_seconds=args.max_seconds)
               for heuristic in _split_choices(args.heuristic)
               for selection in _split_choices(args.selection)]
    files = _suite_files(suite_dir)

    worker_args = [(str(p), configs) for p in files]
    rows: List[Dict[str, object]] = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for chunk in pool.map(_bench_one_star, worker_args):
                rows.extend(chunk)
    else:
        for wa in worker_args:
            rows.extend(_bench_one(*wa))

    rows.sort(key=lambda r: (str(r["family"]), str(r["n_nodes"]),
                             str(r["selection"]), str(r["heuristic"]),
                             str(r["id"])))
    out_path = Path(args.out) if args.out else suite_dir / "bench.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    n_bad = sum(1 for r in rows if r["status"] == "error")
    print(f"wrote {len(rows)} rows to {out_path}"
          + (f" ({n_bad} flagged errors)" if n_bad else ""))

    if args.aggregate:
        agg = _aggregate_rows(rows)
        agg_fields = ["family", "dim", "n_nodes", "selection", "heuristic",
                      "runs", "wall_time_q1", "wall_time_median",
                      "wall_time_q3", "labels_treated_median"]
        with open(args.aggregate, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=agg_fields)
            writer.writeheader()
            writer.writerows(agg)
        print(f"wrote {len(agg)} aggregate rows to {args.aggregate}")
    return EXIT_ERROR if n_bad else EXIT_OK


def _bench_one_star(wa):
    return _bench_one(*wa)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_CONFIGS = tuple(
    labeling.SolverConfig(selection=selection, heuristic=heuristic)
    for selection in (labeling.SELECT_LABEL, labeling.SELECT_NODE)
    for heuristic in ("sup", "sld"))


def cmd_verify(args) -> int:
    files = _suite_files(Path(args.suite))
    checked = matched = skipped = unreadable = 0
    for path in files:
        try:
            instance = load(path)
        except _LOAD_ERRORS as exc:
            print(f"{path.stem}: error ({exc})")
            unreadable += 1
            continue
        try:
            oracle = verify.oracle_solve(instance)
            reference, skip = ("oracle", oracle.status, oracle.cost), None
        except verify.OracleBudgetError as exc:
            # no oracle: the configs must still agree, replay and satisfy
            # the MILP rows
            reference, skip = None, exc
        problems = []
        solved = None
        tables = {heur: make_table(instance, heur) for heur in ("sup", "sld")}
        for config in _VERIFY_CONFIGS:
            table = tables[config.heuristic]
            if not table.admissible:
                continue  # solve rejects it; nothing to cross-check
            result = labeling.solve(instance, config, table=table)
            tag = f"{config.selection}/{config.heuristic}"
            cost = None if result.solution is None else result.solution.cost
            if reference is None:
                reference = (tag, result.status, cost)
            ref_tag, ref_status, ref_cost = reference
            if result.status != ref_status:
                problems.append(f"{tag}: {result.status} vs {ref_tag} "
                                f"{ref_status}")
            elif cost != ref_cost:
                problems.append(f"{tag}: cost {cost!r} vs {ref_tag} "
                                f"{ref_cost!r}")
            if result.solution is not None:
                err = check_solution(instance, result.solution)
                if err is not None:
                    problems.append(f"{tag}: replay: {err}")
                solved = result.solution
        if args.export_milp:
            model = verify.build_milp(instance)
            lp_path = path.with_suffix(".lp")
            with open(lp_path, "w", encoding="utf-8") as fh:
                fh.write(model.render())
            if solved is not None:
                assignment = verify.assignment_from_solution(instance, solved)
                problems += verify.check_substitution(model, assignment)
        if skip is not None and not problems:
            print(f"{path.stem}: skipped ({skip})")
            skipped += 1
            continue
        checked += 1
        if problems:
            print(f"{path.stem}: MISMATCH — " + "; ".join(problems))
        else:
            cost = "infeasible" if oracle.solution is None else repr(oracle.cost)
            skipped_heur = [h for h, t in tables.items() if not t.admissible]
            print(f"{path.stem}: ok ({cost})" + "".join(
                f", {h} skipped (inadmissible)" for h in skipped_heur))
            matched += 1
    print(f"{matched}/{checked} matched, {skipped} skipped"
          + (f", {unreadable} unreadable" if unreadable else ""))
    return EXIT_OK if matched == checked and not unreadable else EXIT_ERROR


# ---------------------------------------------------------------------------
# export-milp
# ---------------------------------------------------------------------------

def cmd_export_milp(args) -> int:
    instance = load(args.instance)
    out_path = _write_output(args.out, args.instance, ".lp",
                             verify.build_milp(instance).render())
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_config_flags(p):
    p.add_argument("--selection", default=labeling.SELECT_LABEL,
                   help="label or node (bench: comma list)")
    p.add_argument("--heuristic", default="sup",
                   help="sup, sld or zero (bench: comma list)")
    p.add_argument("--max-labels", type=int, default=None,
                   help="stop after this many labels are created")
    p.add_argument("--max-seconds", type=float, default=None,
                   help="stop after this much solve wall time")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hybridpath",
                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="expand a manifest into a suite")
    p.add_argument("manifest", help="manifest JSON path")
    p.add_argument("out_dir", nargs="?", default=None,
                   help="suite directory (default $HYBRIDPATH_OUT_DIR or .)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the default seed for entries without one")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("instance")
    p.add_argument("--out", default=None, help="solution file path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="benchmark a suite, write CSV")
    p.add_argument("suite", help="suite directory")
    p.add_argument("--out", default=None, help="CSV path (default <suite>/bench.csv)")
    p.add_argument("--aggregate", default=None,
                   help="also write per-cell median/quartile CSV here")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel instances (each solve single-threaded)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="oracle cross-check a small suite")
    p.add_argument("suite", help="suite directory")
    p.add_argument("--export-milp", action="store_true",
                   help="also write LP files and check substitution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-milp", help="write the LP formulation")
    p.add_argument("instance")
    p.add_argument("--out", default=None, help="LP path")
    p.set_defaults(func=cmd_export_milp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
