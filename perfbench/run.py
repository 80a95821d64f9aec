"""Benchmark command for hybridpath.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` next
to this directory.  Workloads: euclid-20k, lattice3d-node, sweep-mixed and
crosscheck (see README.md).  A run repeats whole rounds of its workload
until ``--seconds`` have passed (at least one round), checks every
round's outputs, and prints one JSON object as its last line of output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
and writes the spans to ``perfbench/out/``.

    python3 perfbench/run.py --make-reference

remakes ``reference.json``, the node/sup cost the euclid-20k check
compares against.  ``--smoke`` runs reduced instance sizes
(see smoke_test.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

# One fresh interpreter doing the run's set-up: imports and a scratch dir.
SETUP_CODE = """\
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
scratch = Path(sys.argv[3])
scratch.mkdir(parents=True)
scratch.rmdir()
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced instance sizes, for the smoke test")
    p.add_argument("--make-reference", action="store_true",
                   help="remake reference.json and exit")
    args = p.parse_args(argv)
    if not args.make_reference and args.workload is None:
        p.error("--workload is required")
    return args


def _declared_units(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _setup_seconds():
    """Median wall time of fresh interpreters doing the set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        scratch = OUT / f"setup-{os.getpid()}-{k}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                        str(HERE), str(scratch)], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _settled(values):
    """A value repeated by every round as is, else the median."""
    return values[0] if all(v == values[0] for v in values) \
        else statistics.median(values)


def run(args, workloads, tracing):
    setup_s = None if args.trace else _setup_seconds()
    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
    tracer = tracing.Tracer() if args.trace else None

    attempted = failed = 0
    correct = True
    first_sig = None
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    try:
        while True:
            is_traced = tracer is not None and len(plain) > len(traced)
            acc = workloads.Acc()
            out = None  # the last round's outputs must not add to this peak
            gc.collect()
            if is_traced:
                tracer.install()
                tracer.begin_round(len(layers))
            t0 = time.perf_counter()
            try:
                out = wl.round(acc)
            except Exception:
                traceback.print_exc()
                acc.failed += 1
            wall = time.perf_counter() - t0
            if is_traced:
                tracer.end_round()
                tracer.uninstall()
                layers.append(tracer.layer_metrics(len(layers)))
                traced.append(wall)
            else:
                plain.append((wall, acc.generate_s, acc.solve_s))
            attempted += acc.attempted
            failed += acc.failed
            if out is None:
                correct = False
            else:
                problems = wl.check(out)
                sig = wl.signature(out)
                if first_sig is None:
                    first_sig = sig
                elif sig != first_sig:
                    problems.append("deterministic results differ between "
                                    "rounds")
                for problem in problems:
                    print(f"check failed: {problem}", file=sys.stderr)
                correct = correct and not problems
            done = time.perf_counter() - start >= args.seconds
            # a traced run needs an untraced round after its first
            # (warm-up) round to compare the traced rounds with
            if done and (tracer is None or len(plain) > len(traced) > 0):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r[0] for r in plain),
            "generate_s": statistics.median(r[1] for r in plain),
            "solve_s": statistics.median(r[2] for r in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = _declared_units("end_to_end")
    else:
        metrics = {name: _settled([m[name] for m in layers])
                   for name in layers[0]}
        metrics["tracing_overhead_s"] = (
            statistics.median(traced)
            - statistics.median(r[0] for r in plain[1:]))
        units = _declared_units("per_layer")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "hybridpath" / "__init__.py").is_file():
        print(f"error: no hybridpath package under {SRC}", file=sys.stderr)
        return 2
    # numpy's BLAS pool would add idle threads beyond nproc; the program
    # makes no BLAS calls that need it.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.make_reference:
        for entry in workloads.make_reference(
                workloads.Euclid20k.reference_specs()):
            print(json.dumps(entry))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print(json.dumps(run(args, workloads, tracing)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
