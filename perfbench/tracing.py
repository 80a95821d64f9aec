"""Span tracing for the traced benchmark run.

The tracer replaces public functions of the hybridpath modules by timing
wrappers, at every name through which the program or the benchmark looks
them up: the package modules import names directly (``cli`` holds its own
``load``, ``make_table`` and ``sup_path``; ``generators`` its own
``sup_path``), so each of those bindings is patched, not only the defining
module's.  Calls are recorded as spans (name, start, end, parent span,
round) held in memory; ``write`` saves them once, when the run ends.

The ``OpenList`` methods run millions of times per solve.  A span per call
would cost more memory than the solve itself, so those calls are summed
into the enclosing span as (calls, seconds) per name instead.

Every per-layer metric is derived from the spans of one round: a span's
self time is its duration minus its child spans and summed hot calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from hybridpath import cli, generators, heuristics, instance, labeling, verify

HOT_INSERT = "labeling.insert"
HOT_HEAP = "labeling.heap"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "round", "hot")

    def __init__(self, sid, name, parent, rnd):
        self.id = sid
        self.name = name
        self.parent = parent
        self.round = rnd
        self.start = self.end = 0.0
        self.hot = {}

    def to_json(self):
        return [self.id, self.name, self.start, self.end, self.parent,
                self.round, self.hot]


def _after_solve(counts, args, result):
    s = result.stats
    counts["labeling.labels_created"] += s.labels_created
    counts["labeling.labels_treated"] += s.labels_treated
    counts["labeling.labels_pruned"] += s.labels_pruned
    counts["labeling.rounds"] += s.rounds
    counts["labeling.peak_open"] = max(counts["labeling.peak_open"],
                                       s.peak_open)


def _after_generate(counts, args, result):
    discarded = result.meta["discarded_draws"]
    counts["generators.draws"] += discarded + 1
    counts["generators.discarded_draws"] += discarded


def _after_dumps(counts, args, result):
    counts["instance.json_bytes"] += len(result.encode("utf-8"))


def _after_loads(counts, args, result):
    data = args[0]
    counts["instance.json_bytes"] += (len(data) if isinstance(data, bytes)
                                      else len(data.encode("utf-8")))


def _after_oracle(counts, args, result):
    counts["verify.oracle_pairs"] += result.enumerated_count


def _after_build_milp(counts, args, model):
    rows = len(model.rows)
    n_vars = len(model.variable_names())
    counts["verify.milp_rows"] += rows
    counts["verify.milp_vars"] += n_vars
    counts["verify.milp_nnz"] += sum(len(r.coeffs) for r in model.rows)
    # the dense constraint matrix solve_milp allocates: rows x vars float64
    counts["verify.milp_dense_mb"] = max(counts["verify.milp_dense_mb"],
                                         rows * n_vars * 8 / 1e6)


# (owner, attribute, span name, hook run on the result after the span ends)
_SPANS = (
    (cli, "main", "cli.main", None),
    (cli, "cmd_generate", "cli.cmd_generate", None),
    (cli, "cmd_bench", "cli.cmd_bench", None),
    (cli, "cmd_solve", "cli.cmd_solve", None),
    (cli, "_bench_one", "cli.bench_one", None),
    (cli, "load", "instance.load", None),
    (cli, "make_table", "heuristics.make_table", None),
    (cli, "sup_path", "heuristics.sup_path", None),
    (generators, "generate", "generators.generate", _after_generate),
    (generators, "sup_path", "heuristics.sup_path", None),
    (labeling, "solve", "labeling.solve", _after_solve),
    (labeling, "make_table", "heuristics.make_table", None),
    (labeling, "extract_path", "labeling.extract_path", None),
    (heuristics, "make_table", "heuristics.make_table", None),
    (heuristics, "sup_table", "heuristics.sup_table", None),
    (heuristics, "sup_path", "heuristics.sup_path", None),
    (instance, "dumps", "instance.dumps", _after_dumps),
    (instance, "loads", "instance.loads", _after_loads),
    (instance, "check_solution", "instance.check_solution", None),
    (verify, "oracle_solve", "verify.oracle_solve", _after_oracle),
    (verify, "build_milp", "verify.build_milp", _after_build_milp),
    (verify, "solve_milp", "verify.solve_milp", None),
    (verify, "assignment_from_solution", "verify.assignment", None),
    (verify, "check_substitution", "verify.check_substitution", None),
)

_HOT = (
    (labeling.OpenList, "insert_candidate", HOT_INSERT),
    (labeling.OpenList, "pop_min", HOT_HEAP),
    (labeling.OpenList, "peek_min", HOT_HEAP),
    (labeling.OpenList, "take_node", HOT_HEAP),
)


class Tracer:
    """Holds the spans of a run; ``install``/``uninstall`` patch and
    restore the traced names around each traced round."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._saved = []

    def _span_wrapper(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id, stack[0].round)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(self.counts[span.round], args, result)
            return result
        return traced

    def _hot_wrapper(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        def traced(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                hot = stack[-1].hot
                entry = hot.get(name)
                if entry is None:
                    hot[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
        return traced

    def install(self):
        for owner, attr, name, after in _SPANS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span_wrapper(name, fn, after))
        for owner, attr, name in _HOT:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._hot_wrapper(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def begin_round(self, rnd):
        """Open the root span of a traced round; every traced call made
        during the round nests below it."""
        root = Span(len(self.spans), "round", None, rnd)
        self.spans.append(root)
        self.counts[rnd] = defaultdict(int)
        self._stack.append(root)
        root.start = time.perf_counter()

    def end_round(self):
        root = self._stack.pop()
        root.end = time.perf_counter()

    def layer_metrics(self, rnd):
        """Per-layer metrics of one traced round (see README.md)."""
        spans = [s for s in self.spans if s.round == rnd]
        by_id = {s.id: s for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        total = defaultdict(float)
        calls = defaultdict(int)
        own = defaultdict(float)
        hot = defaultdict(lambda: [0, 0.0])
        probe = 0.0
        for s in spans:
            dur = s.end - s.start
            total[s.name] += dur
            calls[s.name] += 1
            hot_time = 0.0
            for name, (n, t) in s.hot.items():
                hot[name][0] += n
                hot[name][1] += t
                hot_time += t
            own[s.name] += dur - child_time[s.id] - hot_time
            if (s.name == "labeling.solve"
                    and by_id[s.parent].name == "generators.generate"):
                probe += dur
        counts = self.counts[rnd]
        insert_calls = hot[HOT_INSERT][0]
        cli_self = sum((t for name, t in own.items()
                        if name.startswith("cli.")), 0.0)
        return {
            "labeling.insert_s": hot[HOT_INSERT][1],
            "labeling.insert_calls": insert_calls,
            "labeling.accept_ratio": (counts["labeling.labels_created"]
                                      / insert_calls if insert_calls else 0.0),
            "labeling.heap_s": hot[HOT_HEAP][1],
            "labeling.extract_s": total["labeling.extract_path"],
            "labeling.self_s": own["labeling.solve"],
            "labeling.labels_created": counts["labeling.labels_created"],
            "labeling.labels_treated": counts["labeling.labels_treated"],
            "labeling.labels_pruned": counts["labeling.labels_pruned"],
            "labeling.peak_open": counts["labeling.peak_open"],
            "labeling.rounds": counts["labeling.rounds"],
            "generators.self_s": own["generators.generate"],
            "generators.probe_solve_s": probe,
            "generators.draws": counts["generators.draws"],
            "generators.discarded_draws": counts["generators.discarded_draws"],
            "instance.dumps_s": total["instance.dumps"],
            "instance.loads_s": total["instance.loads"],
            "instance.json_bytes": counts["instance.json_bytes"],
            "instance.check_solution_s": total["instance.check_solution"],
            "heuristics.table_s": total["heuristics.make_table"],
            "heuristics.sup_path_s": total["heuristics.sup_path"],
            "heuristics.dijkstra_calls": (calls["heuristics.sup_table"]
                                          + calls["heuristics.sup_path"]),
            "verify.oracle_s": total["verify.oracle_solve"],
            "verify.oracle_pairs": counts["verify.oracle_pairs"],
            "verify.build_milp_s": total["verify.build_milp"],
            "verify.solve_milp_s": total["verify.solve_milp"],
            "verify.substitution_s": (total["verify.assignment"]
                                      + total["verify.check_substitution"]),
            "verify.milp_rows": counts["verify.milp_rows"],
            "verify.milp_vars": counts["verify.milp_vars"],
            "verify.milp_nnz": counts["verify.milp_nnz"],
            "verify.milp_dense_mb": float(counts["verify.milp_dense_mb"]),
            "cli.bench_s": total["cli.cmd_bench"],
            "cli.self_s": cli_self,
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "round", "hot"],
                       "spans": [s.to_json() for s in self.spans]}, fh)
            fh.write("\n")
