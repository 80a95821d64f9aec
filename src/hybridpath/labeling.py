"""Exact label-correcting search for the hybrid-fuel planning problem.

Each label records the state of one partial path: cost-to-arrive ``d``,
battery ``b``, fuel ``q`` and the generator bit ``s`` of the incoming edge
(off at the start node).  Labels at the same node are partially ordered by
dominance; dominated labels can never complete into a better plan and are
pruned.  Selection is ordered by f = d + h(node) for an admissible
heuristic h, so the first goal label selected is optimal.

Two selection methods are supported: ``label`` treats the single open
label of minimum f per iteration, ``node`` treats every open label of the
node owning the minimum-f label.  The label and time limits are checked
at one point, before each selection, so a node-selection batch is always
finished before a limit stops the search, and the bound it reports is
the minimum f over the open labels, those not yet selected.  A selected
label that the drain bound below drops has no feasible completion, so
leaving it out of the bound keeps the bound sound.

Drain-to-goal bound: ``solve`` runs one reverse Dijkstra over the drain
``c`` (``heuristics.drain_to_goal``), giving E(v), the least total drain
of any v -> goal path.  A selected label at v with b + q < bmin + E(v)
is dropped before it is extended and counted in ``labels_pruned``.  The
bound is exact because no edge lowers b + q by less than its drain c:
with the generator off b falls by c and q stays; with it on
b' = min(b - c - startup + z, bmax) <= b - c + z and q' = q - z.  A goal
label has b >= bmin and q >= 0, so b + q >= bmin + E(v) holds at every
label of a feasible plan.  The check sits after the goal test; it never
drops a goal label, since E(goal) = 0.  Dominance is unaffected: every
label a dropped one dominates has no more battery and fuel, and so no
feasible completion either.

Under label selection with a consistent heuristic (``sup`` and ``zero``
always, ``sld`` whenever it is admissible, which ``solve`` requires),
labels close in nondecreasing f, so a label closed at a node has d no
larger than any candidate generated there later.  Candidates are
therefore tested against closed labels on (b, q, s) alone, through a
per-node Pareto staircase searched by bisection (see ``OpenList``).  All
other labels are compared on (d, b, q, s, mask).  They sit in per-node
buckets of equal (d, s, mask): the labels that follow one path under
different generator schedules share all three.  Within a bucket
dominance reduces to (b, q), so each bucket is a (b, q) staircase as
well, and a candidate is tested against a whole bucket with one
comparison and at most one bisection.  Node selection keeps its closed
labels in the buckets: it closes every open label of the chosen node at
once, including labels whose f exceeds the open minimum, and a later
candidate there can have a smaller d than those.  So the buckets mix
open and closed labels, and ``take_node`` picks the open ones by their
``in_open`` flag.

The startup drain applies with transition semantics: the battery pays the
startup cost only on an off -> on switch of the generator (the start node
counts as off).

Solutions must be simple paths.  Pure resource dominance is unsound for
that requirement on its own: a label can dominate on (d, b, q, s) while
having visited a node the dominated label's optimal continuation needs,
for example after a cheap gliding detour past a recharge edge.  ``solve``
therefore refines a critical-node set: the search first relaxes
elementarity (labels may revisit nodes; such cycles are almost always
dominated away), and whenever the returned optimum repeats a node, that
node becomes critical and the search reruns.  Critical nodes cannot be
revisited, labels carry a bitmask over them, and dominance additionally
requires the dominator's critical-visit set to be a subset of the
dominated label's.  Each round's relaxed optimum lower-bounds the simple
optimum, so the first simple optimum returned is exact; on typical
instances the first round is already simple and the refinement costs
nothing.

The search loop applies the extension rule inline and allocates a Label
only once a candidate survives dominance, which is what keeps 20k-node
instances tractable in pure Python; unit tests hold it to
``instance.replay``.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .heuristics import HeuristicTable, drain_to_goal, make_table
from .instance import Instance, Solution, path_cost

SELECT_LABEL = "label"
SELECT_NODE = "node"

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_LIMIT = "limit"


class Label:
    """State of a partial path ending at ``node``.

    ``mask`` is the set of critical nodes visited, as a bitmask over
    their bits.  ``s`` is the generator bit of the incoming edge (off at
    the start node), ``parent`` the predecessor label (None there).
    """

    __slots__ = ("node", "d", "b", "q", "s", "f", "seq", "parent", "mask",
                 "in_open")

    def __init__(self, node, d, b, q, s, f, parent, mask):
        self.node = node
        self.d = d
        self.b = b
        self.q = q
        self.s = s
        self.f = f
        self.seq = -1
        self.parent = parent
        self.mask = mask
        self.in_open = False

    def __repr__(self):  # debugging aid
        return (f"Label(node={self.node}, d={self.d:.6g}, b={self.b}, "
                f"q={self.q}, s={int(self.s)})")


_by_d = attrgetter("d")
_by_q = attrgetter("q")


def _covers(bs: list, qs: list, b, q) -> bool:
    """Whether a (b, q) staircase (b ascending, q descending) holds an
    entry with b' >= b and q' >= q."""
    i = bisect_left(bs, b)
    return i < len(bs) and qs[i] >= q


def _run_covers(run: List[Label], b, q) -> bool:
    """Whether a bucket (q ascending, so b descending) holds a label with
    b' >= b and q' >= q: the one with the least q' >= q has the largest
    b' among those."""
    i = bisect_left(run, q, key=_by_q)
    return i < len(run) and run[i].b >= b


class OpenList:
    """Priority structure over open labels keyed by f-cost.

    Ties break toward larger battery, then larger fuel, then insertion
    order: ``created`` numbers the accepted labels and so counts them,
    and ``created_per_node`` counts them per node.

    Each node keeps two things.  Its open labels, and the closed labels
    that carry a critical mask or were closed by ``take_node``, sit in
    buckets of equal (d, s, mask).  Dominance between two labels of one
    bucket depends on (b, q) alone, and a dominated label is always
    rejected or evicted, so each bucket is a staircase: b falls strictly
    as q rises.  Its head is the label with the largest b and the
    smallest q.  The node keeps the heads in a list sorted by d, so
    rejection scans stop early; a bucket of two or more labels also
    keeps its labels, q ascending, in ``_runs`` under its head.  A
    candidate is rejected when a bucket with d' <= d, s' >= s and mask'
    a subset of its mask holds a label with b' >= b and q' >= q.  The
    head settles that for its whole bucket unless head.b >= b but
    head.q < q; then one bisection of the bucket's labels does.  An
    accepted candidate evicts, from each bucket with d' >= d, s' <= s
    and mask' a superset of its mask, the labels with b' <= b and
    q' <= q: one contiguous run of the bucket.

    A label closed by ``pop_min`` with an empty mask leaves its bucket
    for the node's closed (b, q) staircase for its generator bit: the
    Pareto front of closed labels, b ascending and q descending, probed
    with ``bisect``.  Every candidate is tested against the generator-on
    staircase, one with the generator off also against the
    generator-off staircase.  The staircase drops d, which is sound only
    under its contract: callers pop labels in f order and the heuristic
    is consistent, so every label closed at a node has d no larger than
    any candidate generated there later.  Staircase entries are never
    evicted.  Heap entries of evicted labels are dropped lazily, as
    ``in_open`` is what marks a label open.
    """

    def __init__(self, n_nodes: int):
        self._heap: List[tuple] = []
        # per node: the heads of its buckets, sorted by d
        self._heads: List[List[Label]] = [[] for _ in range(n_nodes)]
        # head of a bucket of two or more labels -> its labels, q ascending
        self._runs: Dict[Label, List[Label]] = {}
        # per node: None until a label closes there, then the closed
        # staircases [b_off, q_off, b_on, q_on]
        self._closed: List[Optional[List[list]]] = [None] * n_nodes
        self.created = 0
        self.created_per_node = [0] * n_nodes
        self.n_open = 0
        self.pruned = 0

    def insert_candidate(self, node, d, b, q, s, f, parent,
                         mask) -> Optional[Label]:
        """Accept a candidate state unless an existing label at ``node``
        weakly dominates it; the Label object is built only on
        acceptance.  Returns it, or None when pruned.

        This is the one dominance rule: label e weakly dominates state x
        when e.d <= x.d, e.b >= x.b, e.q >= x.q, e.s >= x.s (generator on
        beats off) and e's critical-visit mask is a subset of x's.
        Staircase labels are closed with an empty mask and, by the class
        contract, e.d <= x.d, so they are tested on (b, q, s) alone.  An
        accepted candidate evicts every bucketed label it weakly
        dominates; of two equal states the newer one is discarded."""
        closed = self._closed[node]
        if closed is not None and (
                _covers(closed[2], closed[3], b, q)
                or not s and _covers(closed[0], closed[1], b, q)):
            self.pruned += 1
            return None

        heads = self._heads[node]
        runs = self._runs
        # a head has its bucket's largest b; when its q falls short, a
        # member with a larger q and a smaller b may still cover (b, q)
        for e in heads[:bisect_right(heads, d, key=_by_d)]:
            if e.b >= b and (e.q >= q or e in runs
                             and _run_covers(runs[e], b, q)) \
                    and e.s >= s and (e.mask | mask) == mask:
                self.pruned += 1
                return None

        # evictions delete only at indices >= lo, so lo stays the
        # candidate's insert position
        lo = bisect_left(heads, d, key=_by_d)
        i = len(heads) - 1
        while i >= lo:
            e = heads[i]
            # a head has its bucket's smallest q, so q >= e.q is needed
            # for any eviction from the bucket
            if q >= e.q and s >= e.s and (mask | e.mask) == e.mask:
                if e not in runs:
                    if b >= e.b:
                        if e.in_open:
                            e.in_open = False
                            self.n_open -= 1
                        self.pruned += 1
                        del heads[i]
                else:
                    run = runs[e]
                    # the labels with q' <= q come first and b falls
                    # along them: the dominated ones end at index j
                    j = k = bisect_right(run, q, key=_by_q)
                    while k and run[k - 1].b <= b:
                        k -= 1
                    if k < j:
                        for x in run[k:j]:
                            if x.in_open:
                                x.in_open = False
                                self.n_open -= 1
                        self.pruned += j - k
                        del run[k:j]
                        if not k or len(run) == 1:
                            del runs[e]
                            if not run:
                                del heads[i]
                            else:
                                heads[i] = run[0]
                                if len(run) > 1:
                                    runs[run[0]] = run
            i -= 1

        label = Label(node, d, b, q, s, f, parent, mask)
        label.seq = self.created
        self.created += 1
        self.created_per_node[node] += 1
        label.in_open = True
        # join the candidate's bucket, whose head has d' == d, or start one
        p = lo
        while p < len(heads) and heads[p].d == d:
            e = heads[p]
            if e.s == s and e.mask == mask:
                run = runs.pop(e, None) or [e]
                run.insert(bisect_left(run, q, key=_by_q), label)
                heads[p] = run[0]
                runs[run[0]] = run
                break
            p += 1
        else:
            heads.insert(lo, label)
        heapq.heappush(self._heap, (f, -b, -q, label.seq, label))
        self.n_open += 1
        return label

    def _close(self, label: Label) -> None:
        """Move a popped label with an empty mask from its bucket to its
        node's closed staircase."""
        node = label.node
        heads = self._heads[node]
        p = bisect_left(heads, label.d, key=_by_d)
        while heads[p].s != label.s or heads[p].mask != label.mask:
            p += 1
        run = self._runs.pop(heads[p], None)
        if run is None:
            del heads[p]
        else:
            del run[bisect_left(run, label.q, key=_by_q)]
            heads[p] = run[0]
            if len(run) > 1:
                self._runs[run[0]] = run
        closed = self._closed[node]
        if closed is None:
            closed = self._closed[node] = [[], [], [], []]
        bs, qs = (closed[2], closed[3]) if label.s else (closed[0], closed[1])
        b, q = label.b, label.q
        if _covers(bs, qs, b, q):
            return
        # the entries the label dominates (b' <= b, q' <= q) are the
        # contiguous run ending just before the first b' > b
        j = k = bisect_right(bs, b)
        while k and qs[k - 1] <= q:
            k -= 1
        bs[k:j] = [b]
        qs[k:j] = [q]

    def peek_min(self) -> Optional[Label]:
        heap = self._heap
        while heap:
            label = heap[0][4]
            if label.in_open:
                return label
            heapq.heappop(heap)
        return None

    def pop_min(self) -> Optional[Label]:
        """Remove and return the minimum-f open label; with an empty
        mask it moves to its node's closed staircase."""
        heap = self._heap
        while heap:
            label = heapq.heappop(heap)[4]
            if label.in_open:
                label.in_open = False
                self.n_open -= 1
                if not label.mask:
                    self._close(label)
                return label
        return None

    def take_node(self, node: int) -> List[Label]:
        """Remove and return every open label of ``node`` in heap order
        (ascending f, then the tie-breaks).  They stay in the node's
        buckets, which also hold the node's closed labels, hence the
        ``in_open`` filter: node selection closes labels whose f exceeds
        the open minimum, so the staircase contract does not hold for
        them."""
        runs = self._runs
        bucketed = []
        for e in self._heads[node]:
            bucketed += runs.get(e) or (e,)
        labels = [e for e in bucketed if e.in_open]
        for e in labels:
            e.in_open = False
        self.n_open -= len(labels)
        labels.sort(key=lambda l: (l.f, -l.b, -l.q, l.seq))
        return labels


@dataclass(frozen=True)
class SolverConfig:
    selection: str = SELECT_LABEL
    heuristic: str = "sup"
    max_labels: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.selection not in (SELECT_LABEL, SELECT_NODE):
            raise ValueError(f"unknown selection method {self.selection!r} "
                             "(choose from label, node)")
        if self.heuristic not in ("sld", "sup", "zero"):
            raise ValueError(f"unknown heuristic {self.heuristic!r} "
                             "(choose from sld, sup, zero)")
        if self.max_labels is not None and self.max_labels < 0:
            raise ValueError(f"max_labels must be non-negative, got "
                             f"{self.max_labels!r}")
        # "not >=" so that NaN fails too; inf is allowed (no limit)
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError(f"max_seconds must be non-negative, got "
                             f"{self.max_seconds!r}")


@dataclass
class SolveStats:
    labels_created: int = 0
    labels_treated: int = 0
    labels_pruned: int = 0
    peak_open: int = 0
    wall_time: float = 0.0
    rounds: int = 0
    created_per_node: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve: status is ``optimal``, ``infeasible`` or
    ``limit``.  ``lower_bound`` is the optimal cost itself when status is
    optimal.  At a limit it is the smallest f over the open labels:
    limits are checked between selections, so under node selection the
    current batch is finished first.  Selected labels that the
    drain-to-goal bound dropped are left out; none of them completes
    into a feasible plan."""

    status: str
    solution: Optional[Solution]
    stats: SolveStats
    lower_bound: Optional[float] = None


def extract_path(label: Label, instance: Instance) -> Solution:
    """Rebuild the solution for a label by walking its parent chain.

    The resource traces are read off the chain labels; the cost is
    recomputed as the exact-rounded sum of edge costs."""
    chain = []
    cur = label
    while cur is not None:
        chain.append(cur)
        cur = cur.parent
    chain.reverse()
    path = tuple(l.node for l in chain)
    return Solution(
        path=path,
        gen=tuple(bool(l.s) for l in chain[1:]),
        cost=path_cost(instance, path),
        battery=tuple(l.b for l in chain),
        fuel=tuple(l.q for l in chain),
    )


def _search(instance, config, h, need, critical_bit, stats, created, t0):
    """One labeling pass with the current critical-node set.

    Returns (status, best goal label or None, lower bound or None) and
    accumulates counts into ``stats``/``created``.  ``need`` is the
    drain-to-goal table E, ``critical_bit`` maps node id to its mask bit
    (0 for freely revisitable nodes).  Limits are checked once per
    selection, at the top of the loop (see the module docstring)."""
    inf = math.inf
    goal = instance.goal
    bmin, bmax, v_cost = instance.bmin, instance.bmax, instance.v
    # edges into nodes that cannot reach the goal are dropped here, once
    adj = [tuple((e.v, e.d, e.c, e.z, e.gen_allowed, h[e.v],
                  critical_bit[e.v]) for e in lst if h[e.v] != inf)
           for lst in instance.out_edges]
    max_labels, max_seconds = config.max_labels, config.max_seconds
    by_node = config.selection == SELECT_NODE

    open_list = OpenList(instance.n_nodes)
    insert = open_list.insert_candidate
    start = instance.start
    if h[start] != inf:
        insert(start, 0.0, instance.b0, instance.q0, False, h[start], None,
               critical_bit[start])
        stats.peak_open = max(stats.peak_open, 1)

    status, best, bound = STATUS_INFEASIBLE, None, None
    while open_list.n_open:
        if (max_labels is not None
                and stats.labels_created + open_list.created > max_labels
                or max_seconds is not None
                and time.perf_counter() - t0 > max_seconds):
            status, bound = STATUS_LIMIT, open_list.peek_min().f
            break
        if by_node:
            labels = open_list.take_node(open_list.peek_min().node)
        else:
            labels = (open_list.pop_min(),)
        first = labels[0]
        if first.node == goal:
            status, best, bound = STATUS_OPTIMAL, first, first.d
            break
        edges = adj[first.node]
        floor = bmin + need[first.node]
        for label in labels:
            d0, b0, q0, mask = label.d, label.b, label.q, label.mask
            if b0 + q0 < floor:
                # battery plus fuel cannot pay the least drain to the goal
                stats.labels_pruned += 1
                continue
            stats.labels_treated += 1
            startup = 0 if label.s else v_cost
            for v2, ed, ec, ez, allowed, hv, cbit in edges:
                if mask & cbit:
                    continue
                d2 = d0 + ed
                f2 = d2 + hv
                mask2 = mask | cbit
                b_off = b0 - ec
                if b_off >= bmin:
                    insert(v2, d2, b_off, q0, False, f2, label, mask2)
                if allowed and ez <= q0:
                    b_mid = b0 - ec - startup
                    if b_mid >= bmin:
                        b_on = b_mid + ez
                        if b_on > bmax:
                            b_on = bmax
                        insert(v2, d2, b_on, q0 - ez, True, f2, label, mask2)
            if open_list.n_open > stats.peak_open:
                stats.peak_open = open_list.n_open
    stats.labels_created += open_list.created
    stats.labels_pruned += open_list.pruned
    stats.rounds += 1
    for v, k in enumerate(open_list.created_per_node):
        created[v] += k
    return status, best, bound


def solve(instance: Instance, config: SolverConfig = SolverConfig(),
          table: Optional[HeuristicTable] = None) -> SolveResult:
    """Run the label-correcting search to a provably optimal simple path.

    Returns the minimum-cost feasible solution, an infeasibility result
    (the search space exhausted), or a limit result with the best lower
    bound still open.  Limits apply across all refinement rounds (see the
    module docstring).  Each call also runs one reverse Dijkstra over the
    drain, for the drain-to-goal bound that every round prunes on; its
    time counts toward the time limit and ``wall_time``.  Pass ``table``
    to reuse a precomputed heuristic table (its kind must match the
    config).  Raises ValueError for an inadmissible table: the search's
    optimality proof and its closed-label staircase both rest on the
    estimate never over-estimating.
    """
    if instance.start == instance.goal:
        raise ValueError("start equals goal")
    if table is None:
        table = make_table(instance, config.heuristic)
    elif table.kind != config.heuristic:
        raise ValueError(
            f"table kind {table.kind!r} != config {config.heuristic!r}")
    if not table.admissible:
        raise ValueError(
            f"{table.kind} heuristic is inadmissible on this instance "
            "(an edge costs less than the straight line between its ends)")

    t0 = time.perf_counter()
    n = instance.n_nodes
    stats = SolveStats()
    created = [0] * n
    critical_bit = [0] * n
    n_critical = 0

    def finish(status, solution=None, bound=None):
        stats.wall_time = time.perf_counter() - t0
        stats.created_per_node = tuple(created)
        return SolveResult(status, solution, stats, bound)

    # The search allocates many tracked objects (labels, heap and
    # dominance entries) that form no reference cycles: reference counting
    # frees them, and the cyclic collector's passes over the growing live
    # set reclaim nothing.  On 2000-node instances those passes were 30-50%
    # of a solve, so the collector is paused for the search and for the
    # drain sweep's reversed adjacency lists.
    collecting = gc.isenabled()
    gc.disable()
    try:
        need = drain_to_goal(instance)
        while True:
            status, best, bound = _search(
                instance, config, table.h, need, critical_bit, stats,
                created, t0)
            if status != STATUS_OPTIMAL:
                return finish(status, bound=bound)
            solution = extract_path(best, instance)
            repeats = {v for v in solution.path
                       if solution.path.count(v) > 1}
            if not repeats:
                return finish(STATUS_OPTIMAL, solution, solution.cost)
            for v in sorted(repeats):
                if not critical_bit[v]:
                    critical_bit[v] = 1 << n_critical
                    n_critical += 1
    finally:
        if collecting:
            gc.enable()
