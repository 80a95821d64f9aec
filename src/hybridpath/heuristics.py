"""Admissible cost-to-go estimates used to order the label search.

Three tables are provided: straight-line distance to the goal (``sld``),
the shortest unconstrained path cost to the goal (``sup``, the tightest
admissible estimate and a global lower bound on any feasible plan), and
the all-zeros baseline (``zero``).  ``sup_path`` runs the ``sup`` sweep
once and returns the start -> goal path it implies, with its cost and the
table; an unreachable goal is part of that result (no path, cost +inf),
not an error.

``drain_to_goal`` runs the same reverse Dijkstra over the drain ``c``
instead of the cost ``d``: E(v), the least total drain of any v -> goal
path.  It is no cost estimate but a resource bound: ``labeling.solve``
computes it once per call and drops every label whose battery plus fuel
falls short of bmin + E(v).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Tuple

from .instance import Instance, path_cost

KIND_SLD = "sld"
KIND_SUP = "sup"
KIND_ZERO = "zero"

INF = math.inf


@dataclass(frozen=True)
class HeuristicTable:
    """Per-node cost-to-go estimates; h[goal] = 0, unreachable nodes +inf.

    ``admissible`` records, for SLD, whether every edge cost is at least
    the Euclidean distance between its endpoints (the condition under
    which SLD never over-estimates); SUP and ZERO are admissible by
    construction.  ``labeling.solve`` rejects a table that is not.
    """

    kind: str
    h: Tuple[float, ...]
    admissible: bool = True


@dataclass(frozen=True)
class PathResult:
    """An unconstrained shortest path (no schedule, no resource traces)
    and the ``sup`` table of the sweep that found it.  When the goal is
    unreachable from start, ``path`` is () and ``cost`` is +inf."""

    path: Tuple[int, ...]
    cost: float
    table: HeuristicTable


def sld_table(instance: Instance) -> HeuristicTable:
    """Straight-line (Euclidean) distance from every node to the goal."""
    goal = instance.nodes[instance.goal]
    h = tuple(math.dist(coord, goal) for coord in instance.nodes)
    # SLD is admissible when no edge is cheaper than its chord.
    ok = all(
        e.d >= math.dist(instance.nodes[e.u], instance.nodes[e.v])
        for e in instance.edges
    )
    return HeuristicTable(kind=KIND_SLD, h=h, admissible=ok)


def zero_table(instance: Instance) -> HeuristicTable:
    return HeuristicTable(kind=KIND_ZERO, h=(0.0,) * instance.n_nodes)


def _reverse_sweep(instance: Instance,
                   drain: bool) -> Tuple[List[float], List[int]]:
    """Least total edge weight, cost ``d`` or with ``drain`` the drain
    ``c``, from every node to the goal over reversed edges; returns
    (dist, next_hop).

    ``next_hop[u]`` is the successor of u on a least-weight u -> goal
    path (-1 when unreachable or u is the goal).
    """
    n = instance.n_nodes
    into: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for e in instance.edges:
        into[e.v].append((e.u, e.c if drain else e.d))
    dist = [INF] * n
    next_hop = [-1] * n
    dist[instance.goal] = 0.0
    heap = [(0.0, instance.goal)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for w, d in into[u]:
            alt = du + d
            if alt < dist[w]:
                dist[w] = alt
                next_hop[w] = u
                heapq.heappush(heap, (alt, w))
    return dist, next_hop


def drain_to_goal(instance: Instance) -> List[float]:
    """E(v): the least total drain ``c`` of any v -> goal path, +inf when
    the goal is unreachable.  Every edge lowers battery plus fuel by at
    least its drain, so a label at v needs b + q >= bmin + E(v) to reach
    the goal (``labeling`` prunes on it)."""
    return _reverse_sweep(instance, True)[0]


def sup_table(instance: Instance) -> HeuristicTable:
    """Shortest unconstrained path cost to the goal, for every node.

    One reverse sweep from the goal yields all values at once; they equal
    the per-node shortest-path costs with every resource and noise
    constraint dropped.
    """
    dist, _ = _reverse_sweep(instance, False)
    return HeuristicTable(kind=KIND_SUP, h=tuple(dist))


def sup_path(instance: Instance) -> PathResult:
    """The unconstrained shortest start -> goal path, its cost and the
    ``sup`` table, all from one reverse Dijkstra.

    The cost is the exact-rounded sum over the path's edges, so it is the
    canonical lower-bound value to compare solver costs against.  The
    table depends on the edges alone, so it also serves every instance
    that differs from this one only in its resources.  When the goal is
    unreachable the path is () and the cost +inf; the table is still the
    sweep's (+inf at start).
    """
    dist, next_hop = _reverse_sweep(instance, False)
    table = HeuristicTable(kind=KIND_SUP, h=tuple(dist))
    if dist[instance.start] == INF:
        return PathResult(path=(), cost=INF, table=table)
    path = [instance.start]
    while path[-1] != instance.goal:
        path.append(next_hop[path[-1]])
    path_t = tuple(path)
    return PathResult(path=path_t, cost=path_cost(instance, path_t),
                      table=table)


def make_table(instance: Instance, kind: str) -> HeuristicTable:
    if kind == KIND_SLD:
        return sld_table(instance)
    if kind == KIND_SUP:
        return sup_table(instance)
    if kind == KIND_ZERO:
        return zero_table(instance)
    raise ValueError(f"unknown heuristic kind {kind!r}")
