"""Output checks made apart from the solver.

Nothing here calls the package's search, replay or bound code: the
resource rule, the path cost and the unconstrained lower bound are
computed again from the instance's edge list.  Each check returns a list
of problems, empty when the output is right.
"""

from __future__ import annotations

import heapq
import math

REL_TOL = 1e-9


def edge_index(inst):
    return {(e.u, e.v): e for e in inst.edges}


def shortest_cost(inst):
    """Unconstrained start-to-goal shortest path cost (forward Dijkstra
    over every edge, all resource and noise rules dropped)."""
    adj = [[] for _ in range(inst.n_nodes)]
    for e in inst.edges:
        adj[e.u].append((e.v, e.d))
    dist = [math.inf] * inst.n_nodes
    dist[inst.start] = 0.0
    heap = [(0.0, inst.start)]
    while heap:
        du, u = heapq.heappop(heap)
        if u == inst.goal:
            return du
        if du > dist[u]:
            continue
        for v, d in adj[u]:
            if du + d < dist[v]:
                dist[v] = du + d
                heapq.heappush(heap, (du + d, v))
    return math.inf


def replay(inst, edges, path, gen):
    """Battery and fuel after each node of ``path`` flown with generator
    schedule ``gen``; returns (battery, fuel, problem or None).

    Per edge: the generator may not run on a noise-restricted edge; the
    drain, plus the startup cost when the generator switches off -> on
    (it is off at the start), must leave the battery at bmin or above
    before any recharge is credited; the recharge is clamped at bmax; the
    fuel spent equals the recharge and may not go below zero."""
    b, q, running = inst.b0, inst.q0, False
    battery, fuel = [b], [q]
    for (u, v), on in zip(zip(path, path[1:]), gen):
        e = edges.get((u, v))
        if e is None:
            return battery, fuel, f"no edge {u}->{v}"
        if on and not e.gen_allowed:
            return battery, fuel, f"generator on noise edge {u}->{v}"
        b -= e.c + (inst.v if on and not running else 0)
        if b < inst.bmin:
            return battery, fuel, f"battery below bmin on {u}->{v}"
        if on:
            b = min(b + e.z, inst.bmax)
            q -= e.z
            if q < 0:
                return battery, fuel, f"fuel below zero on {u}->{v}"
        running = bool(on)
        battery.append(b)
        fuel.append(q)
    return battery, fuel, None


def check_path(inst, path, gen, cost, battery=None, fuel=None, edges=None,
               bound=None):
    """A reported plan: a simple start-to-goal path whose schedule replays,
    whose traces (when given) match the replay, whose cost is the exact
    ``math.fsum`` of its edge costs and at or above the unconstrained
    shortest path cost ``bound``."""
    edges = edges or edge_index(inst)
    problems = []
    if len(path) < 2 or path[0] != inst.start or path[-1] != inst.goal:
        problems.append(f"path does not run from {inst.start} to {inst.goal}")
    if len(set(path)) != len(path):
        problems.append("path repeats a node")
    if len(gen) != len(path) - 1:
        return problems + ["schedule length differs from path"]
    b, q, problem = replay(inst, edges, path, gen)
    if problem is not None:
        return problems + [problem]
    if battery is not None and (list(battery) != b or list(fuel) != q):
        problems.append("reported battery/fuel traces differ from replay")
    exact = math.fsum(edges[(u, v)].d for u, v in zip(path, path[1:]))
    if cost != exact:
        problems.append(f"cost {cost!r} != fsum of edges {exact!r}")
    if bound is None:
        bound = shortest_cost(inst)
    if cost < bound * (1 - REL_TOL):
        problems.append(f"cost {cost!r} below shortest path bound {bound!r}")
    return problems


def check_solution(inst, solution, **kw):
    return check_path(inst, solution.path, solution.gen, solution.cost,
                      solution.battery, solution.fuel, **kw)


def same_costs(tag, costs):
    """Every configuration run on one instance must report one cost."""
    distinct = set(costs)
    if len(distinct) != 1:
        return [f"{tag}: configurations disagree on cost {sorted(distinct)}"]
    return []


def rows_hold(model, assignment):
    """Names of MILP rows and bounds violated by an exact integer
    assignment (missing variables read as 0)."""
    bad = []
    for row in model.rows:
        lhs = sum(coef * assignment.get(name, 0) for name, coef in row.coeffs)
        if not {"<=": lhs <= row.rhs, ">=": lhs >= row.rhs,
                "=": lhs == row.rhs}[row.sense]:
            bad.append(row.name)
    for name, lo, hi in model.bounds:
        value = assignment.get(name, 0)
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            bad.append(name)
    return bad


def milp_objective(model, assignment):
    return math.fsum(coef * assignment.get(name, 0.0)
                     for name, coef in model.objective)
