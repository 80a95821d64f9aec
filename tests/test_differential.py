"""Property-based differential test: every solver config against the
exhaustive oracle on random instances of up to 8 nodes, with every
returned schedule replayed and substituted into the integer program.

Edge costs are chord lengths times a factor of at least 1, so the
straight-line heuristic stays admissible and all four configs apply.  The
draws cover startup drain, a battery floor, gliding edges, clamping at
the battery cap, noise-restricted edges and, through small integer
coordinates, many equal-cost alternatives.  The revisit trap is pinned as
an explicit example so a critical-node round with masked labels is always
exercised, and the fuel trap so that a dominance check ignoring fuel
fails under both selection methods.  A second property stops every config
at a random label limit: a ``limit`` bound must not exceed the optimum,
and any other result must match the oracle.  A third draws instances
where fuel decides (a tight battery cap that wastes clamped recharge,
little fuel, many noise-restricted edges), so that the solver's fuel
handling is held to the oracle on random draws, not only on the trap.
A fourth draws the fuel trap's shape with random resources, so that a
closed-label staircase that ignores fuel meets the case it gets wrong.
"""

import dataclasses
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hybridpath.instance import EdgeParams, Instance, check_solution
from hybridpath.labeling import SolverConfig, solve
from hybridpath.verify import (assignment_from_solution, build_milp,
                               check_substitution, oracle_solve)
from conftest import make_fuel_trap, make_revisit_trap

CONFIGS = [SolverConfig(selection=sel, heuristic=heur)
           for sel in ("label", "node") for heur in ("sup", "sld")]


@st.composite
def instances(draw):
    n = draw(st.integers(3, 8))
    dim = draw(st.sampled_from((2, 3)))
    coords = draw(st.lists(st.tuples(*[st.integers(0, 4)] * dim),
                           min_size=n, max_size=n, unique=True))
    nodes = tuple(tuple(float(x) for x in c) for c in coords)
    goal = max(range(1, n), key=lambda i: math.dist(nodes[0], nodes[i]))
    # a random start-to-goal chain keeps most draws connected
    middle = draw(st.permutations([i for i in range(1, n) if i != goal]))
    chain = [0] + middle[:draw(st.integers(1, n - 2))] + [goal]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = set(zip(chain, chain[1:])) | set(draw(st.lists(
        st.sampled_from(pairs), max_size=2 * n, unique=True)))
    edges = []
    for u, v in sorted(chosen):
        d = math.dist(nodes[u], nodes[v]) * draw(
            st.sampled_from((1.0, 1.0, 1.5, 2.0)))
        if draw(st.integers(0, 4)) == 0:
            edges.append(EdgeParams(u, v, d, 0, draw(st.integers(0, 6)),
                                    True, True))
            continue
        noisy = draw(st.integers(0, 3)) == 0
        edges.append(EdgeParams(u, v, d, draw(st.integers(1, 5)),
                                draw(st.integers(0, 6)), not noisy))
    bmin = draw(st.integers(0, 2))
    bmax = draw(st.integers(bmin + 2, bmin + 10))
    return Instance(nodes=nodes, edges=tuple(edges), start=0, goal=goal,
                    b0=max(bmin, bmax - draw(st.integers(0, 3))),
                    bmin=bmin, bmax=bmax,
                    q0=draw(st.integers(0, 40)), v=draw(st.integers(0, 3)),
                    quantization=1.0)


@settings(max_examples=1500, derandomize=True, database=None,
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances())
@example(make_revisit_trap())
@example(make_fuel_trap())
def test_all_configs_match_oracle(inst):
    oracle = oracle_solve(inst)
    model = build_milp(inst) if oracle.solution is not None else None
    for config in CONFIGS:
        res = solve(inst, config)
        assert res.status == oracle.status, config
        if model is None:
            continue
        assert res.solution.cost == oracle.cost, config
        assert check_solution(inst, res.solution) is None, config
        assignment = assignment_from_solution(inst, res.solution)
        assert check_substitution(model, assignment) == [], config


@st.composite
def fuel_instances(draw):
    """Instances where fuel decides: a route through every node, a tight
    battery cap that clamps large recharges (burning fuel for nothing),
    little fuel, and many noise-restricted edges where the generator
    cannot run."""
    n = draw(st.integers(5, 8))
    coords = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=n, max_size=n, unique=True))
    nodes = tuple(tuple(float(x) for x in c) for c in coords)
    goal = max(range(1, n), key=lambda i: math.dist(nodes[0], nodes[i]))
    middle = draw(st.permutations([i for i in range(1, n) if i != goal]))
    route = [0] + middle + [goal]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = set(zip(route, route[1:])) | set(draw(st.lists(
        st.sampled_from(pairs), max_size=2 * n, unique=True)))
    edges = []
    for u, v in sorted(chosen):
        d = math.dist(nodes[u], nodes[v]) * draw(st.sampled_from((1.0, 1.5)))
        noisy = draw(st.booleans())
        edges.append(EdgeParams(u, v, d, draw(st.integers(1, 4)),
                                draw(st.integers(3, 10)), not noisy))
    bmax = draw(st.integers(4, 8))
    return Instance(nodes=nodes, edges=tuple(edges), start=0, goal=goal,
                    b0=bmax, bmin=0, bmax=bmax,
                    q0=draw(st.integers(2, 10)), v=draw(st.integers(0, 2)),
                    quantization=1.0)


@settings(max_examples=400, derandomize=True, database=None,
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuel_instances())
def test_fuel_bound_instances_match_oracle(inst):
    oracle = oracle_solve(inst)
    for config in CONFIGS:
        res = solve(inst, config)
        assert res.status == oracle.status, config
        if oracle.solution is not None:
            assert res.solution.cost == oracle.cost, config
            assert check_solution(inst, res.solution) is None, config


@settings(max_examples=500, derandomize=True, database=None,
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances(), st.integers(1, 40))
def test_limit_bound_never_exceeds_oracle(inst, max_labels):
    # a limit result's bound is a sum of floats taken in another order
    # than the optimum's exactly rounded cost, hence the tolerance
    oracle = oracle_solve(inst)
    for config in CONFIGS:
        res = solve(inst, dataclasses.replace(config, max_labels=max_labels))
        if res.status == "limit":
            if oracle.solution is not None:
                assert res.lower_bound <= oracle.cost + 1e-9, config
            continue
        assert res.status == oracle.status, config
        if oracle.solution is not None:
            assert res.solution.cost == oracle.cost, config


@st.composite
def fuel_trap_instances(draw):
    """The fuel trap (``conftest.make_fuel_trap``) with drawn costs and
    resources: a cheap approach 0-1 whose generator recharge clamps at
    bmax, a dearer noisy detour 0-4-1 that keeps the fuel, then a
    fuel-hungry finish 1-2 and a noisy 2-3 that wants the battery full.
    Under label selection the approach's label closes at node 1 before
    the detour's arrives there with less battery and more fuel."""
    bmax = draw(st.integers(4, 12))
    approach_c = draw(st.integers(1, 4))
    approach_z = draw(st.integers(approach_c + 1, approach_c + 8))
    leg = st.sampled_from((1.0, 1.5))
    edges = (
        EdgeParams(0, 1, draw(leg), approach_c, approach_z),
        EdgeParams(0, 4, draw(leg), draw(st.integers(0, 2)), 0, False),
        EdgeParams(4, 1, draw(leg), draw(st.integers(0, 2)), 0, False),
        EdgeParams(1, 2, 1.0, draw(st.integers(2, bmax)),
                   draw(st.integers(2, 12))),
        EdgeParams(2, 3, 1.0, draw(st.integers(bmax - 3, bmax)), 0, False),
    )
    return Instance(
        nodes=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (0.5, 0.0)),
        edges=edges, start=0, goal=3, b0=bmax - draw(st.integers(0, 2)),
        bmin=0, bmax=bmax, q0=draw(st.integers(2, 12)),
        v=draw(st.integers(0, 2)), quantization=1.0)


@settings(max_examples=300, derandomize=True, database=None,
          deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuel_trap_instances())
def test_fuel_trap_shape_matches_oracle(inst):
    oracle = oracle_solve(inst)
    for config in CONFIGS:
        res = solve(inst, config)
        assert res.status == oracle.status, config
        if oracle.solution is not None:
            assert res.solution.cost == oracle.cost, config
            assert check_solution(inst, res.solution) is None, config
