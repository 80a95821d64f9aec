"""Shared fixtures: hand-built instances with hand-checked optima.

The acceptance tests in test_acceptance.py register one summary line per
criterion; they are printed as a block after the pytest summary so the
pass/fail record survives output capturing.
"""

import pathlib

import pytest

from hybridpath.instance import EdgeParams, Instance, load

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# five_node.json ground truth, frozen from the exhaustive oracle: the cheap
# route 0-1-2-4 (cost 3.6) dies on the c=7 noise edge, so the optimum runs
# the generator up the 0-3 edge and finishes at cost 4.2.
FIVE_NODE_COST = 4.2
FIVE_NODE_PATH = (0, 3, 4)
FIVE_NODE_SUP_LB = 3.6
FIVE_NODE_ENUMERATED = 4


@pytest.fixture(scope="session")
def five_node():
    return load(FIXTURES / "five_node.json")


def make_triangle():
    """Direct edge S->T (d=10, c=10) vs detour S->a->T (d=12, drain 6).

    With b0 = bmax = 8 and no fuel the direct edge is battery-infeasible,
    so the optimum is the detour at cost 12 (hand-enumerated: two paths,
    all-off schedules only since q0 = 0).
    """
    return Instance(
        nodes=((0.0, 0.0), (5.0, 1.0), (10.0, 0.0)),
        edges=(
            EdgeParams(0, 2, 10.0, 10, 0),
            EdgeParams(0, 1, 6.0, 3, 0),
            EdgeParams(1, 2, 6.0, 3, 0),
        ),
        start=0, goal=2, b0=8, bmin=0, bmax=8, q0=0, v=0,
        quantization=1.0)


TRIANGLE_COST = 12.0


@pytest.fixture
def triangle():
    return make_triangle()


def make_revisit_trap():
    """A cheap gliding detour 0-1-2 resource-dominates the direct 0-2
    label while visiting node 1, yet the only feasible finish is 0-2-1-3,
    which needs node 1 after node 2.  Pruning on resources alone returns
    infeasible; the true optimum costs 0.5 (hand-enumerated)."""
    return Instance(
        nodes=((0.0, 0.0), (0.001, 0.0), (0.002, 0.0), (0.003, 0.0)),
        edges=(
            EdgeParams(0, 1, 0.1, 0, 0, True, True),
            EdgeParams(1, 2, 0.1, 0, 100, True, True),
            EdgeParams(0, 2, 0.3, 0, 0, True, True),
            EdgeParams(2, 1, 0.1, 0, 100, True, True),
            EdgeParams(1, 3, 0.1, 50, 0, False, False),
        ),
        start=0, goal=3, b0=10, bmin=0, bmax=110, q0=100, v=0,
        quantization=1.0)


REVISIT_TRAP_COST = 0.5


@pytest.fixture
def revisit_trap():
    return make_revisit_trap()


def make_sld_trap():
    """The route 0-1-2 costs 2 where its chords are 20 and 22.4, so the
    straight-line estimate over-estimates at node 1; trusting it would
    report the direct edge (cost 10) as optimal.  No resource binds."""
    return Instance(
        nodes=((0.0, 0.0), (0.0, 20.0), (10.0, 0.0)),
        edges=(
            EdgeParams(0, 1, 1.0, 0, 0),
            EdgeParams(1, 2, 1.0, 0, 0),
            EdgeParams(0, 2, 10.0, 0, 0),
        ),
        start=0, goal=2, b0=0, bmin=0, bmax=0, q0=0, v=0,
        quantization=1.0)


SLD_TRAP_COST = 2.0


def make_chain(n_edges, last_drain=0):
    """The single path 0-1-...-n_edges of unit-cost edges that neither
    drain nor recharge, so every edge before the last takes the
    generator on or off.  With b0 = bmax = 5, a ``last_drain`` above 5
    makes the goal unreachable only after all 2^(n_edges - 1) schedules
    of the edges before it have been walked."""
    edges = [EdgeParams(i, i + 1, 1.0, 0, 0) for i in range(n_edges - 1)]
    edges.append(EdgeParams(n_edges - 1, n_edges, 1.0, last_drain, 0))
    return Instance(
        nodes=tuple((float(i), 0.0) for i in range(n_edges + 1)),
        edges=tuple(edges), start=0, goal=n_edges, b0=5, bmin=0, bmax=5,
        q0=5, v=0, quantization=1.0)


def make_fuel_trap():
    """Fuel decides dominance.  Running the generator up 0-1 reaches node
    1 at cost 1 with a full battery (10, clamped) but only 6 fuel; the
    noisy detour 0-4-1 arrives at cost 2 with battery 8 and all 10 fuel.
    The finish 1-2-3 needs the generator to burn 10 fuel on 1-2 (drain
    8), then a full battery for the noisy 2-3 (drain 10), so only the
    detour label completes.  A dominance check that ignores fuel lets the
    cheaper label discard it and reports infeasible; the optimum is
    (0, 4, 1, 2, 3) at cost 4 (hand-enumerated)."""
    return Instance(
        nodes=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (0.5, 0.0)),
        edges=(
            EdgeParams(0, 1, 1.0, 3, 4),
            EdgeParams(0, 4, 1.0, 1, 0, False),
            EdgeParams(4, 1, 1.0, 1, 0, False),
            EdgeParams(1, 2, 1.0, 8, 10),
            EdgeParams(2, 3, 1.0, 10, 0, False),
        ),
        start=0, goal=3, b0=10, bmin=0, bmax=10, q0=10, v=0,
        quantization=1.0)


FUEL_TRAP_COST = 4.0
FUEL_TRAP_PATH = (0, 4, 1, 2, 3)


# ---------------------------------------------------------------------------
# acceptance summary block
# ---------------------------------------------------------------------------

ACCEPTANCE_LINES = []


def record_criterion(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {number:2d} ({name}): {status} — {detail}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
