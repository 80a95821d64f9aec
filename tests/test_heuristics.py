"""Cost-to-go tables: straight-line, shortest unconstrained path, zero."""

import math
import warnings

import pytest

from hybridpath.generators import GenSpec, generate
from hybridpath.heuristics import (make_table, sld_table, sup_path,
                                   sup_table, zero_table)
from hybridpath.instance import EdgeParams, Instance
from hybridpath.labeling import SolverConfig, solve


def line_graph():
    """S - a - T with costs 1 and 2."""
    return Instance(nodes=((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)),
                    edges=(EdgeParams(0, 1, 1.0, 0, 0),
                           EdgeParams(1, 2, 2.0, 0, 0)),
                    start=0, goal=2, b0=1, bmin=0, bmax=1, q0=0, v=0,
                    quantization=1.0)


@pytest.fixture(scope="module")
def euclid():
    return generate(GenSpec(n_nodes=100, seed=5))


class TestSld:
    def test_three_four_five(self):
        inst = Instance(nodes=((0.0, 0.0), (3.0, 4.0)),
                        edges=(EdgeParams(0, 1, 5.0, 0, 0),),
                        start=0, goal=1, b0=1, bmin=0, bmax=1, q0=0, v=0,
                        quantization=1.0)
        table = sld_table(inst)
        assert table.h[0] == 5.0
        assert table.h[1] == 0.0
        assert table.admissible

    def test_goal_is_zero(self, euclid):
        assert sld_table(euclid).h[euclid.goal] == 0.0

    def test_at_most_sup_on_euclidean(self, euclid):
        sld = sld_table(euclid).h
        sup = sup_table(euclid).h
        assert all(s <= u + 1e-12 for s, u in zip(sld, sup))

    def test_flags_non_euclidean_costs(self):
        # an edge cheaper than the chord makes straight-line estimates
        # unsafe; the table says so
        inst = Instance(nodes=((0.0, 0.0), (10.0, 0.0)),
                        edges=(EdgeParams(0, 1, 1.0, 0, 0),),
                        start=0, goal=1, b0=1, bmin=0, bmax=1, q0=0, v=0,
                        quantization=1.0)
        assert not sld_table(inst).admissible

    def test_edge_a_hair_under_its_chord_is_inadmissible(self):
        # u->V is 4e-10 under its chord of 1, so h(u) = 2 exceeds the
        # cost 2 - 4e-10 of u's only route; trusting sld returns the
        # dearer route (0, 2, 3) as optimal
        inst = Instance(nodes=((0.0, -1.0), (0.0, 0.0), (1.0, 0.0),
                               (2.0, 0.0)),
                        edges=(EdgeParams(0, 1, 1.0, 1, 0),
                               EdgeParams(1, 2, 1.0 - 4e-10, 1, 0),
                               EdgeParams(0, 2, 2.0 - 2e-10, 0, 0),
                               EdgeParams(2, 3, 1.0, 1, 0)),
                        start=0, goal=3, b0=10, bmin=0, bmax=10, q0=0, v=0,
                        quantization=1.0)
        assert not sld_table(inst).admissible
        for selection in ("label", "node"):
            with pytest.raises(ValueError, match="inadmissible"):
                solve(inst, SolverConfig(selection=selection,
                                         heuristic="sld"))
        res = solve(inst)
        assert res.solution.path == (0, 1, 2, 3)
        assert res.solution.cost == pytest.approx(3.0 - 4e-10, abs=1e-12)


class TestSup:
    def test_line_graph(self):
        table = sup_table(line_graph())
        assert list(table.h) == [3.0, 2.0, 0.0]

    def test_unreachable_is_inf(self):
        inst = Instance(nodes=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                        edges=(EdgeParams(0, 2, 2.0, 0, 0),),
                        start=0, goal=2, b0=1, bmin=0, bmax=1, q0=0, v=0,
                        quantization=1.0)
        assert sup_table(inst).h[1] == math.inf

    def test_consistent_over_edges(self, euclid):
        h = sup_table(euclid).h
        for e in euclid.edges:
            assert h[e.u] <= e.d + h[e.v] + 1e-12

    def test_admissible_flag(self, euclid):
        assert sup_table(euclid).admissible


class TestSupPath:
    def test_line_graph(self):
        result = sup_path(line_graph())
        assert result.path == (0, 1, 2)
        assert result.cost == 3.0

    def test_matches_table_at_start(self, euclid):
        assert sup_path(euclid).cost == pytest.approx(
            sup_table(euclid).h[euclid.start], abs=1e-12)

    def test_table_is_sup_table(self, euclid):
        lattice = generate(GenSpec(n_nodes=27, family="lattice", dim=3,
                                   seed=1, b_frac=0.7))
        for inst in (line_graph(), euclid, lattice):
            assert sup_path(inst).table == sup_table(inst)

    def test_no_route_raises(self):
        inst = Instance(nodes=((0.0, 0.0), (1.0, 0.0)),
                        edges=(EdgeParams(1, 0, 1.0, 0, 0),),
                        start=0, goal=1, b0=1, bmin=0, bmax=1, q0=0, v=0,
                        quantization=1.0)
        with pytest.raises(ValueError, match="unreachable"):
            sup_path(inst)

    def test_lower_bounds_oracle(self):
        from hybridpath.verify import oracle_solve
        for seed in range(10):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inst = generate(GenSpec(n_nodes=8, k_neighbors=3, seed=seed,
                                        b_frac=0.7))
            oracle = oracle_solve(inst)
            if oracle.solution is not None:
                assert sup_path(inst).cost <= oracle.cost + 1e-12


class TestZeroAndFactory:
    def test_zero(self, euclid):
        table = zero_table(euclid)
        assert set(table.h) == {0.0}
        assert table.admissible

    def test_make_table_kinds(self, euclid):
        for kind in ("sld", "sup", "zero"):
            assert make_table(euclid, kind).kind == kind

    def test_unknown_kind(self, euclid):
        with pytest.raises(ValueError):
            make_table(euclid, "manhattan")
