"""Label search: dominance, extension, selection, and exact solving."""

import dataclasses
import itertools
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridpath.generators import GenSpec, generate
from hybridpath.heuristics import make_table
from hybridpath.instance import (EdgeParams, Instance, check_solution, load,
                                 replay, validate)
from hybridpath.labeling import (Label, OpenList, SolverConfig, extract_path,
                                 solve)
from conftest import (FIXTURES, FUEL_TRAP_COST, FUEL_TRAP_PATH,
                      REVISIT_TRAP_COST, SLD_TRAP_COST, TRIANGLE_COST,
                      FIVE_NODE_COST, FIVE_NODE_PATH, make_fuel_trap,
                      make_revisit_trap, make_sld_trap)

def make_dead_end():
    """Two nodes; the only edge drains 9 from a battery of 5."""
    return Instance(nodes=((0.0, 0.0), (1.0, 0.0)),
                    edges=(EdgeParams(0, 1, 1.0, 9, 0),),
                    start=0, goal=1, b0=5, bmin=0, bmax=5, q0=3, v=0,
                    quantization=1.0)


ALL_CONFIGS = [SolverConfig(selection=sel, heuristic=heur)
               for sel in ("label", "node")
               for heur in ("sup", "sld", "zero")]


def mklabel(node=0, d=0.0, b=0, q=0, s=False, mask=0):
    return Label(node, d, b, q, s, d, None, mask)


def offer(ol, node=0, d=0.0, b=0, q=0, s=False, mask=0):
    """Offer a state to the open list; True when it is accepted."""
    return ol.insert_candidate(node, d, b, q, s, d, None, mask) is not None


def dominates(a, b):
    """Whether state ``a`` evicts state ``b`` from an open list holding
    only ``b``: the dominance rule as OpenList.insert_candidate applies
    it during a solve."""
    ol = OpenList(1)
    assert offer(ol, **b)
    return offer(ol, **a) and ol.n_open == 1


class TestDominates:
    def test_strictly_better(self):
        assert dominates(dict(d=5, b=10, q=10, s=True),
                         dict(d=6, b=9, q=9, s=False))

    def test_incomparable_both_ways(self):
        a = dict(d=5, b=10, q=10)
        b = dict(d=4, b=12, q=8)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_all_equal_is_equivalent_not_dominating(self):
        a = dict(d=5, b=10, q=10, s=True)
        b = dict(d=5, b=10, q=10, s=True)
        assert not dominates(a, b)

    def test_on_beats_off_at_equal_resources(self):
        assert dominates(dict(d=5, b=10, q=10, s=True),
                         dict(d=5, b=10, q=10, s=False))
        assert not dominates(dict(d=5, b=10, q=10, s=False),
                             dict(d=5, b=10, q=10, s=True))

    def test_visited_superset_blocks_dominance(self):
        # a label that has passed through more restricted nodes cannot
        # stand in for one that kept them available
        a = dict(d=5, b=10, q=10, mask=0b11)
        b = dict(d=6, b=9, q=9, mask=0b01)
        assert not dominates(a, b)
        assert dominates(dict(d=5, b=10, q=10, mask=0b01),
                         dict(d=6, b=9, q=9, mask=0b11))


def chain_instance(edges, **kw):
    """A start-to-goal chain with one unit-cost edge per (c, z, allowed,
    gliding) tuple in ``edges``."""
    params = dict(nodes=tuple((0.1 * i, 0.0) for i in range(len(edges) + 1)),
                  edges=tuple(EdgeParams(i, i + 1, 1.0, *e)
                              for i, e in enumerate(edges)),
                  start=0, goal=len(edges), b0=8, bmin=0, bmax=20, q0=12,
                  v=2, quantization=1.0)
    params.update(kw)
    return Instance(**params)


SINGLE_EDGE_GRID = [
    dict(edges=((c, z, not noisy, glide),), v=v, b0=b0, bmax=bmax, q0=q0)
    for v, (c, glide), z, b0, bmax, q0, noisy in itertools.product(
        (0, 2), ((0, False), (0, True), (3, False)), (0, 2, 5), (2, 9),
        (9, 10), (0, 4), (False, True))]

TWO_EDGE_GRID = [
    dict(edges=((1, 2, True, False),) * 2, v=v, b0=b0, bmax=bmax, q0=q0)
    for v, b0, q0, bmax in itertools.product(
        (0, 2, 3), (3, 6, 9), (4, 10), (6, 9)) if b0 <= bmax]


class TestExtend:
    """The search loop's inline extension rule, against hand-computed
    states and against ``replay``: on each chain every schedule costs the
    same, so the solver's tie-breaks (larger battery, then larger fuel)
    must return the feasible schedule with the largest goal (battery,
    fuel)."""

    @staticmethod
    def check(inst, selection):
        """Solve ``inst`` and hold the answer to ``replay``; returns the
        solution, None when infeasible."""
        assert validate(inst) == []
        path = tuple(range(inst.n_nodes))
        finals = []
        for gen in itertools.product((False, True), repeat=len(inst.edges)):
            battery, fuel, violation = replay(inst, path, gen)
            if violation is None:
                finals.append((battery[-1], fuel[-1]))
        res = solve(inst, SolverConfig(selection=selection, heuristic="zero"))
        if not finals:
            assert res.status == "infeasible"
            return None
        assert res.status == "optimal"
        sol = res.solution
        battery, fuel, violation = replay(inst, sol.path, sol.gen)
        assert violation is None
        assert (sol.battery, sol.fuel) == (tuple(battery), tuple(fuel))
        assert (sol.battery[-1], sol.fuel[-1]) == max(finals)
        return sol

    def answer(self, edges, **kw):
        """(gen, battery, fuel) of the solver's answer on a chain, the
        same under label and node selection; None when infeasible."""
        inst = chain_instance(edges, **kw)
        answers = {sol and (sol.gen, sol.battery, sol.fuel)
                   for sol in (self.check(inst, "label"),
                               self.check(inst, "node"))}
        assert len(answers) == 1
        return answers.pop()

    def test_gen_on_pays_startup_and_recharges(self):
        # 8 - 3 - 2 (startup) + 5 = 8 beats gen-off's 8 - 3 = 5
        assert self.answer(((3, 5, True, False),)) == (
            (True,), (8, 8), (12, 7))

    def test_gen_off(self):
        # gen-on would end at 8 - 3 - 2 = 3
        assert self.answer(((3, 0, True, False),)) == (
            (False,), (8, 5), (12, 12))

    def test_no_startup_when_already_on(self):
        # on-on: 5 - 1 - 2 + 3 = 5, then 5 - 1 + 3 = 7 with no second
        # startup; every other schedule ends with less battery
        assert self.answer(((1, 3, True, False),) * 2, b0=5, q0=10) == (
            (True, True), (5, 5, 7), (10, 7, 4))

    def test_gliding_recharge_clamps(self):
        glide = ((0, 2, True, True),)
        assert self.answer(glide, b0=5, q0=3, v=0) == (
            (True,), (5, 7), (3, 1))
        assert self.answer(glide, b0=5, q0=3, v=0, bmax=6) == (
            (True,), (5, 6), (3, 1))

    def test_noise_restriction(self):
        assert self.answer(((3, 5, False, False),)) == (
            (False,), (8, 5), (12, 12))

    def test_pre_recharge_dip_infeasible(self):
        # drain + startup exhaust the battery before the recharge lands:
        # 4 - 3 - 2 < 0 although the recharge would bring it back to 4
        assert self.answer(((3, 5, True, False),), b0=4) == (
            (False,), (4, 1), (12, 12))
        # gen-off runs dry, gen-on dips to -3 before reaching 6
        assert self.answer(((5, 9, True, False),), b0=4) is None

    def test_fuel_floor(self):
        assert self.answer(((3, 5, True, False),), q0=4) == (
            (False,), (8, 5), (4, 4))
        assert self.answer(((3, 5, True, False),), q0=5) == (
            (True,), (8, 8), (5, 0))

    def test_matches_solver_arithmetic(self):
        # bmax=10 with b0=9: a recharge of 2 from b=9 lands one unit over
        # the cap and must clamp to it
        for kw in SINGLE_EDGE_GRID:
            inst = chain_instance(**kw)
            self.check(inst, "label")
            self.check(inst, "node")

    @pytest.mark.parametrize("selection", ["label", "node"])
    def test_two_edge_grid(self, selection):
        for kw in TWO_EDGE_GRID:
            self.check(chain_instance(**kw), selection)

    def test_zero_slack_drain_bound(self):
        # b + q starts at 5 + 3 = bmin + the chain's drain 3 + 3: the
        # only feasible schedule recharges on the first edge (dipping to
        # exactly bmin) and lands on b = bmin = 2, q = 0, so the drain
        # bound must keep every label that lies on it
        chain = dict(edges=((3, 3, True, False), (3, 1, True, False)),
                     b0=5, bmin=2, bmax=5, v=0)
        assert self.answer(**chain, q0=3) == (
            (True, False), (5, 5, 2), (3, 0, 0))
        # one unit of fuel less: the start label cannot pay for the trip
        # and is dropped untreated
        inst = chain_instance(**chain, q0=2)
        for config in ALL_CONFIGS:
            res = solve(inst, config)
            assert res.status == "infeasible", config
            assert res.stats.labels_treated == 0, config
            assert res.stats.labels_pruned == 1, config


class TestOpenList:
    def test_insert_and_pop_min(self):
        ol = OpenList(2)
        offer(ol, d=7.0, b=1, q=1)
        offer(ol, d=5.0, b=9, q=1)
        offer(ol, node=1, d=9.0, b=1, q=1)
        n = ol.n_open
        assert ol.pop_min().d == 5.0
        assert ol.n_open == n - 1

    def test_tie_breaks_prefer_battery_then_fuel_then_fifo(self):
        ol = OpenList(1)
        offer(ol, d=5.0, b=3, q=9)
        offer(ol, d=5.0, b=4, q=1)
        assert ol.pop_min().b == 4
        # equal f and b: masks keep the pair incomparable so both stay open
        ol = OpenList(1)
        offer(ol, d=5.0, b=3, q=1, mask=0b01)
        offer(ol, d=5.0, b=3, q=2, mask=0b11)
        assert ol.n_open == 2
        assert ol.pop_min().q == 2
        # full tie across nodes falls back to insertion order
        ol = OpenList(2)
        offer(ol, node=1, d=5.0, b=3, q=1)
        offer(ol, node=0, d=5.0, b=3, q=1)
        assert ol.pop_min().node == 1
        assert ol.pop_min().node == 0

    def test_dominated_candidate_rejected(self):
        ol = OpenList(1)
        assert offer(ol, d=5.0, b=10, q=10)
        assert not offer(ol, d=6.0, b=9, q=9)
        assert ol.pruned == 1

    def test_equivalent_newer_discarded(self):
        ol = OpenList(1)
        assert offer(ol, d=5.0, b=10, q=10)
        assert not offer(ol, d=5.0, b=10, q=10)
        assert ol.n_open == 1

    def test_dominating_candidate_evicts_open(self):
        ol = OpenList(1)
        offer(ol, d=6.0, b=9, q=9)
        assert offer(ol, d=5.0, b=10, q=10)
        assert ol.n_open == 1
        assert ol.pop_min().d == 5.0
        assert ol.pop_min() is None

    def test_closed_labels_still_prune(self):
        ol = OpenList(1)
        offer(ol, d=5.0, b=10, q=10)
        ol.pop_min()  # close it
        assert not offer(ol, d=6.0, b=9, q=9)

    def test_popped_label_rejects_dominated_smaller_cost(self):
        # under label selection with a consistent heuristic no later
        # candidate can have a smaller d, so the closed staircase drops d
        ol = OpenList(1)
        offer(ol, d=5.0, b=10, q=10)
        ol.pop_min()
        assert not offer(ol, d=4.0, b=9, q=10)
        assert ol.pruned == 1
        assert offer(ol, d=4.0, b=11, q=9)

    def test_staircase_generator_bit(self):
        ol = OpenList(1)
        offer(ol, d=5.0, b=10, q=10, s=True)
        ol.pop_min()
        assert not offer(ol, d=6.0, b=10, q=10, s=False)
        ol = OpenList(1)
        offer(ol, d=5.0, b=10, q=10, s=False)
        ol.pop_min()
        assert offer(ol, d=6.0, b=10, q=10, s=True)
        assert not offer(ol, d=6.0, b=10, q=10, s=False)

    def test_staircase_keeps_incomparable_closed_labels(self):
        ol = OpenList(1)
        for b, q in ((10, 1), (1, 10), (6, 6), (5, 5), (6, 7)):
            offer(ol, d=1.0, b=b, q=q)
            ol.pop_min()
        # (5, 5) was closed under (6, 6), and (6, 7) replaced (6, 6)
        for b, q in ((10, 1), (1, 10), (6, 7), (2, 7), (9, 1)):
            assert not offer(ol, d=2.0, b=b, q=q)
        for b, q in ((7, 2), (2, 8), (11, 0), (0, 11)):
            assert offer(ol, d=2.0, b=b, q=q)

    def test_masked_closed_label_still_needs_smaller_cost(self):
        ol = OpenList(1)
        offer(ol, d=5.0, b=10, q=10, mask=0b1)
        ol.pop_min()
        assert offer(ol, d=4.0, b=9, q=9, mask=0b1)
        assert not offer(ol, d=6.0, b=9, q=8, mask=0b1)

    def test_node_selection_closed_label_still_needs_smaller_cost(self):
        ol = OpenList(1)
        offer(ol, d=5.0, b=10, q=10)
        ol.take_node(0)
        assert offer(ol, d=4.0, b=9, q=9)
        assert not offer(ol, d=6.0, b=9, q=8)

    def test_incomparable_coexist(self):
        ol = OpenList(1)
        assert offer(ol, d=5.0, b=10, q=10)
        assert offer(ol, d=4.0, b=12, q=8)
        assert ol.n_open == 2

    def test_counts_accepted_labels(self):
        ol = OpenList(2)
        offer(ol, d=5.0, b=5, q=5)
        offer(ol, d=6.0, b=4, q=4)  # pruned
        offer(ol, d=4.0, b=6, q=6)  # accepted, evicts the first
        offer(ol, node=1, d=1.0)
        assert ol.created == 3
        assert ol.created_per_node == [2, 1]
        assert ol.pruned == 2

    # Labels of one bucket share (d, s, mask) and form a (b, q) staircase;
    # its head has the largest b and the smallest q.

    def test_covered_only_by_non_head_member(self):
        ol = OpenList(1)
        assert offer(ol, d=1.0, b=5, q=1)
        assert offer(ol, d=1.0, b=1, q=5)
        # the head (5, 1) has b >= 1 but q < 4; (1, 5) covers
        assert not offer(ol, d=2.0, b=1, q=4)
        assert ol.pruned == 1
        assert offer(ol, d=2.0, b=2, q=4)

    def test_evicts_middle_run(self):
        ol = OpenList(1)
        for b, q in ((7, 1), (5, 3), (3, 5), (1, 7)):
            assert offer(ol, d=2.0, b=b, q=q)
        assert offer(ol, d=2.0, b=5, q=5)
        assert (ol.n_open, ol.pruned) == (3, 2)
        assert not offer(ol, d=2.0, b=4, q=4)
        assert offer(ol, d=2.0, b=4, q=6)
        assert [(l.b, l.q) for l in ol.take_node(0)] == [
            (7, 1), (5, 5), (4, 6), (1, 7)]

    def test_new_head_replaces_old(self):
        ol = OpenList(1)
        assert offer(ol, d=1.0, b=5, q=1)
        assert offer(ol, d=1.0, b=1, q=5)
        assert offer(ol, d=1.0, b=6, q=0)
        assert not offer(ol, d=1.0, b=6, q=0)
        assert not offer(ol, d=1.5, b=4, q=1)
        # (6, 1) evicts the new head (6, 0) and the old one (5, 1)
        assert offer(ol, d=1.0, b=6, q=1)
        assert (ol.n_open, ol.pruned) == (2, 4)
        assert [(l.b, l.q) for l in ol.take_node(0)] == [(6, 1), (1, 5)]

    def test_eviction_of_head_keeps_rest_of_bucket(self):
        ol = OpenList(1)
        for b, q in ((7, 1), (5, 3), (3, 5)):
            assert offer(ol, d=2.0, b=b, q=q)
        # a cheaper candidate in another bucket evicts the head alone
        assert offer(ol, d=1.0, b=7, q=2)
        assert (ol.n_open, ol.pruned) == (3, 1)
        assert not offer(ol, d=2.0, b=3, q=4)
        assert [(l.b, l.q) for l in ol.take_node(0)] == [
            (7, 2), (5, 3), (3, 5)]

    def test_pop_min_closes_middle_member(self):
        ol = OpenList(1)
        for b, q, f in ((7, 1, 2.0), (5, 3, 1.0), (3, 5, 2.0)):
            ol.insert_candidate(0, 1.0, b, q, False, f, None, 0)
        assert (ol.pop_min().b, ol.n_open) == (5, 2)
        assert not offer(ol, d=1.0, b=4, q=3)  # the closed staircase
        assert not offer(ol, d=1.0, b=6, q=1)  # the head
        assert not offer(ol, d=1.0, b=3, q=4)  # the last member
        assert offer(ol, d=1.0, b=5, q=4)
        assert [ol.pop_min().b for _ in range(3)] == [5, 7, 3]
        assert ol.pop_min() is None and ol.n_open == 0

    def test_take_node_returns_bucket_in_heap_order(self):
        ol = OpenList(1)
        for b, q, f in ((1, 7, 3.0), (7, 1, 4.0), (3, 5, 3.0), (5, 3, 2.0)):
            ol.insert_candidate(0, 1.0, b, q, True, f, None, 0b1)
        ol.insert_candidate(0, 1.0, 9, 9, False, 3.0, None, 0)
        assert [(l.b, l.q, l.f) for l in ol.take_node(0)] == [
            (5, 3, 2.0), (9, 9, 3.0), (3, 5, 3.0), (1, 7, 3.0), (7, 1, 4.0)]
        assert ol.n_open == 0 and ol.peek_min() is None


def _heap_key(label):
    return (label.f, -label.b, -label.q, label.seq)


def _state(label):
    return (label.node, label.d, label.b, label.q, label.s, label.mask,
            label.seq)


class ReferenceOpenList:
    """A brute-force model of OpenList: flat lists of labels and the one
    dominance rule exactly as the ``insert_candidate`` docstring states
    it.  A label ``pop_min`` closes with an empty mask joins its node's
    closed list, tested on (b, q, s) alone; every other label stays
    listed and is tested on (d, b, q, s, mask)."""

    def __init__(self, n_nodes):
        self.listed = [[] for _ in range(n_nodes)]
        self.closed = [[] for _ in range(n_nodes)]
        self.created = 0
        self.created_per_node = [0] * n_nodes
        self.pruned = 0

    @property
    def n_open(self):
        return sum(e.in_open for listed in self.listed for e in listed)

    def insert(self, node, d, b, q, s, f, mask):
        if any(e.b >= b and e.q >= q and e.s >= s
               for e in self.closed[node]) or any(
                e.d <= d and e.b >= b and e.q >= q and e.s >= s
                and e.mask | mask == mask for e in self.listed[node]):
            self.pruned += 1
            return None
        kept = [e for e in self.listed[node]
                if not (d <= e.d and b >= e.b and q >= e.q and s >= e.s
                        and mask | e.mask == e.mask)]
        self.pruned += len(self.listed[node]) - len(kept)
        label = Label(node, d, b, q, s, f, None, mask)
        label.seq = self.created
        label.in_open = True
        self.created += 1
        self.created_per_node[node] += 1
        self.listed[node] = kept + [label]
        return label

    def pop_min(self):
        labels = [e for listed in self.listed for e in listed if e.in_open]
        if not labels:
            return None
        label = min(labels, key=_heap_key)
        label.in_open = False
        if not label.mask:
            self.listed[label.node].remove(label)
            self.closed[label.node].append(label)
        return label

    def take_node(self, node):
        labels = sorted((e for e in self.listed[node] if e.in_open),
                        key=_heap_key)
        for e in labels:
            e.in_open = False
        return labels


@st.composite
def open_list_runs(draw):
    """A node count and a sequence of OpenList operations on it.  Each
    run offers its states under a few (node, d, s, mask) keys, with d
    from three values and masks from {0, 1, 3}, and small b and q, so
    that buckets of several labels form.  Half the states lie near the
    line b + q = 5, as one path's schedules do, which keeps buckets
    long."""
    n = draw(st.integers(1, 3))
    nodes = st.integers(0, n - 1)
    keys = draw(st.lists(
        st.tuples(nodes, st.sampled_from((1.0, 2.0, 3.0)), st.booleans(),
                  st.sampled_from((0, 1, 3))), min_size=1, max_size=5))
    resources = st.one_of(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 5), st.integers(-1, 1)).map(
            lambda bt: (bt[0], 5 - bt[0] + bt[1])))
    insert = st.tuples(st.just("insert"), st.sampled_from(keys), resources,
                       st.integers(0, 2))
    ops = st.one_of(insert, insert, insert, st.just(("pop",)),
                    st.tuples(st.just("take"), nodes))
    return n, draw(st.lists(ops, min_size=20, max_size=80))


class TestOpenListModel:
    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(open_list_runs())
    def test_matches_reference(self, run):
        n, ops = run
        ol, ref = OpenList(n), ReferenceOpenList(n)
        for op in ops:
            if op[0] == "insert":
                _, (node, d, s, mask), (b, q), h = op
                got = ol.insert_candidate(node, d, b, q, s, d + h, None,
                                          mask)
                want = ref.insert(node, d, b, q, s, d + h, mask)
                assert (got is None) == (want is None), op
            elif op[0] == "pop":
                got, want = ol.pop_min(), ref.pop_min()
                assert (got and _state(got)) == (want and _state(want))
            else:
                assert ([_state(l) for l in ol.take_node(op[1])]
                        == [_state(l) for l in ref.take_node(op[1])])
            assert (ol.n_open, ol.pruned, ol.created) == (
                ref.n_open, ref.pruned, ref.created), op
            assert ol.created_per_node == ref.created_per_node


class TestSelection:
    """The solve loop selects with ``pop_min`` under label selection and
    with ``take_node`` of the minimum label's node under node
    selection."""

    def test_select_label_singleton(self):
        ol = OpenList(2)
        offer(ol, d=7.0)
        offer(ol, node=1, d=5.0)
        label = ol.pop_min()
        assert label.node == 1 and label.d == 5.0
        assert ol.n_open == 1

    def test_select_node_returns_all_open_at_min_node(self):
        ol = OpenList(2)
        offer(ol, d=5.0, b=5, q=0)
        offer(ol, d=8.0, b=9, q=0)
        offer(ol, node=1, d=6.0)
        labels = ol.take_node(ol.peek_min().node)
        assert [(l.node, l.d) for l in labels] == [(0, 5.0), (0, 8.0)]
        assert ol.n_open == 1
        assert ol.peek_min().node == 1

    def test_take_node_returns_heap_order(self):
        # the node's list keeps equal-d labels newest first; the batch
        # follows the heap's tie-breaks: larger battery, then insertion
        ol = OpenList(1)
        offer(ol, d=5.0, b=3, q=9, mask=0b01)
        offer(ol, d=5.0, b=4, q=1)
        offer(ol, d=5.0, b=3, q=9, mask=0b10)
        offer(ol, d=4.0, b=1, q=1)
        labels = ol.take_node(0)
        assert [(l.d, l.b, l.mask) for l in labels] == [
            (4.0, 1, 0), (5.0, 4, 0), (5.0, 3, 0b01), (5.0, 3, 0b10)]

    def test_select_node_singleton_matches_select_label(self):
        taken = []
        for take in (lambda ol: [ol.pop_min()],
                     lambda ol: ol.take_node(ol.peek_min().node)):
            ol = OpenList(2)
            offer(ol, node=1, d=3.0)
            taken.append([(l.node, l.d) for l in take(ol)])
            assert ol.n_open == 0 and ol.peek_min() is None
        assert taken == [[(1, 3.0)], [(1, 3.0)]]


class TestSolve:
    def test_triangle_detour(self, triangle):
        for config in ALL_CONFIGS:
            res = solve(triangle, config)
            assert res.status == "optimal"
            assert res.solution.cost == TRIANGLE_COST
            assert res.solution.path == (0, 1, 2)
            assert res.lower_bound == TRIANGLE_COST

    def test_five_node(self, five_node):
        for config in ALL_CONFIGS:
            if config.heuristic == "sld":
                # edge 3->2 costs 1.0 across a chord of sqrt(2)
                with pytest.raises(ValueError, match="inadmissible"):
                    solve(five_node, config)
                continue
            res = solve(five_node, config)
            assert res.solution.cost == FIVE_NODE_COST
            assert res.solution.path == FIVE_NODE_PATH
            assert check_solution(five_node, res.solution) is None

    def test_revisit_trap_needs_second_round(self, revisit_trap):
        for config in ALL_CONFIGS:
            res = solve(revisit_trap, config)
            assert res.status == "optimal"
            assert res.solution.cost == REVISIT_TRAP_COST
            assert res.solution.path == (0, 2, 1, 3)
            assert res.stats.rounds == 2

    def test_fuel_trap_keeps_the_fuller_label(self):
        # the label with more battery and less fuel must not discard the
        # one that can still pay for the recharge on 1-2
        inst = make_fuel_trap()
        for config in ALL_CONFIGS:
            res = solve(inst, config)
            assert res.status == "optimal", config
            assert res.solution.cost == FUEL_TRAP_COST
            assert res.solution.path == FUEL_TRAP_PATH
            assert check_solution(inst, res.solution) is None

    def test_no_fuel_never_burns(self, triangle):
        # q0 = 0: the fuel trace must stay flat whatever the gen bits say
        # (0-drain edges leave the generator bit cost-neutral here)
        res = solve(triangle)
        assert res.solution.fuel == (0, 0, 0)
        assert res.solution.cost == TRIANGLE_COST

    def test_infeasible(self):
        res = solve(make_dead_end())
        assert res.status == "infeasible"
        assert res.solution is None

    def test_start_equals_goal_rejected(self, triangle):
        bad = Instance(nodes=triangle.nodes, edges=triangle.edges,
                       start=0, goal=0, b0=8, bmin=0, bmax=8, q0=0, v=0,
                       quantization=1.0)
        with pytest.raises(ValueError):
            solve(bad)

    def test_label_budget(self, five_node):
        res = solve(five_node, SolverConfig(max_labels=2))
        assert res.status == "limit"
        assert res.lower_bound <= FIVE_NODE_COST

    def test_time_budget(self, five_node):
        res = solve(five_node, SolverConfig(max_seconds=0.0))
        assert res.status == "limit"

    def test_inadmissible_sld_rejected(self):
        inst = make_sld_trap()
        assert solve(inst).solution.cost == SLD_TRAP_COST
        for selection in ("label", "node"):
            with pytest.raises(ValueError, match="inadmissible"):
                solve(inst, SolverConfig(selection=selection,
                                         heuristic="sld"))

    def test_mismatched_table_kind(self, five_node):
        with pytest.raises(ValueError, match="table kind"):
            solve(five_node, SolverConfig(heuristic="sup"),
                  table=make_table(five_node, "zero"))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(selection="both")
        with pytest.raises(ValueError):
            SolverConfig(heuristic="slurp")
        for limits in (dict(max_labels=-3), dict(max_seconds=-1.0),
                       dict(max_seconds=float("nan"))):
            with pytest.raises(ValueError, match="non-negative"):
                SolverConfig(**limits)
        SolverConfig(max_labels=0, max_seconds=float("inf"))  # allowed

    def test_deterministic(self, five_node):
        a = solve(five_node)
        b = solve(five_node)
        assert a.solution == b.solution
        for field in ("labels_created", "labels_treated", "labels_pruned",
                      "peak_open", "rounds", "created_per_node"):
            assert getattr(a.stats, field) == getattr(b.stats, field)

    def test_stats_invariants(self, five_node):
        stats = solve(five_node).stats
        assert stats.labels_treated <= stats.labels_created
        assert stats.labels_created == sum(stats.created_per_node)
        assert stats.peak_open > 0
        assert stats.wall_time > 0


@pytest.fixture(scope="module")
def flock():
    """Small generated instances across the parameter corners; seeds whose
    calibration cannot produce a feasible instance are skipped."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(10):
            # with no fuel the battery alone must cover a whole path, so
            # those seeds need b_frac above 1
            fuel_free = seed % 3 == 0
            spec = GenSpec(n_nodes=9, k_neighbors=3, seed=seed,
                           b_frac=1.3 if fuel_free else 0.8,
                           v_frac=0.04 if seed % 2 else 0.0,
                           q_frac=0.0 if fuel_free else 1.2)
            try:
                out.append(generate(spec))
            except RuntimeError:
                continue
    assert len(out) >= 6
    assert sum(1 for inst in out if inst.q0 == 0) >= 2
    return out


class TestSolveProperties:
    """Cost invariance and counting properties over generated instances."""

    def test_heuristic_invariant_cost(self, flock):
        for inst in flock:
            costs = {heur: solve(inst, SolverConfig(heuristic=heur)).solution.cost
                     for heur in ("sup", "sld", "zero")}
            assert len(set(costs.values())) == 1

    def test_selection_invariant_cost(self, flock):
        for inst in flock:
            a = solve(inst, SolverConfig(selection="label")).solution.cost
            b = solve(inst, SolverConfig(selection="node")).solution.cost
            assert a == b

    def test_sup_never_treats_more_than_zero(self, flock):
        for inst in flock:
            for selection in ("label", "node"):
                sup = solve(inst, SolverConfig(selection=selection,
                                               heuristic="sup"))
                zero = solve(inst, SolverConfig(selection=selection,
                                                heuristic="zero"))
                assert sup.stats.labels_treated <= zero.stats.labels_treated

    def test_no_fuel_reduces_to_gen_off_search(self, flock):
        from hybridpath.verify import oracle_solve
        checked = 0
        for inst in flock:
            if inst.q0 != 0:
                continue
            res = solve(inst)
            oracle = oracle_solve(inst)
            assert res.solution.cost == oracle.cost
            assert all(q == 0 for q in res.solution.fuel)
            checked += 1
        assert checked >= 2


def test_label_selection_matches_node_selection():
    """The closed staircase only acts under label selection; node
    selection keeps every label in the exact lists, so it is the
    reference for the label configs on mid-sized instances."""
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(10):
            spec = GenSpec(n_nodes=(100, 150, 200, 250, 300)[i % 5],
                           family="euclidean", dim=2 + i % 2,
                           k_neighbors=4 + 2 * (i % 3), seed=i,
                           v_frac=0.04 if i % 2 else 0.0)
            inst = generate(spec)
            want = solve(inst, SolverConfig(selection="node")).solution.cost
            for heuristic in ("sup", "sld"):
                res = solve(inst, SolverConfig(heuristic=heuristic))
                assert res.solution.cost == want, (i, heuristic)
                assert check_solution(inst, res.solution) is None
            checked += 1
    assert checked == 10


def make_stranded_batch():
    """S, A, B, C, G = 0..4; no fuel, so only the battery (10) binds.
    Node A is reached twice: straight from S (d=1, battery 2) and via B
    (d=2, battery 8).  Only the second can pay A->G (drain 5), so the
    optimum is S-B-A-G at cost 3.0; B->G is short but drains 100, and the
    first A label can only go on to C at cost 50.  Node selection treats
    both A labels in one batch."""
    edges = ((0, 1, 1.0, 8), (0, 2, 1.0, 1), (2, 4, 0.5, 100),
             (2, 1, 1.0, 1), (1, 4, 1.0, 5), (1, 3, 50.0, 1), (3, 4, 1.0, 0))
    return Instance(
        nodes=((0.0, 0.0), (0.1, 0.1), (0.1, -0.1), (0.2, 0.2), (0.2, 0.0)),
        edges=tuple(EdgeParams(u, v, d, c, 0, False)
                    for u, v, d, c in edges),
        start=0, goal=4, b0=10, bmin=0, bmax=10, q0=0, v=0,
        quantization=1.0)


def test_limit_never_strands_a_batch():
    """Limits are checked between selections, so a label budget that runs
    out while the A batch is treated still lets the batch finish; the
    untreated A label then cannot drop out of the reported bound."""
    inst = make_stranded_batch()
    for config in ALL_CONFIGS:
        res = solve(inst, config)
        assert res.solution.cost == 3.0
        assert res.solution.path == (0, 2, 1, 4)
        for max_labels in range(1, 7):
            res = solve(inst, dataclasses.replace(config,
                                                  max_labels=max_labels))
            assert res.status in ("limit", "optimal")
            if res.status == "limit":
                assert res.lower_bound <= 3.0, (config, max_labels)


PINNED_INSTANCES = {
    "five_node": lambda: load(FIXTURES / "five_node.json"),
    "revisit_trap": make_revisit_trap,
    "fuel_trap": make_fuel_trap,
    "euclid300": lambda: generate(GenSpec(n_nodes=300, seed=0)),
    "lattice216": lambda: generate(GenSpec(n_nodes=216, family="lattice",
                                           dim=3, seed=1)),
    "dead_end": make_dead_end,
}

# (labels_created, labels_treated, labels_pruned, peak_open, rounds,
#  max(created_per_node)) per instance and (selection, heuristic)
PINNED_COUNTERS = {
    "five_node": {
        ("label", "sup"): (17, 11, 3, 8, 1, 7),
        ("label", "zero"): (19, 13, 10, 11, 1, 7),
        ("node", "sup"): (19, 13, 10, 8, 1, 7),
        ("node", "zero"): (19, 13, 10, 9, 1, 7),
    },
    "revisit_trap": {
        ("label", "sup"): (18, 10, 7, 3, 2, 8),
        ("label", "zero"): (19, 12, 11, 3, 2, 8),
        ("node", "sup"): (19, 12, 11, 3, 2, 8),
        ("node", "zero"): (19, 12, 11, 3, 2, 8),
    },
    "fuel_trap": {
        ("label", "sup"): (8, 5, 2, 3, 1, 3),
        ("label", "zero"): (8, 5, 2, 3, 1, 3),
        ("node", "sup"): (8, 5, 2, 3, 1, 3),
        ("node", "zero"): (8, 5, 2, 3, 1, 3),
    },
    "euclid300": {
        ("label", "sup"): (491, 105, 363, 377, 1, 40),
        ("label", "zero"): (82864, 61623, 421476, 5168, 1, 1794),
        ("node", "sup"): (1075, 283, 889, 667, 1, 70),
        ("node", "zero"): (95339, 67138, 469502, 6515, 1, 1907),
    },
    "lattice216": {
        ("label", "sup"): (1612, 351, 4775, 574, 1, 20),
        ("label", "zero"): (3526, 2422, 27609, 627, 1, 59),
        ("node", "sup"): (2882, 1022, 11982, 1114, 1, 36),
        ("node", "zero"): (3754, 2485, 28157, 602, 1, 59),
    },
    # the start label cannot pay the only edge's drain: it is pruned
    # untreated, and peak_open still counts it
    "dead_end": {
        ("label", "sup"): (1, 0, 1, 1, 1, 1),
        ("label", "zero"): (1, 0, 1, 1, 1, 1),
        ("node", "sup"): (1, 0, 1, 1, 1, 1),
        ("node", "zero"): (1, 0, 1, 1, 1, 1),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTERS))
def test_search_counters_pinned(name):
    """Deterministic work counters of unlimited solves, frozen so that a
    rewrite of the search loop shows any change in the work it does."""
    inst = PINNED_INSTANCES[name]()
    for (selection, heuristic), want in PINNED_COUNTERS[name].items():
        s = solve(inst, SolverConfig(selection=selection,
                                     heuristic=heuristic)).stats
        got = (s.labels_created, s.labels_treated, s.labels_pruned,
               s.peak_open, s.rounds, max(s.created_per_node))
        assert got == want, (selection, heuristic)


class TestExtractPath:
    def test_start_label_alone(self, triangle):
        start = mklabel(node=0, b=8, q=0)
        sol = extract_path(start, triangle)
        assert sol.path == (0,)
        assert sol.gen == ()
        assert sol.cost == 0.0

    def test_one_extension(self, triangle):
        start = mklabel(node=0, b=8, q=0)
        nxt = Label(1, 6.0, 5, 0, False, 6.0, start, 0)
        sol = extract_path(nxt, triangle)
        assert sol.path == (0, 1)
        assert sol.gen == (False,)
        assert sol.cost == 6.0

    def test_traces_match_replay(self, five_node):
        res = solve(five_node)
        assert check_solution(five_node, res.solution) is None
