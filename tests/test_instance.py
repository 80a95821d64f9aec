"""Data model, feasibility replay, and file-format behavior."""

import hashlib
import json
import math
import time
import warnings

import pytest

from hybridpath.generators import GenSpec, generate
from hybridpath.instance import (DEFAULT_QUANTIZATION, EdgeParams,
                                 FormatError, Instance, InvalidInstanceError,
                                 build_solution, check_solution, dumps, load,
                                 loads, path_cost, replay, save,
                                 solution_dumps, solution_loads, validate)
from conftest import FIXTURES, FIVE_NODE_COST


def small(edges, **kw):
    params = dict(nodes=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                  start=0, goal=2, b0=5, bmin=0, bmax=5, q0=3, v=0,
                  quantization=1.0)
    params.update(kw)
    return Instance(edges=tuple(edges), **params)


LINE = (EdgeParams(0, 1, 1.0, 1, 1), EdgeParams(1, 2, 1.0, 1, 1))


class TestValidate:
    def test_ok_line(self):
        assert validate(small(LINE)) == []

    def test_b0_below_bmin(self):
        inst = small(LINE, bmin=5, b0=3)
        assert any("b0 below bmin" in v for v in validate(inst))

    def test_gliding_with_drain(self):
        bad = (EdgeParams(0, 1, 1.0, 2, 0, True, True), LINE[1])
        assert any("gliding edge with nonzero drain" in v
                   for v in validate(small(bad)))

    def test_self_loop_and_duplicate(self):
        bad = LINE + (EdgeParams(1, 1, 1.0, 0, 0), EdgeParams(0, 1, 2.0, 0, 0))
        out = validate(small(bad))
        assert any("self-loop" in v for v in out)
        assert any("duplicate directed edge" in v for v in out)

    def test_start_equals_goal(self):
        assert any("start equals goal" in v
                   for v in validate(small(LINE, goal=0)))

    def test_nonpositive_cost(self):
        bad = (EdgeParams(0, 1, 0.0, 1, 1), LINE[1])
        assert any("strictly positive" in v for v in validate(small(bad)))

    def test_generated_instance_is_valid(self):
        from hybridpath.generators import GenSpec, generate
        inst = generate(GenSpec(n_nodes=50, seed=3))
        assert validate(inst) == []


class TestReplay:
    def test_noise_restriction(self):
        edges = (EdgeParams(0, 1, 1.0, 1, 1, gen_allowed=False), LINE[1])
        inst = small(edges)
        _, _, violation = replay(inst, (0, 1, 2), (True, False))
        assert "noise-restricted" in violation

    def test_battery_dip_names_node(self):
        edges = (EdgeParams(0, 1, 1.0, 4, 0), EdgeParams(1, 2, 1.0, 4, 0))
        _, _, violation = replay(small(edges), (0, 1, 2), (False, False))
        assert violation == "battery below bmin entering node 2"

    def test_startup_applies_on_transition_only(self):
        edges = (EdgeParams(0, 1, 1.0, 1, 2), EdgeParams(1, 2, 1.0, 1, 2))
        inst = small(edges, v=2, q0=4, bmax=9, b0=4)
        battery, fuel, violation = replay(inst, (0, 1, 2), (True, True))
        assert violation is None
        # first edge pays the startup (4-1-2+2 = 3); second does not
        assert battery == [4, 3, 4]
        assert fuel == [4, 2, 0]

    def test_recharge_clamps_at_bmax(self):
        edges = (EdgeParams(0, 1, 1.0, 0, 3), LINE[1])
        inst = small(edges, b0=5, bmax=5, q0=3)
        battery, _, violation = replay(inst, (0, 1), (True,))
        assert violation is None
        assert battery == [5, 5]

    def test_missing_edge(self):
        _, _, violation = replay(small(LINE), (0, 2), (False,))
        assert "no edge 0->2" in violation


class TestCheckSolution:
    def test_solver_output_ok(self, five_node):
        from hybridpath.labeling import solve
        res = solve(five_node)
        assert check_solution(five_node, res.solution) is None

    def test_gen_on_noise_edge(self):
        edges = (EdgeParams(0, 1, 1.0, 1, 1, gen_allowed=False), LINE[1])
        inst = small(edges)
        good = build_solution(inst, (0, 1, 2), (False, False))
        bad = good.__class__(path=good.path, gen=(True, False),
                             cost=good.cost, battery=good.battery,
                             fuel=good.fuel)
        assert "noise-restricted" in check_solution(inst, bad)

    def test_repeated_node_rejected(self):
        inst = small(LINE + (EdgeParams(1, 0, 1.0, 0, 0),))
        sol = build_solution(inst, (0, 1, 2), (False, False))
        looped = sol.__class__(path=(0, 1, 0, 1, 2), gen=(False,) * 4,
                               cost=4.0, battery=(5, 4, 4, 3, 2),
                               fuel=(3,) * 5)
        assert "repeated" in check_solution(inst, looped)

    def test_cost_mismatch(self):
        sol = build_solution(small(LINE), (0, 1, 2), (False, False))
        bad = sol.__class__(path=sol.path, gen=sol.gen, cost=sol.cost + 1,
                            battery=sol.battery, fuel=sol.fuel)
        assert "cost mismatch" in check_solution(small(LINE), bad)


class TestPathCost:
    def test_exact_sum(self):
        inst = small(LINE)
        assert path_cost(inst, (0, 1, 2)) == 2.0

    def test_order_independent_rounding(self):
        # fsum makes the reported cost independent of accumulation order
        costs = [0.1] * 10
        edges = tuple(EdgeParams(i, i + 1, c, 0, 0)
                      for i, c in enumerate(costs))
        nodes = tuple((float(i), 0.0) for i in range(11))
        inst = Instance(nodes=nodes, edges=edges, start=0, goal=10,
                        b0=1, bmin=0, bmax=1, q0=0, v=0, quantization=1.0)
        assert path_cost(inst, tuple(range(11))) == math.fsum(costs)


class TestFileFormat:
    def test_round_trip_byte_stable(self):
        raw = (FIXTURES / "five_node.json").read_bytes()
        assert dumps(loads(raw)).encode() == raw

    def test_generated_lattice_bytes_pinned(self):
        # a 3x3x3 lattice: its 36 planar pairs merge into undirected
        # records, its 48 up/down pairs stay two directed records each
        inst = generate(GenSpec(n_nodes=27, family="lattice", dim=3,
                                seed=0, b_frac=0.7))
        text = dumps(inst)
        assert text.count('"undirected": true') == 36
        assert text.count('"undirected": false') == 96
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "108d6e3ef921779bc3f26594cd9e00b3"
            "c024e41e836dc64b28fe055e3a2d5579")

    def test_missing_goal_named(self):
        doc = json.loads((FIXTURES / "five_node.json").read_text())
        del doc["goal"]
        with pytest.raises(FormatError, match="goal"):
            loads(json.dumps(doc))

    def test_bad_json(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            loads(b"{nope")

    def test_invalid_instance_reported_on_load(self):
        doc = json.loads((FIXTURES / "five_node.json").read_text())
        doc["b0"] = -1.0
        with pytest.raises(InvalidInstanceError, match="b0 is negative"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("where, key", [
        ("doc", "b0"), ("doc", "bmin"), ("doc", "bmax"), ("doc", "q0"),
        ("doc", "v"), ("edge", "c"), ("edge", "z"),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, where, key, value):
        doc = json.loads((FIXTURES / "five_node.json").read_text())
        (doc["edges"][2] if where == "edge" else doc)[key] = value
        with pytest.raises(FormatError, match=f"'{key}' must be finite"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("where, key, value", [
        ("edge", "gen_allowed", "false"),
        ("edge", "gen_allowed", 0),
        ("edge", "gliding", "true"),
        ("edge", "undirected", 1),
        ("edge", "undirected", None),
        ("edge", "u", 1.5),
        ("edge", "v", 1.0),
        ("edge", "u", True),
        ("edge", "v", "1"),
        ("edge", "c", "2.0"),
        ("edge", "d", None),
        ("doc", "start", 0.5),
        ("doc", "goal", 4.0),
        ("doc", "goal", "4"),
        ("doc", "start", False),
        ("doc", "b0", True),
        ("doc", "quantization", None),
    ])
    def test_no_silent_coercion(self, where, key, value):
        doc = json.loads((FIXTURES / "five_node.json").read_text())
        (doc["edges"][0] if where == "edge" else doc)[key] = value
        with pytest.raises(FormatError, match=f"'{key}' must be"):
            loads(json.dumps(doc))

    def test_node_coordinates_must_be_numbers(self):
        doc = json.loads((FIXTURES / "five_node.json").read_text())
        doc["nodes"][1] = [0.0, None]
        with pytest.raises(FormatError, match="nodes\\[1\\]"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("key, value, kind", [
        ("nodes", None, "list"), ("edges", 5, "list"),
        ("edges", {"u": 0}, "list"), ("meta", [1], "object"),
    ])
    def test_containers_must_have_their_type(self, key, value, kind):
        doc = json.loads((FIXTURES / "five_node.json").read_text())
        doc[key] = value
        with pytest.raises(FormatError, match=f"'{key}' must be an? {kind}"):
            loads(json.dumps(doc))

    def test_undirected_expands_both_ways(self):
        doc = {
            "nodes": [[0.0, 0.0], [1.0, 0.0]],
            "edges": [{"u": 0, "v": 1, "d": 1.0, "c": 1.0, "z": 0.0,
                       "gen_allowed": True, "gliding": False,
                       "undirected": True}],
            "start": 0, "goal": 1, "b0": 2.0, "bmin": 0.0, "bmax": 2.0,
            "q0": 0.0, "v": 0.0, "quantization": 1.0,
        }
        inst = loads(json.dumps(doc))
        assert {(e.u, e.v) for e in inst.edges} == {(0, 1), (1, 0)}

    def test_rounding_warning(self):
        doc = json.loads((FIXTURES / "five_node.json").read_text())
        doc["quantization"] = 1.0
        doc["b0"] = 5.4
        with pytest.warns(UserWarning, match="rounding"):
            inst = loads(json.dumps(doc))
        assert inst.b0 == 5

    def test_quantization_default(self):
        assert DEFAULT_QUANTIZATION == 1e-3

    def test_save_load(self, tmp_path, five_node):
        p = tmp_path / "inst.json"
        save(five_node, p)
        assert load(p) == five_node

    def test_large_instance_load_under_a_second(self, tmp_path):
        from hybridpath.generators import GenSpec, generate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = generate(GenSpec(n_nodes=2000, seed=42))
        p = tmp_path / "big.json"
        save(inst, p)
        t0 = time.perf_counter()
        again = load(p)
        assert time.perf_counter() - t0 < 1.0
        assert again == inst


class TestSolutionFormat:
    def test_round_trip(self, five_node):
        from hybridpath.labeling import solve
        sol = solve(five_node).solution
        text = solution_dumps(five_node, sol)
        assert solution_loads(text, five_node) == sol
        assert json.loads(text)["cost"] == FIVE_NODE_COST

    def test_corrupt_trace_caught_downstream(self, five_node):
        # the parser is format-only; check_solution flags bad traces
        from hybridpath.labeling import solve
        sol = solve(five_node).solution
        doc = json.loads(solution_dumps(five_node, sol))
        doc["battery"][1] += 1
        parsed = solution_loads(json.dumps(doc), five_node)
        assert "battery" in check_solution(five_node, parsed)

    def test_missing_field_named(self, five_node):
        with pytest.raises(FormatError, match="gen"):
            solution_loads('{"path": [0, 4], "cost": 1.0}', five_node)

    @pytest.mark.parametrize("key, value", [
        ("path", [0, 3.5, 4]), ("gen", ["false", False]),
        ("battery", [6.0, None, 0.0]), ("fuel", [7.0, math.inf, 0.0]),
        ("cost", "4.2"), ("cost", True), ("cost", None),
        ("path", 5), ("gen", "ft"), ("battery", {"0": 6.0}), ("fuel", 7.0),
        (None, [0, 3, 4]),
    ])
    def test_no_silent_coercion(self, five_node, key, value):
        # key None replaces the whole document
        from hybridpath.labeling import solve
        doc = json.loads(solution_dumps(five_node, solve(five_node).solution))
        if key is None:
            doc, field = value, "root"
        else:
            doc[key], field = value, f"'{key}'"
        with pytest.raises(FormatError, match=f"{field} must be"):
            solution_loads(json.dumps(doc), five_node)
