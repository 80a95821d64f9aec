"""Exhaustive oracle and the integer-programming cross-check."""

import math
import time

import pytest

from hybridpath.generators import GenSpec, generate
from hybridpath.instance import EdgeParams, Instance, check_solution
from hybridpath.labeling import solve
from hybridpath.verify import (MilpImportError, OracleBudgetError,
                               assignment_from_solution, build_milp,
                               check_substitution, format_assignment,
                               import_milp_solution, milp_objective,
                               oracle_solve, solve_milp)
from conftest import (FIXTURES, FIVE_NODE_COST, FIVE_NODE_ENUMERATED,
                      FIVE_NODE_PATH, TRIANGLE_COST, make_chain)


class TestOracle:
    def test_triangle(self, triangle):
        res = oracle_solve(triangle)
        assert res.status == "optimal"
        assert res.cost == TRIANGLE_COST
        assert res.solution.path == (0, 1, 2)

    def test_five_node(self, five_node):
        # hand count of the complete feasible (path, schedule) pairs:
        # every route through node 2 dies on the c=7 edge 2->4 (> bmax),
        # leaving (0,3,4) x {(on,off), (on,on)} and
        # (0,1,3,4) x {(on,off,off), (on,on,off)} -- four pairs, and the
        # cheapest is (0,3,4) at 4.2 with the lexicographically smaller
        # schedule (on, off)
        res = oracle_solve(five_node)
        assert res.cost == FIVE_NODE_COST
        assert res.solution.path == FIVE_NODE_PATH
        assert res.solution.gen == (True, False)
        assert res.enumerated_count == FIVE_NODE_ENUMERATED
        assert check_solution(five_node, res.solution) is None

    def test_matches_label_search(self, five_node, revisit_trap):
        for inst in (five_node, revisit_trap):
            assert oracle_solve(inst).cost == solve(inst).solution.cost

    def test_infeasible(self):
        inst = Instance(nodes=((0.0, 0.0), (1.0, 0.0)),
                        edges=(EdgeParams(0, 1, 1.0, 9, 0),),
                        start=0, goal=1, b0=5, bmin=0, bmax=5, q0=3, v=0,
                        quantization=1.0)
        res = oracle_solve(inst)
        assert res.status == "infeasible"
        assert res.solution is None and res.cost is None

    def test_path_budget(self, five_node):
        # the walk enters 29 nodes on five_node: the budget counts dead
        # ends and goal arrivals alike, and fires only when exceeded
        assert oracle_solve(five_node, budget=29).enumerated_count == \
            FIVE_NODE_ENUMERATED
        with pytest.raises(OracleBudgetError, match="28 search steps"):
            oracle_solve(five_node, budget=28)

    def test_pair_budget(self, five_node):
        # a budget that admits every completed pair still fires: each
        # goal arrival is one step, and so is every dead end before it
        with pytest.raises(OracleBudgetError, match="search steps"):
            oracle_solve(five_node, budget=FIVE_NODE_ENUMERATED)

    def test_budget_bounds_schedules_of_one_path(self):
        # one simple path and no feasible schedule: the step count is
        # what bounds the 2^29 schedules of the 30-edge chain
        t0 = time.perf_counter()
        with pytest.raises(OracleBudgetError, match="search steps"):
            oracle_solve(make_chain(30, last_drain=9))
        assert time.perf_counter() - t0 < 5.0

    def test_path_budget_bounds_dead_end_search(self):
        # few complete paths but a vast dead-end search: the step count,
        # not the number of completed pairs, reaches the budget
        inst = generate(GenSpec(n_nodes=60, seed=0, k_neighbors=4,
                                b_frac=0.7, v_frac=0.04))
        t0 = time.perf_counter()
        with pytest.raises(OracleBudgetError, match="search steps"):
            oracle_solve(inst)
        assert time.perf_counter() - t0 < 5.0


class TestBuildMilp:
    def test_row_census(self, five_node):
        model = build_milp(five_node)
        names = [row.name for row in model.rows]
        m, n = len(five_node.edges), five_node.n_nodes
        assert names.count("deg_S") == names.count("deg_T") == 1
        assert sum(1 for s in names if s.startswith("deg_")) == n
        for stem in ("batt_le", "batt_mid", "fuel_le", "startup",
                     "gen_le_x"):
            assert sum(1 for s in names if s.startswith(stem)) == m
        assert len(model.binaries) == 3 * m
        assert len(set(names)) == len(names)

    def test_battery_row_shape(self, five_node):
        # edge 0->1: d 1.2, c 2, z 3; auto big-M = (6-0)+1+max(c+z)=16
        model = build_milp(five_node)
        row = next(r for r in model.rows if r.name == "batt_le_0_1")
        assert dict(row.coeffs) == {"b_1": 1, "b_0": -1, "g_0_1": -3,
                                    "w_0_1": 1, "x_0_1": 16}
        assert (row.sense, row.rhs) == ("<=", 14)
        mid = next(r for r in model.rows if r.name == "batt_mid_0_1")
        assert dict(mid.coeffs) == {"b_0": 1, "w_0_1": -1, "x_0_1": -16}
        assert (mid.sense, mid.rhs) == (">=", -14)

    def test_fuel_and_startup_rows(self, five_node):
        model = build_milp(five_node)
        fuel = next(r for r in model.rows if r.name == "fuel_le_3_4")
        # auto fuel big-M = q0 + max z = 7 + 5 = 12
        assert dict(fuel.coeffs) == {"q_4": 1, "q_3": -1, "g_3_4": 5,
                                     "x_3_4": 12}
        assert (fuel.sense, fuel.rhs) == ("<=", 12)
        startup = next(r for r in model.rows if r.name == "startup_3_4")
        coeffs = dict(startup.coeffs)
        assert coeffs["w_3_4"] == 1 and coeffs["g_3_4"] == -1
        # node 3 takes edges from 0 and 1: a running generator on either
        # cancels the startup obligation
        assert coeffs["g_0_3"] == 1 and coeffs["g_1_3"] == 1
        assert (startup.sense, startup.rhs) == (">=", 0)

    def test_bounds_pin_start_and_noise(self, five_node):
        model = build_milp(five_node)
        bounds = {name: (lo, hi) for name, lo, hi in model.bounds}
        assert bounds["b_0"] == (6, 6)
        assert bounds["q_0"] == (7, 7)
        assert bounds["b_2"] == (0, 6)
        assert bounds["q_4"] == (0, 7)
        assert bounds["g_2_4"] == (0, 0)

    def test_objective_is_edge_costs(self, five_node):
        model = build_milp(five_node)
        assert dict(model.objective)["x_0_1"] == 1.2
        assert len(model.objective) == len(five_node.edges)


class TestSubstitution:
    def test_solver_solution_satisfies_model(self, five_node):
        solution = solve(five_node).solution
        model = build_milp(five_node)
        assignment = assignment_from_solution(five_node, solution)
        assert check_substitution(model, assignment) == []
        assert milp_objective(model, assignment) == pytest.approx(
            solution.cost)

    def test_corrupted_assignment_flagged(self, five_node):
        solution = solve(five_node).solution
        model = build_milp(five_node)
        assignment = assignment_from_solution(five_node, solution)
        assignment[f"b_{five_node.goal}"] += 1
        bad = check_substitution(model, assignment)
        assert bad and any("batt" in msg for msg in bad)
        assignment = assignment_from_solution(five_node, solution)
        assignment["x_0_1"] = 1  # second start edge breaks the degree row
        assert any("deg_S" in msg for msg in
                   check_substitution(model, assignment))

    def test_missing_names_count_as_zero(self, five_node):
        model = build_milp(five_node)
        bad = check_substitution(model, {})
        assert any("deg_S" in msg for msg in bad)
        assert any("bound b_0" in msg for msg in bad)


class TestSolveMilp:
    def test_triangle(self, triangle):
        model = build_milp(triangle)
        status, assignment = solve_milp(model)
        assert status == "optimal"
        assert milp_objective(model, assignment) == pytest.approx(
            TRIANGLE_COST)
        assert check_substitution(model, {k: round(v) for k, v
                                          in assignment.items()}) == []

    def test_five_node_round_trip(self, five_node):
        status, assignment = solve_milp(build_milp(five_node))
        assert status == "optimal"
        imported = import_milp_solution(five_node,
                                        format_assignment(assignment))
        assert imported.cost == FIVE_NODE_COST
        assert imported.path == FIVE_NODE_PATH
        assert check_solution(five_node, imported) is None

    def test_infeasible(self):
        inst = Instance(nodes=((0.0, 0.0), (1.0, 0.0)),
                        edges=(EdgeParams(0, 1, 1.0, 9, 0),),
                        start=0, goal=1, b0=5, bmin=0, bmax=5, q0=3, v=0,
                        quantization=1.0)
        status, assignment = solve_milp(build_milp(inst))
        assert status == "infeasible" and assignment is None


class TestImport:
    def test_saved_backend_output(self, five_node):
        text = (FIXTURES / "five_node.assignment.txt").read_text()
        solution = import_milp_solution(five_node, text)
        assert solution.cost == FIVE_NODE_COST
        assert solution.path == FIVE_NODE_PATH

    def test_no_start_edge(self, five_node):
        with pytest.raises(MilpImportError, match="no outgoing start edge"):
            import_milp_solution(five_node, "x_1_2 1\n")

    def test_branching(self, five_node):
        with pytest.raises(MilpImportError, match="multiple outgoing"):
            import_milp_solution(five_node,
                                 "x_0_1 1\nx_0_3 1\nx_3_4 1\nx_1_3 1\n")

    def test_dead_end(self, five_node):
        with pytest.raises(MilpImportError, match="dead-ends"):
            import_milp_solution(five_node, "x_0_1 1\n")

    def test_disconnected_support_is_subtour(self, five_node):
        text = "x_0_3 1\ng_0_3 1\nx_3_4 1\nx_1_2 1\n"
        with pytest.raises(MilpImportError, match="subtour"):
            import_milp_solution(five_node, text)

    def test_fractional_rejected(self, five_node):
        with pytest.raises(MilpImportError, match="fractional"):
            import_milp_solution(five_node, "x_0_3 0.4\nx_3_4 1\n")

    def test_bad_lines_rejected(self, five_node):
        with pytest.raises(MilpImportError, match="expected 'name value'"):
            import_milp_solution(five_node, "x_0_3 1 extra\n")
        with pytest.raises(MilpImportError, match="bad value"):
            import_milp_solution(five_node, "x_0_3 one\n")

    def test_infeasible_path_rejected(self, five_node):
        # 0-1-2-4 hits the 7-drain edge above bmax
        text = "x_0_1 1\nx_1_2 1\nx_2_4 1\ng_0_1 1\ng_1_2 1\n"
        with pytest.raises(MilpImportError, match="infeasible"):
            import_milp_solution(five_node, text)

    def test_comments_and_blanks_ignored(self, five_node):
        text = "# backend header\n\nx_0_3 1\ng_0_3 1\nx_3_4 1\ng_3_4 1\n"
        solution = import_milp_solution(five_node, text)
        assert solution.cost == FIVE_NODE_COST


class TestExport:
    def test_sections_and_determinism(self, five_node):
        text = build_milp(five_node).render()
        assert text == build_milp(five_node).render()
        lines = text.splitlines()
        assert lines[0] == "Minimize"
        assert lines[1].startswith(" obj: 1.2 x_0_1")
        for section in ("Subject To", "Bounds", "Binaries", "End"):
            assert section in lines
        assert " b_0 = 6" in lines
        assert " g_2_4 = 0" in lines
