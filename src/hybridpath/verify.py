"""Independent correctness machinery.

Two tools live here.  ``oracle_solve`` is a brute-force reference solver
for small instances: one depth-first walk enumerates every simple
start-to-goal path under every generator on/off assignment, applying the
resource update rule in a third, independent implementation (the search
and the replay checker each have their own).  A single step budget,
counting every node the walk enters, bounds it.  ``build_milp``
translates an instance into a mixed-integer program whose ``render``
gives CPLEX LP text, so external solvers can cross-check the search, and
the companion helpers substitute a solution into every row (an in-repo
soundness check needing no solver) or import a solver's variable-value
output back into a Solution.

The program uses a corrected startup linearization: a binary w_uv with
rows w_uv >= g_uv - sum(incoming g) and battery drain -V*w_uv, so the
startup cost is paid exactly on off -> on transitions.  Battery
recurrence rows are emitted in the <= direction only, paired with a
pre-recharge row (batt_mid) that enforces the minimum charge before the
generator credit; a >= recurrence would pin the battery to the unclamped
value and reject schedules that overflow the battery cap, which the
search intentionally clamps instead.

Row names: deg_S, deg_T, deg_{i}, batt_le_{u}_{v}, batt_mid_{u}_{v},
fuel_le_{u}_{v}, startup_{u}_{v} and gen_le_x_{u}_{v}.  Variables:
x_{u}_{v}, g_{u}_{v}, w_{u}_{v}, b_{i}, q_{i}.  All constraint
coefficients are integers in quantized resource units, so substitution
checks are exact; only the objective carries float edge costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .instance import Instance, Solution, build_solution, check_solution

ORACLE_OPTIMAL = "optimal"
ORACLE_INFEASIBLE = "infeasible"


class OracleBudgetError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive-search outcome.

    ``enumerated_count`` is the number of complete (path, schedule) pairs
    that reached the goal with every step feasible; branches cut by a
    resource violation drop all their completions from the count
    (feasibility-only pruning, never cost-based).
    """

    status: str
    solution: Optional[Solution]
    enumerated_count: int

    @property
    def cost(self) -> Optional[float]:
        return self.solution.cost if self.solution is not None else None


def _oracle_step(b, q, s, edge, gen_on, bmin, bmax, v):
    """Resource update for one edge, written independently of the solver
    and the replay checker.  Returns (b', q', s') or None if infeasible."""
    if gen_on:
        if not edge.gen_allowed:
            return None
        if edge.z > q:
            return None
        spent = edge.c + (0 if s else v)
        left = b - spent
        if left < bmin:
            return None
        gained = left + edge.z
        return (bmax if gained > bmax else gained, q - edge.z, True)
    left = b - edge.c
    if left < bmin:
        return None
    return (left, q, False)


def oracle_solve(instance: Instance, budget: int = 500_000) -> OracleResult:
    """Exact reference solve by one resource-aware depth-first walk.

    Every simple path from start to goal is expanded under every
    generator assignment of its edges, pruning a branch only when a
    resource check fails.  Among equal-cost optima the lexicographically
    smallest (path, schedule) pair is returned, so the result is
    independent of adjacency order.  Every node the walk enters, dead
    end or goal, is one step; raises OracleBudgetError once the walk
    takes more than ``budget`` steps or goes deeper than Python's
    recursion limit.
    """
    out = instance.out_edges
    goal = instance.goal
    bmin, bmax, v = instance.bmin, instance.bmax, instance.v
    on_path = [False] * instance.n_nodes
    path: List[int] = [instance.start]
    gens: List[bool] = []
    costs: List[float] = []
    steps = examined = 0
    best: Optional[Tuple[float, Tuple[int, ...], Tuple[bool, ...]]] = None

    def walk(node, b, q, s):
        nonlocal steps, examined, best
        steps += 1
        if steps > budget:
            raise OracleBudgetError(
                f"oracle budget exceeded: more than {budget} search steps")
        if node == goal:
            examined += 1
            cand = (math.fsum(costs), tuple(path), tuple(gens))
            if best is None or cand < best:
                best = cand
            return
        on_path[node] = True
        for edge in out[node]:
            if on_path[edge.v]:
                continue
            for gen_on in (False, True):
                step = _oracle_step(b, q, s, edge, gen_on, bmin, bmax, v)
                if step is None:
                    continue
                path.append(edge.v)
                gens.append(gen_on)
                costs.append(edge.d)
                walk(edge.v, *step)
                path.pop()
                gens.pop()
                costs.pop()
        on_path[node] = False

    try:
        walk(instance.start, instance.b0, instance.q0, False)
    except RecursionError:
        raise OracleBudgetError(
            "oracle budget exceeded: a path deeper than the recursion "
            "limit") from None
    if best is None:
        return OracleResult(ORACLE_INFEASIBLE, None, examined)
    return OracleResult(ORACLE_OPTIMAL,
                        build_solution(instance, best[1], best[2]), examined)


# ---------------------------------------------------------------------------
# MILP model


@dataclass(frozen=True)
class MilpRow:
    """One linear constraint; coefficients are integer and exact."""
    name: str
    coeffs: Tuple[Tuple[str, int], ...]
    sense: str  # "<=", ">=" or "="
    rhs: int


@dataclass(frozen=True)
class MilpModel:
    objective: Tuple[Tuple[str, float], ...]
    rows: Tuple[MilpRow, ...]
    bounds: Tuple[Tuple[str, Optional[int], Optional[int]], ...]
    binaries: Tuple[str, ...]

    def variable_names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for name, _ in self.objective:
            seen.setdefault(name)
        for row in self.rows:
            for name, _ in row.coeffs:
                seen.setdefault(name)
        for name, _, _ in self.bounds:
            seen.setdefault(name)
        for name in self.binaries:
            seen.setdefault(name)
        return list(seen)

    def render(self) -> str:
        """CPLEX LP text; deterministic byte-for-byte for a given model."""
        out = ["Minimize", " obj: " + _lincomb(self.objective), "Subject To"]
        for row in self.rows:
            sense = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
            out.append(f" {row.name}: {_lincomb(row.coeffs)} {sense} {row.rhs}")
        out.append("Bounds")
        for name, lb, ub in self.bounds:
            if lb is not None and lb == ub:
                out.append(f" {name} = {lb}")
            elif ub is None:
                out.append(f" {name} >= {0 if lb is None else lb}")
            else:
                out.append(f" {0 if lb is None else lb} <= {name} <= {ub}")
        out.append("Binaries")
        for i in range(0, len(self.binaries), 8):
            out.append(" " + " ".join(self.binaries[i:i + 8]))
        out.append("End")
        return "\n".join(out) + "\n"


def _lincomb(terms: Iterable[Tuple[str, float]]) -> str:
    parts: List[str] = []
    for name, coef in terms:
        if coef == 0:
            continue
        mag = abs(coef)
        num = str(mag) if isinstance(mag, int) or mag == int(mag) else repr(mag)
        if mag == 1 and isinstance(coef, int):
            term = name
        else:
            term = f"{num} {name}"
        if not parts:
            parts.append(term if coef > 0 else f"- {term}")
        else:
            parts.append(f"+ {term}" if coef > 0 else f"- {term}")
    return " ".join(parts) if parts else "0 " + "x_dummy"


def _xname(e) -> str:
    return f"x_{e.u}_{e.v}"


def _gname(e) -> str:
    return f"g_{e.u}_{e.v}"


def _wname(e) -> str:
    return f"w_{e.u}_{e.v}"


def build_milp(instance: Instance) -> MilpModel:
    """Translate an instance into the MILP intermediate form.

    The big-M constants are the tightest per-family values that
    deactivate the rows of unused edges: (bmax - bmin) + V + max(C + Z)
    for battery rows and Q0 + max Z for fuel rows.
    """
    edges = instance.edges
    n = instance.n_nodes
    S, T = instance.start, instance.goal
    incoming: List[List] = [[] for _ in range(n)]
    for e in edges:
        incoming[e.v].append(e)

    max_cz = max((e.c + e.z for e in edges), default=0)
    m_batt = (instance.bmax - instance.bmin) + instance.v + max_cz
    m_fuel = instance.q0 + max((e.z for e in edges), default=0)

    objective = tuple((_xname(e), e.d) for e in edges)
    rows: List[MilpRow] = []

    rows.append(MilpRow(
        "deg_S", tuple((_xname(e), 1) for e in instance.out_edges[S]), "=", 1))
    rows.append(MilpRow(
        "deg_T", tuple((_xname(e), 1) for e in incoming[T]), "=", 1))
    for i in range(n):
        if i == S or i == T:
            continue
        coeffs = [(_xname(e), 1) for e in instance.out_edges[i]]
        coeffs += [(_xname(e), -1) for e in incoming[i]]
        if coeffs:
            rows.append(MilpRow(f"deg_{i}", tuple(coeffs), "=", 0))

    for e in edges:
        x, g, w = _xname(e), _gname(e), _wname(e)
        rows.append(MilpRow(
            f"batt_le_{e.u}_{e.v}",
            ((f"b_{e.v}", 1), (f"b_{e.u}", -1), (g, -e.z),
             (w, instance.v), (x, m_batt)),
            "<=", m_batt - e.c))
        rows.append(MilpRow(
            f"batt_mid_{e.u}_{e.v}",
            ((f"b_{e.u}", 1), (w, -instance.v), (x, -m_batt)),
            ">=", instance.bmin + e.c - m_batt))
        rows.append(MilpRow(
            f"fuel_le_{e.u}_{e.v}",
            ((f"q_{e.v}", 1), (f"q_{e.u}", -1), (g, e.z), (x, m_fuel)),
            "<=", m_fuel))
        startup = [(w, 1), (g, -1)]
        startup += [(_gname(ke), 1) for ke in incoming[e.u]]
        rows.append(MilpRow(f"startup_{e.u}_{e.v}", tuple(startup),
                            ">=", 0))
        rows.append(MilpRow(f"gen_le_x_{e.u}_{e.v}",
                            ((g, 1), (x, -1)), "<=", 0))

    bounds: List[Tuple[str, Optional[int], Optional[int]]] = []
    for i in range(n):
        if i == S:
            bounds.append((f"b_{i}", instance.b0, instance.b0))
        else:
            bounds.append((f"b_{i}", instance.bmin, instance.bmax))
    for i in range(n):
        if i == S:
            bounds.append((f"q_{i}", instance.q0, instance.q0))
        else:
            bounds.append((f"q_{i}", 0, instance.q0))
    for e in edges:
        if not e.gen_allowed:
            bounds.append((_gname(e), 0, 0))

    binaries: List[str] = [_xname(e) for e in edges]
    binaries += [_gname(e) for e in edges]
    binaries += [_wname(e) for e in edges]
    return MilpModel(objective, tuple(rows), tuple(bounds), tuple(binaries))


def assignment_from_solution(instance: Instance,
                             solution: Solution) -> Dict[str, int]:
    """Map a solver Solution onto the corrected model's variables.

    Unused edges get x = g = w = 0; unvisited nodes sit at full battery
    and fuel, which satisfies every deactivated row exactly.
    """
    values: Dict[str, int] = {}
    for e in instance.edges:
        values[_xname(e)] = 0
        values[_gname(e)] = 0
        values[_wname(e)] = 0
    for i in range(instance.n_nodes):
        values[f"b_{i}"] = instance.bmax
        values[f"q_{i}"] = instance.q0
    values[f"b_{instance.start}"] = instance.b0
    prev_gen = False
    for k, gen_on in enumerate(solution.gen):
        u, v = solution.path[k], solution.path[k + 1]
        values[f"x_{u}_{v}"] = 1
        if gen_on:
            values[f"g_{u}_{v}"] = 1
            if not prev_gen:
                values[f"w_{u}_{v}"] = 1
        values[f"b_{v}"] = solution.battery[k + 1]
        values[f"q_{v}"] = solution.fuel[k + 1]
        prev_gen = gen_on
    return values


def check_substitution(model: MilpModel,
                       assignment: Dict[str, int]) -> List[str]:
    """Violated rows and bounds under an exact integer substitution.

    Returns human-readable messages, empty when every constraint holds
    with zero violation.  Missing variables count as zero.
    """
    bad: List[str] = []
    for row in model.rows:
        lhs = sum(coef * assignment.get(name, 0) for name, coef in row.coeffs)
        ok = (lhs <= row.rhs if row.sense == "<=" else
              lhs >= row.rhs if row.sense == ">=" else lhs == row.rhs)
        if not ok:
            bad.append(f"row {row.name}: {lhs} {row.sense} {row.rhs} fails")
    for name, lb, ub in model.bounds:
        val = assignment.get(name, 0)
        if lb is not None and val < lb:
            bad.append(f"bound {name}: {val} < {lb}")
        if ub is not None and val > ub:
            bad.append(f"bound {name}: {val} > {ub}")
    return bad


def milp_objective(model: MilpModel, assignment: Dict[str, float]) -> float:
    return math.fsum(coef * assignment.get(name, 0)
                     for name, coef in model.objective)


def format_assignment(assignment: Dict[str, float]) -> str:
    """Variable values as whitespace-separated ``name value`` lines, the
    interchange format ``import_milp_solution`` reads."""
    return "".join(f"{name} {value!r}\n" for name, value in assignment.items())


class MilpImportError(ValueError):
    """Solver output that does not encode a usable path."""


def import_milp_solution(instance: Instance, text: str) -> Solution:
    """Rebuild a Solution from solver output in ``name value`` lines.

    Only the x and g values matter; resource traces are recomputed by
    replaying the path, so a feasible import always passes
    check_solution.  Rejects fractional binaries, output with no start
    edge, branching nodes, and support beyond the single start-to-goal
    path ("subtour detected").
    """
    raw: Dict[str, float] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MilpImportError(f"line {ln}: expected 'name value'")
        try:
            raw[parts[0]] = float(parts[1])
        except ValueError:
            raise MilpImportError(f"line {ln}: bad value {parts[1]!r}") from None

    def binval(name: str) -> int:
        value = raw.get(name, 0.0)
        nearest = round(value)
        if abs(value - nearest) > 1e-6 or nearest not in (0, 1):
            raise MilpImportError(f"fractional assignment: {name} = {value}")
        return int(nearest)

    used = {}
    for e in instance.edges:
        if binval(_xname(e)):
            used[(e.u, e.v)] = bool(binval(_gname(e)))

    if not any(u == instance.start for u, _ in used):
        raise MilpImportError("no outgoing start edge")
    path = [instance.start]
    gens: List[bool] = []
    seen = {instance.start}
    node = instance.start
    while node != instance.goal:
        outs = [(u, v) for (u, v) in used if u == node]
        if not outs:
            raise MilpImportError(f"path dead-ends at node {node}")
        if len(outs) > 1:
            raise MilpImportError(f"multiple outgoing edges used at node {node}")
        _, nxt = outs[0]
        if nxt in seen:
            raise MilpImportError("subtour detected")
        gens.append(used[outs[0]])
        path.append(nxt)
        seen.add(nxt)
        node = nxt
    if len(used) > len(path) - 1:
        raise MilpImportError("subtour detected")

    try:
        solution = build_solution(instance, path, gens)
    except ValueError as exc:
        raise MilpImportError(f"imported path infeasible: {exc}") from None
    err = check_solution(instance, solution)
    if err is not None:
        raise MilpImportError(f"imported solution rejected: {err}")
    return solution


def solve_milp(model: MilpModel) -> Tuple[str, Optional[Dict[str, float]]]:
    """Solve the model with scipy's branch-and-bound backend.

    Returns (status, assignment); status is "optimal", "infeasible" or
    the backend's message on any other outcome.  Binary values in the
    assignment are rounded clean.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    names = model.variable_names()
    index = {name: k for k, name in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in model.objective:
        c[index[name]] += coef

    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    binset = set(model.binaries)
    for name in model.binaries:
        ub[index[name]] = 1.0
    for name, lo, hi in model.bounds:
        k = index[name]
        lb[k] = -np.inf if lo is None else lo
        ub[k] = np.inf if hi is None else hi
    integrality = np.array([1.0 if name in binset else 0.0 for name in names])

    row_idx: List[int] = []
    col_idx: List[int] = []
    values: List[int] = []
    row_lb = np.full(len(model.rows), -np.inf)
    row_ub = np.full(len(model.rows), np.inf)
    for r, row in enumerate(model.rows):
        for name, coef in row.coeffs:
            row_idx.append(r)
            col_idx.append(index[name])
            values.append(coef)
        if row.sense in ("<=", "="):
            row_ub[r] = row.rhs
        if row.sense in (">=", "="):
            row_lb[r] = row.rhs

    # the CSC conversion sums duplicate entries; with zeros dropped the
    # backend gets the same matrix a dense array would convert to
    a = coo_array((np.array(values, dtype=float), (row_idx, col_idx)),
                  shape=(len(model.rows), n)).tocsc()
    a.eliminate_zeros()
    res = milp(c, constraints=LinearConstraint(a, row_lb, row_ub),
               integrality=integrality, bounds=Bounds(lb, ub))
    if res.status == 2:
        return "infeasible", None
    if res.status != 0 or res.x is None:
        return res.message, None
    assignment: Dict[str, float] = {}
    for name in names:
        value = float(res.x[index[name]])
        if name in binset:
            value = float(round(value))
        assignment[name] = value
    return "optimal", assignment
