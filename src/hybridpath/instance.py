"""Problem data model for noise-restricted hybrid-fuel path planning.

An instance is a directed graph whose edges carry a travel cost ``d``, a
battery drain ``c``, a recharge amount ``z`` (credited only while the
generator runs), a ``gen_allowed`` flag (False on noise-restricted edges)
and a ``gliding`` flag (descending edges with zero battery drain).

Resource quantities (battery, fuel, startup drain) are plain integers in
fixed quantization units so that all resource arithmetic during a solve is
exact.  The file format stores nominal (real-valued) quantities together
with the ``quantization`` scale; values are converted to integer units on
load with round-half-to-even.

Cost totals are computed with ``math.fsum`` so that two paths using the
same multiset of edge costs report bitwise-identical totals regardless of
traversal order.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

DEFAULT_QUANTIZATION = 1e-3

# Resource file keys converted to integer units on load.
_RESOURCE_KEYS = ("b0", "bmin", "bmax", "q0", "v")


class FormatError(ValueError):
    """Raised when an instance or solution document is malformed."""


class InvalidInstanceError(ValueError):
    """Raised when a loaded instance violates model invariants."""

    def __init__(self, violations: List[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class EdgeParams:
    """Directed edge with cost and energy parameters.

    ``c`` and ``z`` are integer resource units; ``d`` stays real-valued.
    """

    u: int
    v: int
    d: float
    c: int
    z: int
    gen_allowed: bool = True
    gliding: bool = False


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance; safe to share across threads."""

    nodes: Tuple[Tuple[float, ...], ...]
    edges: Tuple[EdgeParams, ...]
    start: int
    goal: int
    b0: int
    bmin: int
    bmax: int
    q0: int
    v: int
    quantization: float = DEFAULT_QUANTIZATION
    meta: Optional[dict] = field(default=None, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def out_edges(self) -> Tuple[Tuple[EdgeParams, ...], ...]:
        """Outgoing edges per node id."""
        out: List[List[EdgeParams]] = [[] for _ in self.nodes]
        for e in self.edges:
            out[e.u].append(e)
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def edge_map(self) -> Dict[Tuple[int, int], EdgeParams]:
        return {(e.u, e.v): e for e in self.edges}


@dataclass(frozen=True)
class Solution:
    """A feasible path with its generator schedule and resource traces.

    ``gen[i]`` is True when the generator runs over edge
    ``(path[i], path[i+1])``.  ``battery``/``fuel`` are the integer resource
    levels at each path node.
    """

    path: Tuple[int, ...]
    gen: Tuple[bool, ...]
    cost: float
    battery: Tuple[int, ...]
    fuel: Tuple[int, ...]


def path_cost(instance: Instance, path: Tuple[int, ...]) -> float:
    """Exact-rounded total of edge costs along ``path`` (order independent)."""
    emap = instance.edge_map
    return math.fsum(emap[(path[i], path[i + 1])].d for i in range(len(path) - 1))


def validate(instance: Instance) -> List[str]:
    """Check all model invariants; returns a list of violations (empty = ok)."""
    out: List[str] = []
    n = instance.n_nodes
    if n == 0:
        out.append("instance has no nodes")
        return out

    dim = len(instance.nodes[0])
    if dim not in (2, 3):
        out.append(f"node 0: coordinates must be 2D or 3D, got {dim}D")
    for i, coord in enumerate(instance.nodes):
        if len(coord) != dim:
            out.append(f"node {i}: dimension {len(coord)} differs from node 0 ({dim})")
        if not all(math.isfinite(x) for x in coord):
            out.append(f"node {i}: non-finite coordinate")

    if not (0 <= instance.start < n):
        out.append(f"start node {instance.start} out of range")
    if not (0 <= instance.goal < n):
        out.append(f"goal node {instance.goal} out of range")
    if instance.start == instance.goal:
        out.append("start equals goal")

    if instance.b0 < 0:
        out.append("b0 is negative (stored level)")
    if instance.q0 < 0:
        out.append("q0 is negative (stored level)")
    if instance.v < 0:
        out.append("startup drain v is negative")
    if instance.b0 < instance.bmin:
        out.append("b0 below bmin")
    if instance.b0 > instance.bmax:
        out.append("b0 above bmax")
    if instance.bmin > instance.bmax:
        out.append("bmin above bmax")

    seen: set = set()
    for e in instance.edges:
        tag = f"edge {e.u}->{e.v}"
        if not (0 <= e.u < n and 0 <= e.v < n):
            out.append(f"{tag}: endpoint out of range")
            continue
        if e.u == e.v:
            out.append(f"{tag}: self-loop")
        if (e.u, e.v) in seen:
            out.append(f"{tag}: duplicate directed edge")
        seen.add((e.u, e.v))
        if not (e.d > 0 and math.isfinite(e.d)):
            out.append(f"{tag}: cost d must be strictly positive")
        if e.c < 0:
            out.append(f"{tag}: negative battery drain")
        if e.z < 0:
            out.append(f"{tag}: negative recharge")
        if e.gliding and e.c != 0:
            out.append(f"{tag}: gliding edge with nonzero drain")
    return out


def replay(instance: Instance, path, gen):
    """Recompute battery/fuel traces for a path and generator schedule.

    Applies the resource update rule independently of any solver code:
    over edge (u, v) with generator setting g, the startup drain v0 applies
    when the generator switches off->on; drain and startup are debited and
    checked against bmin before the recharge is credited and clamped at
    bmax; fuel decreases by z whenever the generator runs.

    Returns ``(battery, fuel, violation)`` where ``violation`` is None if
    the schedule is feasible, else a string naming the first failure.  The
    traces are filled up to (and including) the failing step.
    """
    emap = instance.edge_map
    b, q = instance.b0, instance.q0
    battery = [b]
    fuel = [q]
    prev_on = False
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        e = emap.get((u, v))
        if e is None:
            return battery, fuel, f"no edge {u}->{v} in instance"
        g = gen[i]
        if g and not e.gen_allowed:
            return battery, fuel, f"generator on over noise-restricted edge {u}->{v}"
        startup = instance.v if (g and not prev_on) else 0
        mid = b - e.c - startup
        if mid < instance.bmin:
            return battery, fuel, f"battery below bmin entering node {v}"
        b = min(instance.bmax, mid + (e.z if g else 0))
        q = q - (e.z if g else 0)
        if q < 0:
            return battery, fuel, f"fuel exhausted at node {v}"
        battery.append(b)
        fuel.append(q)
        prev_on = g
    return battery, fuel, None


def build_solution(instance: Instance, path, gen) -> Solution:
    """Assemble a Solution from a path and schedule, raising if infeasible."""
    battery, fuel, violation = replay(instance, path, gen)
    if violation is not None:
        raise ValueError(violation)
    return Solution(
        path=tuple(path),
        gen=tuple(bool(g) for g in gen),
        cost=path_cost(instance, tuple(path)),
        battery=tuple(battery),
        fuel=tuple(fuel),
    )


def check_solution(instance: Instance, solution: Solution) -> Optional[str]:
    """Independent feasibility check; returns the first violated constraint.

    Recomputes the resource traces from scratch (see :func:`replay`) and
    verifies every Solution invariant.  Returns None when feasible.
    """
    path = solution.path
    if len(path) < 2:
        return "path must contain at least two nodes"
    if len(solution.gen) != len(path) - 1:
        return "gen length does not match path"
    if len(solution.battery) != len(path) or len(solution.fuel) != len(path):
        return "trace length does not match path"
    if path[0] != instance.start:
        return f"path starts at {path[0]}, not start node {instance.start}"
    if path[-1] != instance.goal:
        return f"path ends at {path[-1]}, not goal node {instance.goal}"
    seen = set()
    for node in path:
        if node in seen:
            return f"node {node} repeated in path"
        seen.add(node)

    battery, fuel, violation = replay(instance, path, solution.gen)
    if violation is not None:
        return violation
    for i, node in enumerate(path):
        if not (instance.bmin <= solution.battery[i] <= instance.bmax):
            return f"battery out of [bmin, bmax] at node {node}"
        if solution.fuel[i] < 0:
            return f"negative fuel at node {node}"
        if i > 0 and solution.fuel[i] > solution.fuel[i - 1]:
            return f"fuel increases at node {node}"
        if solution.battery[i] != battery[i]:
            return f"battery trace mismatch at node {node}"
        if solution.fuel[i] != fuel[i]:
            return f"fuel trace mismatch at node {node}"

    expected = path_cost(instance, path)
    if solution.cost != expected:
        return f"cost mismatch: stated {solution.cost!r}, edges sum to {expected!r}"
    return None


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

# JSON numbers parse to exactly these types; bool, a subclass of int,
# is excluded by the exact-type test.
_NUMBER_TYPES = (int, float)


def _number(value, key: str, where: str = "document"):
    """``value`` when it is a JSON number; anything else (a boolean, a
    string, null) raises FormatError rather than being coerced."""
    if type(value) not in _NUMBER_TYPES:
        raise FormatError(f"{where} field '{key}' must be a number")
    return value


def _integer(value, key: str, where: str = "document") -> int:
    if type(value) is not int:
        raise FormatError(f"{where} field '{key}' must be an integer")
    return value


def _boolean(value, key: str, where: str = "document") -> bool:
    if type(value) is not bool:
        raise FormatError(f"{where} field '{key}' must be true or false")
    return value


def _units(value, quantization: float, key: str,
           where: str = "document") -> Tuple[int, float]:
    """Convert a nominal quantity to integer units (round half to even).

    Raises FormatError unless ``value`` is a finite number."""
    value = _number(value, key, where)
    try:
        units = round(value / quantization)
    except (OverflowError, ValueError):  # infinite, NaN or too large
        raise FormatError(f"{where} field '{key}' must be finite") from None
    return units, abs(units * quantization - value)


def _require(doc: dict, key: str, where: str = "document"):
    if key not in doc:
        raise FormatError(f"{where} missing required field '{key}'")
    return doc[key]


def _list(doc: dict, key: str) -> list:
    value = _require(doc, key)
    if type(value) is not list:
        raise FormatError(f"field '{key}' must be a list")
    return value


def _parse(data) -> dict:
    """Decode a JSON document (bytes or str) whose root must be an object."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except UnicodeDecodeError as exc:
        raise FormatError(f"invalid JSON: not UTF-8 text ({exc})") from exc
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("document root must be an object")
    return doc


def loads(data) -> Instance:
    """Parse an instance document (bytes or str).

    Raises FormatError on malformed input and InvalidInstanceError when the
    parsed instance violates model invariants.
    Real-valued resource inputs are rounded to integer units; a warning
    reports the largest rounding error when it is non-negligible.
    """
    doc = _parse(data)

    quantization = float(_number(doc.get("quantization", DEFAULT_QUANTIZATION),
                                 "quantization"))
    if not (quantization > 0 and math.isfinite(quantization)):
        raise FormatError("field 'quantization' must be a positive number")

    nodes = []
    for i, coord in enumerate(_list(doc, "nodes")):
        if not isinstance(coord, list) or len(coord) not in (2, 3):
            raise FormatError(f"nodes[{i}] must be [x, y] or [x, y, z]")
        if any(type(x) not in _NUMBER_TYPES for x in coord):
            raise FormatError(f"nodes[{i}] coordinates must be numbers")
        nodes.append(tuple(float(x) for x in coord))

    max_err = 0.0
    edges: List[EdgeParams] = []
    for i, rec in enumerate(_list(doc, "edges")):
        where = f"edges[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where} must be an object")
        u = _integer(_require(rec, "u", where), "u", where)
        v = _integer(_require(rec, "v", where), "v", where)
        d = float(_number(_require(rec, "d", where), "d", where))
        c, err_c = _units(_require(rec, "c", where), quantization, "c", where)
        z, err_z = _units(_require(rec, "z", where), quantization, "z", where)
        max_err = max(max_err, err_c, err_z)
        gen_allowed = _boolean(rec.get("gen_allowed", True), "gen_allowed",
                               where)
        gliding = _boolean(rec.get("gliding", False), "gliding", where)
        edges.append(EdgeParams(u, v, d, c, z, gen_allowed, gliding))
        if _boolean(rec.get("undirected", False), "undirected", where):
            edges.append(EdgeParams(v, u, d, c, z, gen_allowed, gliding))

    resources = {}
    for key in _RESOURCE_KEYS:
        val, err = _units(_require(doc, key), quantization, key)
        resources[key] = val
        max_err = max(max_err, err)
    if max_err > 1e-9 * quantization:
        warnings.warn(
            f"resource values rounded to {quantization} units "
            f"(max rounding error {max_err:.3e})",
            stacklevel=2,
        )

    meta = doc.get("meta")
    if meta is not None and type(meta) is not dict:
        raise FormatError("field 'meta' must be an object")
    instance = Instance(
        nodes=tuple(nodes),
        edges=tuple(edges),
        start=_integer(_require(doc, "start"), "start"),
        goal=_integer(_require(doc, "goal"), "goal"),
        quantization=quantization,
        meta=meta,
        **resources,
    )
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)
    return instance


def dumps(instance: Instance) -> str:
    """Serialize to the canonical document form.

    Opposite directed edges with identical parameters merge back into one
    ``undirected: true`` record; records are emitted in (u, v) order, one
    per line, so equal instances serialize to identical bytes.
    """
    q = instance.quantization
    emap = instance.edge_map
    records = []
    for e in sorted(instance.edges, key=lambda e: (e.u, e.v)):
        rev = emap.get((e.v, e.u))
        undirected = (
            rev is not None
            and (rev.d, rev.c, rev.z, rev.gen_allowed, rev.gliding)
            == (e.d, e.c, e.z, e.gen_allowed, e.gliding)
        )
        if undirected and e.v < e.u:
            continue  # written as the (v, u) record
        rec = {
            "u": e.u,
            "v": e.v,
            "d": e.d,
            "c": e.c * q,
            "z": e.z * q,
            "gen_allowed": e.gen_allowed,
            "gliding": e.gliding,
            "undirected": undirected,
        }
        records.append(json.dumps(rec))

    lines = ["{"]
    lines.append('"nodes": [')
    node_lines = [json.dumps(list(c)) for c in instance.nodes]
    lines.append(",\n".join(node_lines))
    lines.append("],")
    lines.append('"edges": [')
    lines.append(",\n".join(records))
    lines.append("],")
    for key, val in (
        ("start", instance.start),
        ("goal", instance.goal),
        ("b0", instance.b0 * q),
        ("bmin", instance.bmin * q),
        ("bmax", instance.bmax * q),
        ("q0", instance.q0 * q),
        ("v", instance.v * q),
        ("quantization", q),
    ):
        lines.append(f'"{key}": {json.dumps(val)},')
    meta = instance.meta if instance.meta is not None else {}
    lines.append(f'"meta": {json.dumps(meta, sort_keys=True)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load(path) -> Instance:
    with open(path, "rb") as fh:
        return loads(fh.read())


def save(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance))


# ---------------------------------------------------------------------------
# Solution files
# ---------------------------------------------------------------------------

def solution_dumps(instance: Instance, solution: Solution) -> str:
    q = instance.quantization
    doc = {
        "path": list(solution.path),
        "gen": [bool(g) for g in solution.gen],
        "cost": solution.cost,
        "battery": [b * q for b in solution.battery],
        "fuel": [f * q for f in solution.fuel],
    }
    return json.dumps(doc, indent=1) + "\n"


def solution_loads(data, instance: Instance) -> Solution:
    doc = _parse(data)
    q = instance.quantization
    return Solution(
        path=tuple(_integer(n, "path") for n in _list(doc, "path")),
        gen=tuple(_boolean(g, "gen") for g in _list(doc, "gen")),
        cost=float(_number(_require(doc, "cost"), "cost")),
        battery=tuple(_units(b, q, "battery")[0]
                      for b in _list(doc, "battery")),
        fuel=tuple(_units(f, q, "fuel")[0] for f in _list(doc, "fuel")),
    )
