"""Seeded instance generators for the two benchmark families.

``generate`` builds either family.  ``euclidean`` scatters points
uniformly in the unit square or cube and joins each to its k nearest
neighbors (undirected).  ``lattice`` builds a unit-spacing grid:
4-neighborhood in 2D; in 3D the 4 planar moves plus the same 4 combined
with one step up or down (12 per interior node, no purely vertical
move).

Shared machinery: axis-aligned noise zones are drawn (sides uniform in a
fraction range of the domain side) and zones are added or resampled until
the fraction of noise-restricted edges lands within 3 points of the
target; an edge is restricted when one zone contains both endpoints.  On
coarse graphs the window can be unreachable, in which case the closest
achieved fraction is kept and flagged in metadata.  In 3D, ascending
edges have drain and recharge scaled up, descending edges glide (no
drain, reduced recharge).  Start and goal are the farthest-apart node
pair.  Resources are calibrated from the energy of the unconstrained
shortest path: Bmax = B0 = b_frac of it, Q0 = q_frac, V = v_frac,
Bmin = 0.

Randomness contract: attempt ``i`` for seed ``s`` draws every random
quantity, in a fixed documented order, from a PCG64 stream seeded with
SeedSequence([s, i]).  The same spec therefore yields a byte-identical
instance file.  A draw whose graph leaves the goal unreachable or whose
calibrated instance has no feasible schedule (checked by an actual
solve) is discarded and the next attempt runs; discards are recorded in
instance metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from typing import List, Optional, Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from . import labeling
# sup_path stays bound here, unused: perfbench/tracing.py patches it by
# this name
from .heuristics import _sup_path_and_table, sup_path  # noqa: F401
from .instance import DEFAULT_QUANTIZATION, EdgeParams, Instance, validate

FAMILY_EUCLIDEAN = "euclidean"
FAMILY_LATTICE = "lattice"

_MAX_ATTEMPTS = 64
_MAX_ZONE_ROUNDS = 400


def _check_number(name: str, value, kind) -> None:
    """Reject a spec value that is not a finite number of ``kind``
    (booleans included), instead of coercing it."""
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be "
                         + ("an integer" if kind is Integral
                            else "a finite number"))


@dataclass(frozen=True)
class GenSpec:
    """Knobs of one generated instance.

    ``alpha`` and ``beta`` set level-flight drain and recharge per unit
    of edge cost; ``uphill_factor`` scales both on ascending edges and
    ``glide_z_factor`` scales recharge on descending (gliding) ones.
    ``b_frac``, ``q_frac`` and ``v_frac`` size battery, fuel and startup
    drain relative to the unconstrained shortest path's energy.  ``dims``
    fixes the lattice box when n_nodes is not a perfect square or cube.
    """

    n_nodes: int
    family: str = FAMILY_EUCLIDEAN
    dim: int = 2
    k_neighbors: int = 4
    noise_target: float = 0.32
    zone_count_range: Tuple[int, int] = (3, 6)
    zone_side_range: Tuple[float, float] = (0.10, 0.35)
    alpha: float = 1.0
    beta: float = 1.5
    uphill_factor: float = 1.5
    glide_z_factor: float = 0.5
    b_frac: float = 0.3
    q_frac: float = 1.2
    v_frac: float = 0.0
    quantization: float = DEFAULT_QUANTIZATION
    seed: int = 0
    dims: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        for name in ("n_nodes", "dim", "k_neighbors", "seed"):
            _check_number(name, getattr(self, name), Integral)
        for name in ("noise_target", "alpha", "beta", "uphill_factor",
                     "glide_z_factor", "b_frac", "q_frac", "v_frac",
                     "quantization"):
            _check_number(name, getattr(self, name), Real)
        for name, kind in (("zone_count_range", Integral),
                           ("zone_side_range", Real)):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"{name} must be a pair of numbers")
            for value in pair:
                _check_number(name, value, kind)
        if self.dims is not None:
            if not isinstance(self.dims, (tuple, list)):
                raise ValueError("dims must be a list of integers")
            for value in self.dims:
                _check_number("dims", value, Integral)
        if self.family not in (FAMILY_EUCLIDEAN, FAMILY_LATTICE):
            raise ValueError(f"unknown family {self.family!r}")
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if not 0 <= self.noise_target < 1:
            raise ValueError("noise_target must be in [0, 1)")
        for name in ("alpha", "beta", "uphill_factor", "glide_z_factor",
                     "b_frac", "q_frac", "v_frac"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.quantization <= 0:
            raise ValueError("quantization must be positive")
        lo, hi = self.zone_count_range
        if not (0 < lo <= hi):
            raise ValueError("zone_count_range must be a positive range")
        lo, hi = self.zone_side_range
        if not (0 < lo <= hi <= 1):
            raise ValueError("zone_side_range must be within (0, 1]")
        # lists (as JSON gives them) become tuples, so equal specs compare
        # and hash equal
        for name in ("zone_count_range", "zone_side_range"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def to_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            doc[f.name] = value
        if doc["dims"] is None:
            del doc["dims"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "GenSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**doc)


def _rng_for(seed: int, attempt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, attempt])))


def farthest_pair(points: np.ndarray) -> Tuple[int, int]:
    """Indices (i, j), i < j, of a maximum-distance point pair.

    Candidates are restricted to convex hull vertices for large inputs
    (the diameter is attained there); ties resolve to the smallest index
    pair, so lattices pick opposite corners deterministically.
    """
    n = len(points)
    cand = np.arange(n)
    if n > 400:
        try:
            cand = np.sort(ConvexHull(points).vertices)
        except QhullError:
            cand = np.arange(n)
    pts = points[cand]
    best = (-1.0, -1, -1)
    for a in range(len(cand) - 1):
        d2 = np.sum((pts[a + 1:] - pts[a]) ** 2, axis=1)
        b = int(np.argmax(d2))
        if d2[b] > best[0]:
            best = (float(d2[b]), int(cand[a]), int(cand[a + 1 + b]))
    return best[1], best[2]


def _edge_units(d: float, dz: float, spec: GenSpec) -> Tuple[int, int, bool]:
    """Quantized (drain, recharge, gliding) of a directed edge with
    altitude change ``dz``."""
    q = spec.quantization
    if dz > 0:
        c = spec.alpha * d * spec.uphill_factor
        z = spec.beta * d * spec.uphill_factor
        gliding = False
    elif dz < 0:
        c = 0.0
        z = spec.beta * d * spec.glide_z_factor
        gliding = True
    else:
        c = spec.alpha * d
        z = spec.beta * d
        gliding = False
    return round(c / q), round(z / q), gliding


def _draw_zone(rng: np.random.Generator, lo_corner: np.ndarray,
               hi_corner: np.ndarray, spec: GenSpec) -> np.ndarray:
    side = hi_corner - lo_corner
    center = lo_corner + rng.random(len(side)) * side
    half = 0.5 * side * rng.uniform(*spec.zone_side_range, size=len(side))
    return np.stack([np.maximum(center - half, lo_corner),
                     np.minimum(center + half, hi_corner)])


def _apply_noise(rng, points, pairs, spec):
    """Draw zones until the restricted-edge fraction hits the window.

    Returns (restricted boolean array over pairs, number of zones behind
    it, fraction, window_met).  Zones are added while under the window
    and redrawn from scratch when overshooting; the closest attempt wins
    if the window is never hit (coarse graphs cannot always reach it).
    Each zone is tested against the points once, when it is drawn.
    """
    if spec.noise_target == 0:
        return np.zeros(len(pairs), dtype=bool), 0, 0.0, True
    lo_corner = points.min(axis=0)
    hi_corner = points.max(axis=0)
    u, v = pairs[:, 0], pairs[:, 1]
    lo = spec.noise_target - 0.03
    hi = spec.noise_target + 0.03
    count = int(rng.integers(spec.zone_count_range[0],
                             spec.zone_count_range[1] + 1))

    def zone_mask():
        z = _draw_zone(rng, lo_corner, hi_corner, spec)
        inside = np.all((points >= z[0]) & (points <= z[1]), axis=1)
        return inside[u] & inside[v]

    def fresh_mask():
        return np.logical_or.reduce([zone_mask() for _ in range(count)])

    mask, zones = fresh_mask(), count
    best = None
    for _ in range(_MAX_ZONE_ROUNDS):
        frac = float(mask.mean())
        if best is None or abs(frac - spec.noise_target) < best[0]:
            best = (abs(frac - spec.noise_target), mask, zones, frac)
        if lo <= frac <= hi:
            return mask, zones, frac, True
        if frac < lo:
            mask, zones = mask | zone_mask(), zones + 1
        else:
            mask, zones = fresh_mask(), count
    _, mask, zones, frac = best
    return mask, zones, frac, False


def _undirected_pairs(a, b):
    """The distinct (min, max) rows of the edges a[i]-b[i], sorted."""
    return np.unique(np.sort(np.stack([a, b], axis=1), axis=1), axis=0)


def _euclidean_graph(rng, spec):
    points = rng.random((spec.n_nodes, spec.dim))
    k = min(spec.k_neighbors, spec.n_nodes - 1)
    _, idx = cKDTree(points).query(points, k=k + 1)
    return points, _undirected_pairs(np.repeat(np.arange(spec.n_nodes), k),
                                     idx[:, 1:].ravel())


def _lattice_dims(spec) -> Tuple[int, ...]:
    if spec.dims is not None:
        if len(spec.dims) != spec.dim:
            raise ValueError("dims length must equal dim")
        if any(d < 2 for d in spec.dims):
            raise ValueError("every lattice side must be at least 2")
        if math.prod(spec.dims) != spec.n_nodes:
            raise ValueError("dims product must equal n_nodes")
        return spec.dims
    if spec.dim == 2:
        side = math.isqrt(spec.n_nodes)
        if side * side != spec.n_nodes:
            raise ValueError("n_nodes must be a perfect square (or pass dims)")
        return (side, side)
    side = round(spec.n_nodes ** (1 / 3))
    if side ** 3 != spec.n_nodes:
        raise ValueError("n_nodes must be a perfect cube (or pass dims)")
    return (side, side, side)


def _lattice_graph(spec):
    dims = _lattice_dims(spec)
    ids = np.arange(spec.n_nodes).reshape(dims)
    points = np.indices(dims, dtype=float).reshape(spec.dim, -1).T
    # one move of each opposite pair: the pairs are undirected
    if spec.dim == 2:
        moves = [(1, 0), (0, 1)]
    else:
        moves = [(1, 0, 0), (0, 1, 0)]
        moves += [(px, py, dz) for px, py in ((1, 0), (0, 1))
                  for dz in (1, -1)]
    a, b = [], []
    for mv in moves:
        src = tuple(slice(max(0, -m), n - max(0, m)) for m, n in zip(mv, dims))
        dst = tuple(slice(max(0, m), n - max(0, -m)) for m, n in zip(mv, dims))
        a.append(ids[src].ravel())
        b.append(ids[dst].ravel())
    return points, _undirected_pairs(np.concatenate(a), np.concatenate(b))


def generate(spec: GenSpec) -> Instance:
    """Seeded instance of ``spec.family`` (see the module docstring)."""
    discarded = 0
    for attempt in range(_MAX_ATTEMPTS):
        rng = _rng_for(spec.seed, attempt)
        if spec.family == FAMILY_EUCLIDEAN:
            points, pairs = _euclidean_graph(rng, spec)
        else:
            points, pairs = _lattice_graph(spec)
        restricted, zone_count, frac, window_met = _apply_noise(
            rng, points, pairs, spec)

        edges: List[EdgeParams] = []
        for (a, b), noisy in zip(pairs.tolist(), restricted.tolist()):
            d = float(math.dist(points[a], points[b]))
            dz = float(points[b][-1] - points[a][-1]) if spec.dim == 3 else 0.0
            for u, v, delta in ((a, b, dz), (b, a, -dz)):
                c, z, gliding = _edge_units(d, delta, spec)
                edges.append(EdgeParams(u, v, d, c, z,
                                        gen_allowed=not noisy,
                                        gliding=gliding))

        start, goal = farthest_pair(points)
        probe = Instance(
            nodes=tuple(tuple(p) for p in points.tolist()),
            edges=tuple(edges), start=start, goal=goal,
            b0=0, bmin=0, bmax=0, q0=0, v=0,
            quantization=spec.quantization)
        try:
            # one reverse Dijkstra for the calibration path and the probe
            # solve's table: the candidate has the probe's edges
            sup, table = _sup_path_and_table(probe)
        except ValueError:
            discarded += 1
            continue
        energy = sum(probe.edge_map[(sup.path[i], sup.path[i + 1])].c
                     for i in range(len(sup.path) - 1))
        meta = dict(spec.to_dict())
        meta.update(
            noise_fraction=frac, noise_window_met=window_met,
            zone_count=zone_count, sup_energy_units=energy,
            undirected_edges=len(pairs), discarded_draws=discarded)
        candidate = replace(
            probe, b0=round(spec.b_frac * energy),
            bmax=round(spec.b_frac * energy),
            q0=round(spec.q_frac * energy), v=round(spec.v_frac * energy),
            meta=meta)
        problems = validate(candidate)
        if problems:
            raise RuntimeError(f"generator produced an invalid instance: "
                               f"{problems[0]}")
        result = labeling.solve(candidate, labeling.SolverConfig(), table)
        if result.status == labeling.STATUS_OPTIMAL:
            return candidate
        discarded += 1
    raise RuntimeError(
        f"no feasible instance in {_MAX_ATTEMPTS} attempts for seed "
        f"{spec.seed}; relax the calibration fractions")
