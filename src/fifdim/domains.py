"""Attractor domains and their similarity maps.

Three built-in domain variants:

- interval with arbitrary knots and a signature bit per piece
  (orientation-reversing pieces allowed),
- m-dimensional cube as a tensor product of interval axes,
- Sierpinski gasket over an equilateral triangle, refined to level n.

All maps are diagonal affine contractions ``x -> scale * x + offset``;
compositions stay in that family, which keeps cell enumeration and
address decoding cheap.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineMap",
    "Box",
    "Triangle",
    "Domain",
    "DomainGeometry",
    "DomainError",
    "interval_domain",
    "cube_domain",
    "gasket_domain",
    "build_interval_maps",
    "cells",
    "vertex_set",
    "geometry_constants",
    "dedup_points",
    "point_keys",
    "unique_rows",
    "cell_budget",
    "BudgetError",
]

DEFAULT_CELL_BUDGET = 10_000_000


class BudgetError(ValueError):
    """A computation would materialise more cells than the cell budget."""


def cell_budget() -> int:
    """Cell-count guard; override with the FIF_CELL_BUDGET env var."""
    raw = os.environ.get("FIF_CELL_BUDGET")
    if not raw:
        return DEFAULT_CELL_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise BudgetError(
            f"FIF_CELL_BUDGET must be a positive integer, got {raw!r}"
        )
    return budget


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class AffineMap:
    """Diagonal affine map x -> scale * x + offset on R^m."""

    scale: tuple[float, ...]
    offset: tuple[float, ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) * np.asarray(self.scale) + np.asarray(self.offset)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y) - np.asarray(self.offset)) / np.asarray(self.scale)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other (self o other)."""
        s = tuple(a * b for a, b in zip(self.scale, other.scale))
        o = tuple(
            a * b + c for a, b, c in zip(self.scale, other.offset, self.offset)
        )
        return AffineMap(s, o)

    @property
    def ratio(self) -> float:
        """Euclidean contraction ratio (max per-axis |scale|)."""
        return max(abs(a) for a in self.scale)

    @property
    def min_axis_ratio(self) -> float:
        return min(abs(a) for a in self.scale)


# --------------------------------------------------------------------------
# Regions


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; regions of interval and cube cells."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.lo)

    def bounding_box(self):
        return np.asarray(self.lo, float), np.asarray(self.hi, float)

    @property
    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    @property
    def min_side(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.min(hi - lo))

    def _axis_counts(self, depth: int) -> int:
        n = 2**depth + 1
        if self.m > 1:
            # keep the total sample count desk-scale for multivariate boxes
            n = min(n, max(3, int(round(200_000 ** (1.0 / self.m)))))
        return n

    def sample_points(self, depth: int) -> np.ndarray:
        lo, hi = self.bounding_box()
        n = self._axis_counts(depth)
        axes = [np.linspace(lo[u], hi[u], n) for u in range(self.m)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)

    def mesh_diameter(self, depth: int) -> float:
        lo, hi = self.bounding_box()
        n = self._axis_counts(depth)
        return float(np.linalg.norm((hi - lo) / (n - 1)))

    def image(self, f: AffineMap) -> "Box":
        a = f(np.asarray(self.lo, float))
        b = f(np.asarray(self.hi, float))
        return Box(tuple(np.minimum(a, b)), tuple(np.maximum(a, b)))


@dataclass(frozen=True)
class Triangle:
    """Triangular region; cells of the gasket domain."""

    verts: tuple[tuple[float, float], ...]  # 3 vertices

    @property
    def m(self) -> int:
        return 2

    def bounding_box(self):
        v = np.asarray(self.verts, float)
        return v.min(axis=0), v.max(axis=0)

    @property
    def diameter(self) -> float:
        v = np.asarray(self.verts, float)
        d = [np.linalg.norm(v[i] - v[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        return float(max(d))

    @property
    def min_side(self) -> float:
        v = np.asarray(self.verts, float)
        d = [np.linalg.norm(v[i] - v[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        return float(min(d))

    def sample_points(self, depth: int) -> np.ndarray:
        # barycentric grid (i, j, n - i - j), i outer and j inner
        n = min(2**depth, 512)
        v = np.asarray(self.verts, float)
        counts = n + 1 - np.arange(n + 1)
        i = np.repeat(np.arange(n + 1), counts)
        j = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        k = n - i - j
        return (i[:, None] * v[0] + j[:, None] * v[1] + k[:, None] * v[2]) / n

    def mesh_diameter(self, depth: int) -> float:
        n = min(2**depth, 512)
        return self.diameter / n

    def image(self, f: AffineMap) -> "Triangle":
        return Triangle(tuple(tuple(f(np.asarray(p, float))) for p in self.verts))


# --------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class Axis:
    knots: tuple[float, ...]
    signature: tuple[int, ...]


@dataclass(frozen=True)
class Domain:
    kind: str  # "interval" | "cube" | "gasket"
    maps: tuple[AffineMap, ...]
    v0: tuple[tuple[float, ...], ...]  # boundary vertex set V_0
    base: Box | Triangle  # the attractor K (its region)
    axes: tuple[Axis, ...] = ()
    level: int = 0  # gasket refinement level n

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def N(self) -> int:
        return len(self.maps)

    @property
    def v0_array(self) -> np.ndarray:
        return np.asarray(self.v0, float)


@dataclass(frozen=True)
class DomainGeometry:
    lam: float  # 1/lam = max contraction ratio
    lam0: float  # 1/lam0 = min per-axis contraction ratio
    N: int
    diameter: float  # |K|
    min_side: float  # |K|_0


def build_interval_maps(
    knots: tuple[float, ...], signature: tuple[int, ...]
) -> list[AffineMap]:
    """One affine piece per knot interval, oriented per the signature bit."""
    knots = tuple(float(k) for k in knots)
    if not all(map(math.isfinite, knots)) or any(
        not b > a for a, b in zip(knots, knots[1:])
    ):
        raise DomainError("knots must be finite and strictly increasing")
    n = len(knots) - 1
    if len(signature) != n:
        raise DomainError(f"signature must have length {n}")
    if any(b not in (0, 1) for b in signature):
        raise DomainError("signature bits must be 0 or 1")
    x0, xn = knots[0], knots[-1]
    span = xn - x0
    maps = []
    for i in range(1, n + 1):
        eps = signature[i - 1]
        a = (knots[i - eps] - knots[i - 1 + eps]) / span
        b = (knots[i - 1 + eps] * xn - knots[i - eps] * x0) / span
        maps.append(AffineMap((a,), (b,)))
    return maps


def interval_domain(knots, signature) -> Domain:
    maps = build_interval_maps(tuple(knots), tuple(signature))
    knots = tuple(float(k) for k in knots)
    base = Box((knots[0],), (knots[-1],))
    v0 = ((knots[0],), (knots[-1],))
    return Domain(
        kind="interval",
        maps=tuple(maps),
        v0=v0,
        base=base,
        axes=(Axis(knots, tuple(signature)),),
    )


def cube_domain(axes: list[tuple[tuple[float, ...], tuple[int, ...]]]) -> Domain:
    """Tensor-product domain; ``axes`` is a list of (knots, signature)."""
    if len(axes) < 2:
        raise DomainError("cube domain needs m >= 2 axes")
    per_axis_maps = [build_interval_maps(tuple(k), tuple(s)) for k, s in axes]
    m = len(axes)
    lo = tuple(float(k[0]) for k, _ in axes)
    hi = tuple(float(k[-1]) for k, _ in axes)
    maps = []
    for combo in itertools.product(*per_axis_maps):
        scale = tuple(mp.scale[0] for mp in combo)
        offset = tuple(mp.offset[0] for mp in combo)
        maps.append(AffineMap(scale, offset))
    v0 = tuple(itertools.product(*[(a, b) for a, b in zip(lo, hi)]))
    return Domain(
        kind="cube",
        maps=tuple(maps),
        v0=v0,
        base=Box(lo, hi),
        axes=tuple(Axis(tuple(float(x) for x in k), tuple(s)) for k, s in axes),
    )


def gasket_domain(vertices, n: int = 1) -> Domain:
    """Sierpinski gasket over an equilateral triangle, IFS refined to level n.

    The level-n IFS is {l_w : w in {1,2,3}^n} with all ratios 2^-n; the
    interpolation nodes are V = V_n.
    """
    v = np.asarray(vertices, float)
    if v.shape != (3, 2):
        raise DomainError("gasket needs exactly 3 planar vertices")
    sides = [np.linalg.norm(v[i] - v[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    if max(sides) - min(sides) > 1e-9 * max(sides):
        raise DomainError("gasket vertices must form an equilateral triangle")
    if n < 1:
        raise DomainError("gasket level must be >= 1")
    basic = [AffineMap((0.5, 0.5), (v[i, 0] / 2, v[i, 1] / 2)) for i in range(3)]
    maps = []
    for word in itertools.product(range(3), repeat=n):
        f = basic[word[0]]
        for w in word[1:]:
            f = f.compose(basic[w])
        maps.append(f)
    return Domain(
        kind="gasket",
        maps=tuple(maps),
        v0=tuple(tuple(p) for p in v),
        base=Triangle(tuple(tuple(p) for p in v)),
        level=n,
    )


# --------------------------------------------------------------------------
# Enumeration


def compose_word(d: Domain, word: tuple[int, ...]) -> AffineMap:
    """l_word = l_{w1} o l_{w2} o ... o l_{wk} (0-based indices)."""
    f = d.maps[word[0]]
    for w in word[1:]:
        f = f.compose(d.maps[w])
    return f


def cells(d: Domain, k: int):
    """Yield (word, region) for every level-k cell, lexicographic order."""
    if k < 1:
        raise DomainError("cell level must be >= 1")
    if d.N**k > cell_budget():
        raise BudgetError(
            f"cell enumeration N^k = {d.N}**{k} exceeds the cell budget"
        )
    for word in itertools.product(range(d.N), repeat=k):
        yield word, d.base.image(compose_word(d, word))


def point_keys(pts: np.ndarray, resolution: float) -> np.ndarray:
    """Integer grid keys used for float-robust point identity."""
    return np.round(np.asarray(pts, float) / resolution).astype(np.int64)


def unique_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of ``np.unique(keys, axis=0, ...)`` for (n, m)
    integer keys, from 1-D uniques: each column joins as its rank, packed
    as row rank so far * distinct count + rank.  That stays below n^2 (the
    raw keys need ~68 bits for two axes at 1e-10 resolution) and keeps the
    rows in lexicographic order, so both arrays are unchanged."""
    _, first, inverse = np.unique(
        keys[:, 0], return_index=True, return_inverse=True
    )
    for col in keys[:, 1:].T:
        values, rank = np.unique(col, return_inverse=True)
        _, first, inverse = np.unique(
            inverse * len(values) + rank, return_index=True, return_inverse=True
        )
    return first, inverse


def dedup_points(pts: np.ndarray, resolution: float) -> np.ndarray:
    first, _ = unique_rows(point_keys(pts, resolution))
    return pts[np.sort(first)]


def vertex_set(d: Domain, k: int) -> np.ndarray:
    """Level-k vertex set V_k as a deduplicated (n, m) array; V_0 for k=0."""
    if k < 0:
        raise DomainError("vertex level must be >= 0")
    res = 1e-10 * max(d.base.diameter, 1.0)
    pts = d.v0_array
    for _ in range(k):
        imgs = [mp(pts) for mp in d.maps]
        pts = dedup_points(np.concatenate(imgs, axis=0), res)
    return pts


def geometry_constants(d: Domain) -> DomainGeometry:
    rmax = max(mp.ratio for mp in d.maps)
    rmin = min(mp.min_axis_ratio for mp in d.maps)
    return DomainGeometry(
        lam=1.0 / rmax,
        lam0=1.0 / rmin,
        N=d.N,
        diameter=d.base.diameter,
        min_side=d.base.min_side,
    )
