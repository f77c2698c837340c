"""Attractor domains and their similarity maps.

Two domain types, and every per-domain decision of the library:

- ``ProductDomain``: m >= 1 interval axes, each with arbitrary knots and a
  signature bit per piece (orientation-reversing pieces allowed); the
  interval is the 1-axis product, an m-cube the m-axis one;
- ``GasketDomain``: the Sierpinski gasket over an equilateral triangle,
  its IFS refined to level n.

Both provide the same operations: address decoding (``Domain.decode``,
by the region's ``outside``), the push plans that build V_k level by
level (``plans``), dim K (``dim``), whether cells meet only in points
(``pcf``), the analysis defaults (one rule in N and |V_0|), the
default displacement family, the sampling region ``base`` whose samples
are points of K, and the IFS constants Lambda, Lambda_0, |K| and delta_k
that every bound is stated in.  ``kind`` is a read-only label.

All maps are diagonal affine contractions ``x -> scale * x + offset``,
which keeps address decoding cheap.
A vertex of V_k is known by its address, never by its float point: which
images of V_(k-1) repeat a vertex follows from the IFS (``plans``).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineMap",
    "Box",
    "Triangle",
    "Domain",
    "ProductDomain",
    "GasketDomain",
    "DomainError",
    "interval_domain",
    "cube_domain",
    "gasket_domain",
    "product_domain",
    "build_interval_maps",
    "vertex_set",
    "node_indices",
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

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x * scale + offset, by axis: a broadcast of scale loops m at a time."""
        x = np.asarray(x, float)
        out = np.empty_like(x) if out is None else out
        for a, (s, o) in enumerate(zip(self.scale, self.offset)):
            np.add(np.multiply(x[..., a], s, out=out[..., a]), o, out=out[..., a])
        return out

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


# --------------------------------------------------------------------------
# Regions


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; the region of a product domain."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.lo)

    def bounding_box(self):
        return np.asarray(self.lo, float), np.asarray(self.hi, float)

    _bounds = functools.cached_property(bounding_box)  # read at every decode

    @property
    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

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

    def outside(self, y: np.ndarray) -> np.ndarray:
        """How far each point of ``y`` (..., m) lies past the box's sides
        (negative inside: minus the distance to the nearest side)."""
        lo, hi = self._bounds
        return functools.reduce(np.maximum, (
            np.maximum(lo[a] - y[..., a], y[..., a] - hi[a]) for a in range(self.m)))


@dataclass(frozen=True)
class Triangle:
    """Triangle spanned by the gasket; its samples are points of the gasket
    K over it, not of the filled triangle, so a sup over them never
    exceeds the sup over K."""

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

    @functools.lru_cache(maxsize=8)  # each constant's audit samples V_6
    def sample_points(self, depth: int) -> np.ndarray:
        """V_min(depth, 9) of the gasket (read-only): V_0 halved to each vertex."""
        pts = vertex_set(gasket_domain(self.verts), min(depth, 9))
        pts.flags.writeable = False
        return pts

    def mesh_diameter(self, depth: int) -> float:
        # every point of K lies in a level-k cell, within its side of V_k
        return self.diameter / 2 ** min(depth, 9)

    @functools.cached_property
    def _sides(self) -> np.ndarray:
        """[y, 1] @ this: y's barycentric coordinates times the height."""
        v = np.column_stack([np.asarray(self.verts, float), np.ones(3)])
        return np.linalg.inv(v) * (self.diameter * 3**0.5 / 2)

    def outside(self, y: np.ndarray) -> np.ndarray:
        """How far each point of ``y`` (..., 2) lies past the nearest side
        line of the triangle (negative inside)."""
        x, z = y[..., 0], y[..., 1]
        return -functools.reduce(np.minimum, (  # per side, as [y, 1] @ _sides
            x * a + z * b + c for a, b, c in self._sides.T.tolist()))


# --------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class Axis:
    knots: tuple[float, ...]
    signature: tuple[int, ...]


@dataclass(frozen=True)
class Domain:
    """What both domain types share: the IFS maps, V_0 and the region."""

    maps: tuple[AffineMap, ...]
    v0: tuple[tuple[float, ...], ...]  # boundary vertex set V_0
    base: Box | Triangle  # sampling region; its samples are points of K
    axes: tuple[Axis, ...] = ()

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def N(self) -> int:
        return len(self.maps)

    @property
    def v0_array(self) -> np.ndarray:
        return np.asarray(self.v0, float)

    @property
    def lam(self) -> float:  # Lambda: 1 / the largest contraction ratio
        return 1.0 / max(mp.ratio for mp in self.maps)

    @property
    def lam0(self) -> float:  # Lambda_0: 1 / the smallest per-axis |scale|
        return 1.0 / min(abs(a) for mp in self.maps for a in mp.scale)

    @property
    def homogeneous(self) -> bool:  # every map scales every axis by one ratio
        return self.lam0 <= self.lam * (1 + 1e-9)

    @property
    def diameter(self) -> float:  # |K|
        return self.base.diameter

    @functools.cached_property
    def resolution(self) -> float:  # tolerance of point identity on K
        return 1e-10 * max(self.base.diameter, 1.0)

    def delta(self, k: int) -> float:  # level-tied box size |K| / Lambda^k
        return self.diameter / self.lam**k

    def slots(self, k: int) -> int:  # N^k |V_0|, the vertex slots of level k
        return self.N**k * len(self.v0)

    def analysis_defaults(self) -> dict[str, int]:
        """k_min, k_max, sample_depth and seminorm_kmax by slots(k) and B =
        DEFAULT_CELL_BUDGET, not FIF_CELL_BUDGET, so a config runs alike
        everywhere: k_min the least k >= 2 of 2^7 slots or more, k_max the
        last k of B / 64 at most (k_min + 1 at least), sample_depth the last
        of 2^12 at most, seminorm_kmax the last k >= 1 with slots(k + 2) <= B."""
        def last(lo: int, cap: int) -> int:  # slots(63) > cap, as N >= 2
            return max(itertools.takewhile(lambda k: self.slots(k) <= cap,
                                           range(lo + 1, 64)), default=lo)
        k_min = next(k for k in range(2, 64) if self.slots(k) >= 2**7)
        return {"k_min": k_min, "k_max": last(k_min + 1, DEFAULT_CELL_BUDGET // 64),
                "sample_depth": last(0, 2**12),
                "seminorm_kmax": last(3, DEFAULT_CELL_BUDGET) - 2}

    def too_fine(self) -> str:
        """Why two vertices of V_1 may lie within ``resolution``, or "":
        their least axis spacing, V_0's / Lambda_0, is <= resolution plus
        the round-off of one push, 8 eps |x|_max / (1 - 1 / Lambda)."""
        gaps = abs(self.v0_array[:, None] - self.v0_array).max(axis=-1)
        bound = gaps[gaps > 0].min() / self.lam0
        far = np.abs(self.base.bounding_box()).max()
        roundoff = 8 * np.finfo(float).eps * far / (1 - 1 / self.lam)
        return "" if bound > self.resolution + roundoff else (
            f"level 1: vertex spacing bound {bound:.3e} is not above "
            f"the point resolution {self.resolution:.3e}")

    @functools.cached_property
    def map_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The scales and the offsets of the maps, as (N, m) arrays."""
        return (np.array([mp.scale for mp in self.maps]),
                np.array([mp.offset for mp in self.maps]))

    def plans(self) -> Iterator[tuple]:
        """The push plan (keep, drop, partner) of each level k = 1, 2, ...:
        of the N |V_(k-1)| slots, i |V_(k-1)| + r being l_i of row r, V_k is
        those under ``keep``, in order; slot ``drop[j]`` repeats the first
        slot of its vertex, ``partner[j]``.  On a p.c.f. domain cells meet
        only in images of V_0, so the repeats of level k are the level-1
        junctions l_i(v_a) = l_j(v_b), j < i, at V_0's rows in V_(k-1)."""
        v0 = self.v0_array
        img = np.concatenate([mp(v0) for mp in self.maps])
        first, home = (  # the first slot within resolution of each point
            (np.abs(x[:, None] - img).max(axis=-1) <= self.resolution).argmax(axis=1)
            for x in (img, v0))
        dup = np.flatnonzero(first < np.arange(len(img)))
        pos, n = np.arange(len(v0)), len(v0)
        while True:
            slot = (np.arange(self.N)[:, None] * n + pos).ravel()
            drop, at = slot[dup], slot[home]
            keep = np.ones(self.N * n, bool)
            keep[drop] = False
            yield keep, drop, slot[first[dup]]
            pos, n = at - (drop < at[:, None]).sum(axis=1), self.N * n - len(dup)

    def decode(self, x: np.ndarray) -> tuple[int, np.ndarray, float]:
        """(i, y, outside): the map i whose pre-image y = l_i^-1(x) lies
        deepest in the region, and ``base.outside(y)``, which is <= 0 up to
        round-off for a point x of K."""
        scale, offset = self.map_arrays
        ys = (x - offset) / scale
        out = self.base.outside(ys)
        i = int(out.argmin())
        return i, ys[i], float(out[i])


@dataclass(frozen=True)
class ProductDomain(Domain):
    """Tensor product of m >= 1 interval axes; maps in row-major order of
    the per-axis pieces."""

    default_family = "multilinear"  # every J; on an interval [{}, {1}]

    @property
    def kind(self) -> str:
        return "interval" if self.m == 1 else "cube"

    @property
    def dim(self) -> float:
        return float(self.m)

    @property
    def pcf(self) -> bool:
        # interval cells meet in knots; cube cells share faces
        return self.m == 1

    def plans(self) -> Iterator[tuple]:
        """The push plans of levels 1, 2, ...; on a cube, by axis index.  On
        axis u, V_(k-1) has indices 0..G_u = P_u^(k-1), and l_c maps index x
        to c_u G_u + x, or c_u G_u + G_u - x if it flips axis u.  A slot
        repeats one exactly when that is, on some axis, the start of a piece
        c_u > 0.  Its partner, the one kept slot of its grid point, is l_c'
        of the row x', c' stepping each such axis down a piece and x' taking
        there the index that l_c' maps to that piece's end."""
        if self.pcf:
            yield from super().plans()
            return
        m, P = self.m, np.array([len(ax.knots) - 1 for ax in self.axes])
        pieces, flips = np.array(list(np.ndindex(*P))).T, self.map_arrays[0].T < 0
        sign, later = np.where(flips, -1, 1)[..., None], (pieces > 0)[..., None]
        idx = np.array(list(np.ndindex(*(2,) * m))).T  # axis-major (m, n)
        size = np.ones(m, int)
        while True:
            n = idx.shape[1]
            starts = ((idx[:, None] == (flips * size[:, None])[..., None]) & later).reshape(m, -1)
            keep = ~starts.any(axis=0)
            drop = np.flatnonzero(~keep)
            step, (i, r) = starts[:, drop], np.divmod(drop, n)
            c = np.ravel_multi_index(pieces[:, i] - step, P)
            x = np.where(step, np.where(flips[:, c], 0, size[:, None]), idx[:, r])
            row = np.empty(n, np.intp)  # the row of each grid point of V_(k-1)
            row[np.ravel_multi_index(idx, size + 1)] = np.arange(n)
            yield keep, drop, c * n + row[np.ravel_multi_index(x, size + 1)]
            img = sign * idx[:, None] + ((pieces + flips) * size[:, None])[..., None]
            idx, size = img.reshape(m, -1).compress(keep, axis=1), P * size


@dataclass(frozen=True)
class GasketDomain(Domain):
    """Sierpinski gasket; the maps are the level-n words l_w, w in {1,2,3}^n."""

    level: int = 1
    kind = "gasket"
    dim = math.log(3) / math.log(2)
    pcf = True
    default_family = "affine"


def build_interval_maps(
    knots: tuple[float, ...], signature: tuple[int, ...]
) -> list[AffineMap]:
    """One affine piece per knot interval, oriented per the signature bit."""
    knots = tuple(float(k) for k in knots)
    if len(knots) < 2 or not all(map(math.isfinite, knots)) or any(
        not b > a for a, b in zip(knots, knots[1:])
    ):
        raise DomainError("knots must be two or more, finite and strictly increasing")
    n = len(knots) - 1
    if len(signature) != n:
        raise DomainError(f"signature must have length {n}")
    if any(b not in (0, 1) for b in signature):
        raise DomainError("signature bits must be 0 or 1")
    x0, span = knots[0], knots[-1] - knots[0]
    maps = []
    for i in range(1, n + 1):
        eps = signature[i - 1]
        a = (knots[i - eps] - knots[i - 1 + eps]) / span
        # x0 goes to knots[i - 1 + eps]; b from that end does not cancel
        maps.append(AffineMap((a,), (knots[i - 1 + eps] - a * x0,)))
    return maps


def product_domain(
    axes: list[tuple[tuple[float, ...], tuple[int, ...]]]
) -> ProductDomain:
    """Tensor-product domain; ``axes`` is a list of (knots, signature)."""
    per_axis_maps = [build_interval_maps(tuple(k), tuple(s)) for k, s in axes]
    lo = tuple(float(k[0]) for k, _ in axes)
    hi = tuple(float(k[-1]) for k, _ in axes)
    maps = [AffineMap(tuple(mp.scale[0] for mp in combo),
                      tuple(mp.offset[0] for mp in combo))
            for combo in itertools.product(*per_axis_maps)]
    v0 = tuple(itertools.product(*[(a, b) for a, b in zip(lo, hi)]))
    return ProductDomain(
        maps=tuple(maps),
        v0=v0,
        base=Box(lo, hi),
        axes=tuple(Axis(tuple(float(x) for x in k), tuple(s)) for k, s in axes),
    )


def interval_domain(knots, signature) -> ProductDomain:
    """The interval [knots[0], knots[-1]] as the 1-axis product domain."""
    return product_domain([(knots, signature)])


def cube_domain(axes: list[tuple[tuple[float, ...], tuple[int, ...]]]) -> ProductDomain:
    if len(axes) < 2:
        raise DomainError("cube domain needs m >= 2 axes")
    return product_domain(axes)


def gasket_domain(vertices, n: int = 1) -> GasketDomain:
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
    # l_w = l_{w_1} o .. o l_{w_n}, composed from the left
    maps = [functools.reduce(AffineMap.compose, (basic[w] for w in word))
            for word in itertools.product(range(3), repeat=n)]
    return GasketDomain(
        maps=tuple(maps),
        v0=tuple(tuple(p) for p in v),
        base=Triangle(tuple(tuple(p) for p in v)),
        level=n,
    )


# --------------------------------------------------------------------------
# Point sets


def node_indices(nodes: np.ndarray, pts, resolution: float) -> list[int | None]:
    """The row of ``nodes`` nearest each point of ``pts`` in the max norm,
    if within ``resolution``; None for a point that is none of them, not
    finite or not of their dimension."""
    m = nodes.shape[1]
    on = [np.shape(pt) == (m,) and all(map(math.isfinite, pt)) for pt in pts]
    x = np.array([pt for pt, ok in zip(pts, on) if ok], float).reshape(-1, m)
    gap = np.abs(x[:, None] - nodes).max(axis=-1)
    found = iter([i if row[i] <= resolution else None
                  for row, i in zip(gap.tolist(), gap.argmin(axis=1).tolist())])
    return [next(found) if ok else None for ok in on]


def vertex_set(d: Domain, k: int) -> np.ndarray:
    """Level-k vertex set V_k as an (n, m) array, each vertex the first of
    its slots in push order (``Domain.plans``); V_0 for k=0."""
    if k < 0:
        raise DomainError("vertex level must be >= 0")
    pts = d.v0_array
    for _, (keep, _, _) in zip(range(k), d.plans()):
        pts = np.concatenate([mp(pts) for mp in d.maps]).compress(keep, axis=0)
    return pts
