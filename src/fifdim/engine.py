"""Construction, validation and evaluation of fractal interpolation functions.

A model couples a domain (a product domain or the gasket, see
``domains``), data values on the interpolation nodes V, scale
expressions s_i and displacement expressions q_i.  The interpolant f* is
the unique continuous fixed point of the read-off operator T and
satisfies

    f*(l_i(x)) = s_i(x) * f*(x) + q_i(x).

A build samples each s_i and q_i once, on one grid of the region, for all
its brackets (``_brackets``: sup/inf |s_i|, sup |q_i|, ||s||_inf and M).
Evaluation on vertex sets V_k is done by exact forward recursion (no
iteration error), one deduplicated level at a time; arbitrary points go
through the domain's address decoding plus an unwound recursion with an
a-priori contraction error bound.  No code here depends on the domain
type: every decision that does is a method or property of the domain.
Graph samples of all levels come from one sweep that goes depth-first in
blocks of BLOCK_SLOTS vertex slots and folds each block into the level-k
value ranges, so memory is O(block + N^k_max) and FIF_CELL_BUDGET
(N^depth x |V_0| slots) bounds the work.  A block of 2^16 slots holds
512 KB of values and as much of points per axis, about the 2 MB of a
per-core L2 cache; 2^18 spills it, and at 2^12 per-block overhead
dominates.  The sweep carries values, and vertex points only where the
next push needs them; the one cell geometry read, interval cells in x
order with their ends, is the domain's (``ProductDomain.x_order``).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domains import (
    Box,
    BudgetError,
    Domain,
    DomainError,
    Triangle,
    cell_budget,
    point_keys,
    unique_rows,
    vertex_set,
)
from .exprs import (
    Expr,
    ShapeFacts,
    abs_brackets,
    audit_shape,
    multilinear_expr,
    normalize_facts,
)

__all__ = [
    "FAMILIES",
    "FifSpec",
    "FifModel",
    "GraphSample",
    "ModelError",
    "validate_join_up",
    "solve_q",
    "check_well_defined",
    "build_model",
    "evaluate_on_vk",
    "evaluate_at",
    "apply_T",
    "graph_sample",
    "graph_samples",
]

JOINUP_TOL = 1e-9
CONSISTENCY_TOL = 1e-9
AUDIT_TOL = 1e-7
SUP_DEPTH = 12

# displacement families solve_q fits; "sg_affine" is "affine" by its gasket name
FAMILIES = ("affine", "multilinear", "sg_affine")


class ModelError(ValueError):
    pass


@dataclass
class FifSpec:
    """Unvalidated FIF specification."""

    domain: Domain
    data: list[tuple[tuple[float, ...], float]]  # (point, value) on V
    s: list[tuple[Expr, ShapeFacts | None]]
    # (expr, facts) per map, or one of FAMILIES for solve_q to fit, or
    # "solve" (the domain's default)
    q: list[tuple[Expr, ShapeFacts | None]] | str
    eta: float = 1.0  # declared common oscillation/Hoelder exponent


def _data_dict(d: Domain, data) -> dict[tuple[int, ...], float]:
    res = d.resolution
    return {tuple(point_keys(np.asarray(pt, float), res).tolist()): float(val)
            for pt, val in data}


def _lookup(d: Domain, table, pts: np.ndarray) -> np.ndarray:
    keys = point_keys(pts, d.resolution)
    vals = np.empty(len(keys))
    for j, key in enumerate(map(tuple, keys.tolist())):
        if key not in table:
            raise ModelError(f"data missing at point {tuple(pts[j])}")
        vals[j] = table[key]
    return vals


@dataclass
class FifModel:
    """Validated model with derived constants."""

    domain: Domain
    data: dict[tuple[int, ...], float]
    s: list[tuple[Expr, ShapeFacts]]
    q: list[tuple[Expr, ShapeFacts]]
    eta: float
    s_sup: list[tuple[float, float]]  # per-map sup|s_i| brackets
    s_inf: list[tuple[float, float]]
    q_sup: list[tuple[float, float]]
    s_norm: tuple[float, float]  # ||s||_inf bracket
    M: tuple[float, float]  # max||q|| / (1 - ||s||) bracket
    joinup_residual: float

    @property
    def N(self) -> int:
        return self.domain.N

    @property
    def eta_prime(self) -> float:  # min(1, eta), the exponent of the bounds
        return min(1.0, self.eta)

    def p_at(self, pts: np.ndarray) -> np.ndarray:
        return _lookup(self.domain, self.data, np.atleast_2d(pts))

    def interpolation_nodes(self) -> np.ndarray:
        return vertex_set(self.domain, 1)


# --------------------------------------------------------------------------
# Validation pieces


def validate_join_up(spec: FifSpec) -> float:
    """Max residual of q_i(k_j) = p(l_i(k_j)) - s_i(k_j) p(k_j) over i, j."""
    if isinstance(spec.q, str):
        raise ModelError("join-up validation needs concrete q expressions")
    d = spec.domain
    table = _data_dict(d, spec.data)
    v0 = d.v0_array
    p0 = _lookup(d, table, v0)
    return max(float(np.max(np.abs(
        q_e.ev(v0) - _lookup(d, table, mp(v0)) + s_e.ev(v0) * p0)))
        for mp, (s_e, _), (q_e, _) in zip(d.maps, spec.s, spec.q, strict=True))


def _family_basis(d: Domain, family: str):
    """Constraint points (V_0), monomials J and the V_0 design matrix.

    "affine" is every J with |J| <= 1, "multilinear" every J, each in
    order of (|J|, J).
    """
    v0 = d.v0_array
    if family not in FAMILIES:
        raise ModelError(f"unknown displacement family {family!r}")
    top = d.m if family == "multilinear" else 1
    basis = [frozenset(J) for r in range(top + 1)
             for J in itertools.combinations(range(1, d.m + 1), r)]
    cols = []
    for J in basis:
        col = np.ones(len(v0))
        for j in J:
            col = col * v0[:, j - 1]
        cols.append(col)
    return v0, basis, np.stack(cols, axis=-1)


def _multilinear_holder_constant(
    coeffs: dict[frozenset, float], base: Box | Triangle
) -> float:
    lo, hi = base.bounding_box()
    bound = np.maximum(np.abs(lo), np.abs(hi))
    lus = (sum(abs(c) * math.prod(bound[j - 1] for j in J if j != u)
               for J, c in coeffs.items() if u in J)
           for u in range(1, lo.shape[0] + 1))
    return math.sqrt(sum(lu * lu for lu in lus))


def solve_q(spec: FifSpec, family: str) -> list[tuple[Expr, ShapeFacts]]:
    """Solve the join-up conditions for q_i in the given polynomial family.

    families: "affine" (m + 1 unknowns), "multilinear" (2^m unknowns) and
    "sg_affine" (= "affine"); one that does not fit V_0 of the domain has
    more or fewer unknowns than boundary constraints.
    """
    d = spec.domain
    table = _data_dict(d, spec.data)
    v0, basis, A = _family_basis(d, family)
    p0 = _lookup(d, table, v0)
    if A.shape[0] != A.shape[1]:
        raise ModelError(
            f"family {family!r} has {A.shape[1]} unknowns but "
            f"{A.shape[0]} boundary constraints"
        )
    # V_0 in general position is guaranteed per domain; a singular system
    # here means a broken domain, not bad data.
    assert abs(np.linalg.det(A)) > 1e-12, "singular join-up system"
    out = []
    allax = frozenset(range(1, d.m + 1))
    for mp, (s_e, _) in zip(d.maps, spec.s):
        rhs = _lookup(d, table, mp(v0)) - s_e.ev(v0) * p0
        coef = np.linalg.solve(A, rhs)
        coeffs = {J: float(c) for J, c in zip(basis, coef)}
        expr = multilinear_expr(coeffs)
        facts = ShapeFacts(
            affine_in=allax,
            holder_exponent=1.0,
            holder_constant=_multilinear_holder_constant(coeffs, d.base),
        )
        out.append((expr, facts))
    return out


def check_well_defined(spec: FifSpec) -> list[str]:
    """Well-definedness of the read-off operator T; empty list means ok.

    Domains whose cells meet only in points (intervals, the gasket) take
    the p.c.f. route and are always fine.  Cube domains need alternating
    signatures per axis, and the read-off values must agree across every
    shared face; the latter is certified by numerical face matching
    (structural conditions such as equal constant scales with multilinear
    displacements guarantee it only when the displacements were solved
    against continuous data, so they are not trusted on their own).
    """
    return [] if spec.domain.pcf else _well_posed(spec)[0]


def _well_posed(spec: FifSpec) -> tuple[list[str], dict | None]:
    """``check_well_defined``'s violations, and the brackets of the spec,
    made between the signature check and the face match (None after a
    signature violation); ModelError unless ||s||_inf < 1."""
    d, m = spec.domain, spec.domain.m
    violations = [] if d.pcf else [
        f"signature not alternating on axis {u + 1}"
        for u, sig in enumerate(axis.signature for axis in d.axes)
        if any(b != sig[0] ^ (j & 1) for j, b in enumerate(sig))]
    if violations:
        return violations, None
    if isinstance(spec.q, str):
        raise ModelError("well-definedness check needs concrete q expressions")
    brackets = _brackets(d, spec.s, spec.q)
    if d.pcf:
        return violations, brackets

    # numerical face matching between adjacent maps, for f* values in M
    zs = np.linspace(-brackets["M"][1], brackets["M"][1], 7)
    counts = [len(ax.knots) - 1 for ax in d.axes]
    index_of = {combo: i for i, combo in enumerate(
        itertools.product(*[range(1, c + 1) for c in counts])
    )}
    lo, hi = d.base.bounding_box()
    for combo, i in index_of.items():
        for j in range(m):
            if combo[j] >= counts[j]:
                continue
            combo2 = combo[:j] + (combo[j] + 1,) + combo[j + 1:]
            i2, knot = index_of[combo2], d.axes[j].knots[combo[j]]
            xstar = float(d.maps[i].inverse(np.full(m, knot))[j])
            # a 9-point grid per axis on the pre-image face x_j = xstar
            face = np.array(list(itertools.product(*[
                [xstar] if u == j else np.linspace(lo[u], hi[u], 9)
                for u in range(m)])))
            ds = spec.s[i][0].ev(face) - spec.s[i2][0].ev(face)
            dq = spec.q[i][0].ev(face) - spec.q[i2][0].ev(face)
            gap = float(np.max(np.abs(ds[None, :] * zs[:, None] + dq[None, :])))
            if gap > 1e-9:
                violations.append(f"face mismatch between maps {combo} and "
                                  f"{combo2} (max gap {gap:.3e})")
    return violations, brackets


def _brackets(d: Domain, s_pairs, q_pairs) -> dict:
    """A model's s_sup and s_inf of each |s_i|, q_sup of each |q_i|, s_norm
    of ||s||_inf < 1 and M of max_i ||q_i||_inf / (1 - ||s||_inf), from
    one evaluation of each s_i and q_i on one grid, reduced in turn."""
    grid = d.base.sample_points(SUP_DEPTH)
    mesh = d.base.mesh_diameter(SUP_DEPTH)
    s_both = [abs_brackets(e, grid, mesh, f) for e, f in s_pairs]
    q_sup = [abs_brackets(e, grid, mesh, f)[0] for e, f in q_pairs]
    s_sup = [b[0] for b in s_both]
    s_lo = max(b[0] for b in s_sup)
    s_hi = max(b[1] for b in s_sup)
    if s_hi >= 1:
        raise ModelError(f"||s||_inf bracket hi = {s_hi} must be < 1")
    m_lo = max(b[0] for b in q_sup) / (1 - s_lo)
    m_hi = max(b[1] for b in q_sup) / (1 - s_hi)
    return dict(s_sup=s_sup, s_inf=[b[1] for b in s_both], q_sup=q_sup,
                s_norm=(s_lo, s_hi), M=(m_lo, m_hi))


def build_model(spec: FifSpec) -> FifModel:
    """Audit, solve (if requested), validate and derive constants; errors
    come in the order audit, join-up, signatures, ||s||_inf, face match."""
    d = spec.domain
    m = d.m
    if not (math.isfinite(spec.eta) and spec.eta > 0):
        raise ModelError(f"eta must be a finite number > 0, got {spec.eta}")
    if len(spec.s) != d.N:
        raise ModelError(f"expected {d.N} scale entries, got {len(spec.s)}")

    s_pairs = [(e, normalize_facts(e, f, m)) for e, f in spec.s]
    if isinstance(spec.q, str):
        family = d.default_family if spec.q == "solve" else spec.q
        q_pairs = solve_q(
            FifSpec(d, spec.data, s_pairs, "solve", spec.eta), family
        )
    else:
        if len(spec.q) != d.N:
            raise ModelError(
                f"expected {d.N} displacement entries, got {len(spec.q)}"
            )
        q_pairs = [(e, normalize_facts(e, f, m)) for e, f in spec.q]

    for label, pairs in (("s", s_pairs), ("q", q_pairs)):
        for i, (e, f) in enumerate(pairs):
            bad = audit_shape(e, f, d.base, samples=64, tol=AUDIT_TOL)
            if bad:
                raise ModelError(
                    f"shape audit failed for {label}_{i + 1}: "
                    + "; ".join(str(v) for v in bad)
                )

    concrete = FifSpec(d, spec.data, s_pairs, q_pairs, spec.eta)
    residual = validate_join_up(concrete)
    if residual > JOINUP_TOL:
        raise ModelError(f"join-up residual {residual:.3e} exceeds {JOINUP_TOL}")
    ill_posed, brackets = _well_posed(concrete)
    if ill_posed:
        raise ModelError("ill-posed operator: " + "; ".join(ill_posed))

    return FifModel(
        domain=d,
        data=_data_dict(d, spec.data),
        s=s_pairs,
        q=q_pairs,
        eta=spec.eta,
        joinup_residual=residual,
        **brackets,
    )


# --------------------------------------------------------------------------
# Level push (vectorized exact recursion)

# vertex slots pushed at once: whole levels while they fit, then blocks of
# the last level that did (sized to the L2 cache, see the module docstring)
BLOCK_SLOTS = 2**16


class _Level(NamedTuple):
    pts: np.ndarray | None  # (C, P, m) vertex points l_w(V_0)
    vals: np.ndarray  # (C, P) exact f* values


def _child(model: FifModel, lev: _Level, i: int, pts: bool = True) -> _Level:
    """The cells l_i o l_w for every cell w of ``lev``, in the order of w,
    with values, and vertex points if ``pts``; a constant s_i or q_i
    enters the values as a float (see ``Expr._ev``)."""
    C, P, m = lev.pts.shape
    flat = lev.pts.reshape(C * P, m)
    vals = model.s[i][0]._ev(flat) * lev.vals.reshape(C * P)
    vals += model.q[i][0]._ev(flat)
    return _Level(model.domain.maps[i](lev.pts) if pts else None,
                  vals.reshape(C, P))


def _push(model: FifModel, lev: _Level, pts: bool = True) -> _Level:
    """The next level, map-major: cell i * C + w is l_i o l_w."""
    kids = [_child(model, lev, i, pts) for i in range(model.N)]
    return _Level(*(None if p[0] is None else np.concatenate(p)
                    for p in zip(*kids)))


def _fits(model: FifModel, depth: int) -> bool:
    """Whether level ``depth`` (N^depth x |V_0| vertex slots) fits the budget."""
    return model.N**depth * len(model.domain.v0) <= cell_budget()


def _check_budget(model: FifModel, depth: int, what: str) -> None:
    if not _fits(model, depth):
        raise BudgetError(f"{what} exceeds the cell budget")


def _fit_extra(model: FifModel, k: int, extra: int) -> int:
    """The largest e <= extra whose level k + e fits the budget, else 0."""
    while extra > 0 and not _fits(model, k + extra):
        extra -= 1
    return extra


def _sweep(model: FifModel, depth: int, lev: _Level | None = None,
           level: int = 0, offset: int = 0
           ) -> Iterator[tuple[int, int, _Level]]:
    """Every cell of levels level + 1..depth under ``lev`` (level 0 by
    default) as (level, offset, block) triples, depth-first.

    While the next level fits BLOCK_SLOTS vertex slots it is pushed whole
    (offset 0).  Below the last such level L, the level-(L + t) cells with
    leading symbols (b_t..b_1) are the block l_{b_t} o .. o l_{b_1} of the
    level-L table, at offset idx(b_t..b_1) * N^L.  Blocks get the per-map
    arithmetic of whole levels, so their values are bitwise the same.
    Blocks above ``depth`` carry vertex points, since the next push needs
    them; those at ``depth`` carry values only.
    """
    if lev is None:
        v0 = model.domain.v0_array
        lev = _Level(v0[None], model.p_at(v0)[None])
    if level == depth:
        return
    n, pts = model.N, level + 1 < depth
    if len(lev.vals) == n**level and lev.vals.size * n <= BLOCK_SLOTS:
        kids = [(0, _push(model, lev, pts))]
    else:
        kids = ((offset + i * n**level, _child(model, lev, i, pts))
                for i in range(n))
    for at, child in kids:
        yield level + 1, at, child
        yield from _sweep(model, depth, child, level + 1, at)


def _fold(table, block, offset: int, group: int, op) -> None:
    """Fold ``block`` (cells from ``offset`` on) into ``table``, whose row
    j covers cells j * group .. (j + 1) * group - 1, by the exact
    reduction ``op`` (np.minimum or np.maximum).  A block holds whole
    groups or lies in one, so the block order cannot change the table."""
    rows = max(1, len(block) // group)
    part = block.reshape(rows, -1, *table.shape[1:])
    out = table[offset // group:offset // group + rows]
    if part.shape[1] < 24:  # op.reduce is slow over short rows
        for j in range(part.shape[1]):
            op(out, part[:, j], out=out)
    else:
        op(out, op.reduce(part, axis=1), out=out)


def _push_points(model: FifModel, pts, vals, level: int | None = None):
    """One push of the points ``pts`` (n, m) with values ``vals`` (n,):
    each map's images, map-major, deduplicated to first occurrences in
    order.  Given the ``level`` pushed to, points reached twice must agree
    to CONSISTENCY_TOL."""
    nxt = _push(model, _Level(pts[:, None], vals[:, None]))
    pts, vals = nxt.pts[:, 0], nxt.vals[:, 0]
    first, inverse = unique_rows(point_keys(pts, model.domain.resolution))
    if level is not None:
        spread_max = np.full(len(first), -np.inf)
        spread_min = np.full(len(first), np.inf)
        np.maximum.at(spread_max, inverse, vals)
        np.minimum.at(spread_min, inverse, vals)
        worst = float(np.max(spread_max - spread_min))
        if worst > CONSISTENCY_TOL:
            raise ModelError(
                f"duplicate-vertex inconsistency {worst:.3e} at level {level}")
    order = np.sort(first)
    return pts[order], vals[order]


def evaluate_on_vk(model: FifModel, k: int):
    """Exact f* values on V_k: deduplicated (points, values) arrays, in
    order of first occurrence among the N^k |V_0| vertex slots.

    Each level is one push of the deduplicated level before, which keeps
    that order and those values (the first slot of l_i(Q) is l_i of Q's
    first slot), and its points reached twice must agree to
    CONSISTENCY_TOL; a violation means the spec slipped validation.  Two
    addresses first disagree at the level where they meet and each later
    map scales that by some |s_i| < 1, so checking every level is at least
    as strict as checking level k alone.
    """
    if k < 1:
        raise ModelError("k must be >= 1")
    _check_budget(model, k, f"level {k}")
    pts = model.domain.v0_array
    vals = model.p_at(pts)
    for level in range(1, k + 1):
        pts, vals = _push_points(model, pts, vals, level)
    return pts, vals


def apply_T(model: FifModel, pts: np.ndarray, vals: np.ndarray):
    """One application of the read-off operator to samples on V_k.

    Returns samples on V_{k+1}; duplicates keep their first occurrence
    (any interleaving gives the same pass/fail downstream) and are not
    checked, since arbitrary samples need not agree on them.
    """
    pts = np.atleast_2d(np.asarray(pts, float))
    vals = np.asarray(vals, float)
    if pts.shape[0] != vals.shape[0]:
        raise ModelError("points/values length mismatch")
    return _push_points(model, pts, vals)


# --------------------------------------------------------------------------
# Arbitrary-point evaluation


def evaluate_at(model: FifModel, x, tol: float = 1e-9) -> float:
    """f*(x) via address decoding + unwound recursion.

    A point off the attractor K (outside the domain's box, or in a hole of
    the gasket) is rejected with a ModelError.  The truncation error of
    the recursion is kept below tol.  There is also an intrinsic floor: a
    float64 input only determines the cell address down to
    machine-precision scale, and f* may oscillate by as much as prod |s|
    over those reliable digits within that cell.  Along addresses whose
    maps have |s| near 1 this floor can dominate tol (e.g. ~1e-5 for a map
    with sup|s| = 3/4 on a 3-piece interval), so values returned for
    points specified as floats are exact for *some* point within machine
    precision of x, not necessarily for the real number the caller had in
    mind.
    """
    d = model.domain
    x = np.asarray(x, float).reshape(d.m)
    lo, hi = d.base.bounding_box()
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise ModelError(f"point {tuple(x)} outside the domain")
    if tol <= 0:
        raise ModelError("tol must be > 0")
    s_hi = model.s_norm[1]
    m_hi = max(model.M[1], tol)
    depth = 1 if s_hi <= 0 else max(
        1, math.ceil(math.log(2 * m_hi / tol) / math.log(1 / s_hi)))
    path = []
    y = x
    prod = 2.0 * m_hi
    for step in range(depth):
        try:
            i, y = d.decode(y, step)
        except DomainError as exc:
            raise ModelError(f"point {tuple(x.tolist())}: {exc}") from None
        path.append(i)
        prod *= model.s_sup[i][1]
        if prod <= tol:  # remaining digits cannot move the value by tol
            break
    # Replay the address forward.  Inverse iteration expands round-off by
    # the reciprocal contraction ratio per step, so the decoded trajectory
    # itself is unreliable past ~eps-precision depth; the digit string is
    # still a valid address of a point within that precision of x, and
    # forward composition of the contractions recovers its orbit stably.
    y = np.clip(y, lo, hi)
    return _unwind(model, path, y, d.interpolant(y, model.p_at(d.v0_array)))


def _unwind(model: FifModel, word, y: np.ndarray, val: float) -> float:
    """f*(l_word(y)) from val = f*(y), innermost symbol of ``word`` first."""
    for i in reversed(word):
        s_v = float(model.s[i][0].ev(y[None, :])[0])
        q_v = float(model.q[i][0].ev(y[None, :])[0])
        val = s_v * val + q_v
        y = model.domain.maps[i](y)
    return float(val)


# --------------------------------------------------------------------------
# Graph samples


@dataclass
class GraphSample:
    """Level-k value ranges of f* with outer value brackets.

    Per cell: the observed value range over the vertices of its
    descendants ``extra`` levels deeper, and a uniform contraction slack
    so [vmin - slack, vmax + slack] encloses f* there.  The cells are in
    push order (cell i * C + w is l_i o l_w); on an interval, ``x_order``
    gives them in x order with their ends.
    """

    domain: Domain
    level: int
    extra: int
    vmin: np.ndarray  # (C,)
    vmax: np.ndarray  # (C,)
    slack: float

    @property
    def cells(self) -> int:
        return len(self.vmin)

    @functools.cached_property
    def x_order(self) -> tuple[slice | np.ndarray, np.ndarray, np.ndarray]:
        """The domain's ``x_order`` of this level (intervals only)."""
        return self.domain.x_order(self.level)

    def index_of(self, word: tuple[int, ...]) -> int:
        if len(word) != self.level:
            raise ModelError(f"address {word} is not at level {self.level}")
        n, idx = self.domain.N, 0
        for w in word:
            if not 0 <= w < n:
                raise ModelError(f"symbol {w} out of range in address {word}")
            idx = idx * n + w
        return idx


def graph_sample(model: FifModel, k: int, extra: int = 4) -> GraphSample:
    """Sample the graph of f* at level k with ``extra`` refinement levels.

    Observed ranges come from exact vertex values ``extra`` levels deeper;
    the a-priori slack 2 M ||s||**extra widens them into guaranteed
    enclosures per the contraction bound.
    """
    return graph_samples(model, {k: extra})[0]


def graph_samples(
    model: FifModel, extras: dict[int, int]
) -> list[GraphSample]:
    """``graph_sample(model, k, e)`` for every ``k: e`` in ``extras``, in
    order of k, from one sweep down to the deepest level max(k + e).

    Each level k + e is folded once, into the value ranges of its finest
    k, and a coarser k with the same k + e reduces that table, bitwise the
    same as single-level samples (min and max are exact, so the grouping
    cannot change them).
    """
    if any(k < 1 or e < 0 for k, e in extras.items()):
        raise ModelError("k must be >= 1 and extra >= 0")
    depth = max((k + e for k, e in extras.items()), default=0)
    _check_budget(model, depth, f"graph sample depth {depth}")
    n = model.N
    # level k + e -> its finest k
    finest = {k + e: k for k, e in sorted(extras.items())}
    vmin = {k: np.full(n**k, np.inf) for k in extras}
    vmax = {k: np.full(n**k, -np.inf) for k in extras}
    for level, offset, block in _sweep(model, depth):
        if level in finest:
            k = finest[level]
            _fold(vmin[k], block.vals, offset, n**(level - k), np.minimum)
            _fold(vmax[k], block.vals, offset, n**(level - k), np.maximum)
    for k, e in extras.items():
        if finest[k + e] != k:
            group = n**(finest[k + e] - k)
            _fold(vmin[k], vmin[finest[k + e]], 0, group, np.minimum)
            _fold(vmax[k], vmax[finest[k + e]], 0, group, np.maximum)
    return [GraphSample(
        domain=model.domain,
        level=k,
        extra=extras[k],
        vmin=vmin[k],
        vmax=vmax[k],
        slack=float(2 * model.M[1] * model.s_norm[1] ** extras[k]),
    ) for k in sorted(extras)]
