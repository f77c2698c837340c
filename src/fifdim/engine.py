"""Construction, validation and evaluation of fractal interpolation functions.

A model couples a domain (interval / cube / gasket), data values on the
interpolation nodes V, scale expressions s_i and displacement
expressions q_i.  The interpolant f* is the unique continuous fixed
point of the read-off operator T and satisfies

    f*(l_i(x)) = s_i(x) * f*(x) + q_i(x).

Evaluation on vertex sets V_k is done by exact forward recursion (no
iteration error), one pass serving the graph samples of several levels;
arbitrary points go through address decoding plus an unwound recursion
with an a-priori contraction error bound.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .domains import (
    AffineMap,
    Box,
    BudgetError,
    Domain,
    DomainGeometry,
    Triangle,
    cell_budget,
    geometry_constants,
    point_keys,
    vertex_set,
)
from .exprs import (
    Expr,
    ShapeFacts,
    affine_expr,
    audit_shape,
    eval_expr,
    inf_abs,
    multilinear_expr,
    normalize_facts,
    sup_norm,
)

__all__ = [
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


class ModelError(ValueError):
    pass


@dataclass
class FifSpec:
    """Unvalidated FIF specification."""

    domain: Domain
    data: list[tuple[tuple[float, ...], float]]  # (point, value) on V
    s: list[tuple[Expr, ShapeFacts | None]]
    q: list[tuple[Expr, ShapeFacts | None]] | str  # or "solve:<family>"
    eta: float = 1.0  # declared common oscillation/Hoelder exponent


def _key_resolution(d: Domain) -> float:
    return 1e-10 * max(d.base.diameter, 1.0)


def _data_dict(d: Domain, data) -> dict[tuple[int, ...], float]:
    res = _key_resolution(d)
    out = {}
    for pt, val in data:
        key = tuple(point_keys(np.asarray(pt, float), res).tolist())
        out[key] = float(val)
    return out


def _lookup(d: Domain, table, pts: np.ndarray) -> np.ndarray:
    res = _key_resolution(d)
    keys = point_keys(pts, res)
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
    geom: DomainGeometry
    s_sup: list[tuple[float, float]]  # per-map sup|s_i| brackets
    s_inf: list[tuple[float, float]]
    q_sup: list[tuple[float, float]]
    s_norm: tuple[float, float]  # ||s||_inf bracket
    M: tuple[float, float]  # max||q|| / (1 - ||s||) bracket
    joinup_residual: float

    @property
    def N(self) -> int:
        return self.domain.N

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
    worst = 0.0
    for i, mp in enumerate(d.maps):
        s_e = spec.s[i][0]
        q_e = spec.q[i][0]
        target = _lookup(d, table, mp(v0))
        res = q_e.ev(v0) - target + s_e.ev(v0) * p0
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def _family_basis(d: Domain, family: str):
    """Constraint points (V_0) and basis callables for the q solve."""
    v0 = d.v0_array
    if family == "affine":
        if d.kind != "interval":
            raise ModelError("family 'affine' requires an interval domain")
        basis = [frozenset(), frozenset({1})]
    elif family == "multilinear":
        if d.kind != "cube":
            raise ModelError("family 'multilinear' requires a cube domain")
        m = d.m
        basis = []
        for mask in range(2**m):
            basis.append(frozenset(u + 1 for u in range(m) if mask >> u & 1))
        basis.sort(key=lambda J: (len(J), sorted(J)))
    elif family == "sg_affine":
        if d.kind != "gasket":
            raise ModelError("family 'sg_affine' requires a gasket domain")
        basis = [frozenset(), frozenset({1}), frozenset({2})]
    else:
        raise ModelError(f"unknown displacement family {family!r}")
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
    m = lo.shape[0]
    l2 = 0.0
    for u in range(1, m + 1):
        lu = 0.0
        for J, c in coeffs.items():
            if u in J:
                prod = 1.0
                for j in J:
                    if j != u:
                        prod *= bound[j - 1]
                lu += abs(c) * prod
        l2 += lu * lu
    return math.sqrt(l2)


def solve_q(spec: FifSpec, family: str) -> list[tuple[Expr, ShapeFacts]]:
    """Solve the join-up conditions for q_i in the given polynomial family.

    families: "affine" (interval, 2 unknowns), "multilinear" (cube, 2^m
    unknowns), "sg_affine" (gasket, planar 3 unknowns).
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

    Interval and gasket domains take the p.c.f. route and are always
    fine.  Cube domains need alternating signatures per axis, and the
    read-off values must agree across every shared face; the latter is
    certified by numerical face matching (structural conditions such as
    equal constant scales with multilinear displacements guarantee it
    only when the displacements were solved against continuous data, so
    they are not trusted on their own).
    """
    d = spec.domain
    if d.kind in ("interval", "gasket"):
        return []
    violations = []
    for u, axis in enumerate(d.axes):
        sig = axis.signature
        ok = all(b == sig[0] ^ (j & 1) for j, b in enumerate(sig))
        if not ok:
            violations.append(f"signature not alternating on axis {u + 1}")
    if violations:
        return violations

    if isinstance(spec.q, str):
        raise ModelError("well-definedness check needs concrete q expressions")

    m = d.m
    s_facts = [normalize_facts(e, f, m) for e, f in spec.s]
    q_facts = [normalize_facts(e, f, m) for e, f in spec.q]

    # numerical face matching between adjacent maps
    big_m = _m_bracket(spec, s_facts, q_facts)[1]
    zs = np.linspace(-big_m, big_m, 7)
    counts = [len(ax.knots) - 1 for ax in d.axes]
    import itertools as _it

    index_of = {combo: i for i, combo in enumerate(
        _it.product(*[range(1, c + 1) for c in counts])
    )}
    lo, hi = d.base.bounding_box()
    for combo, i in index_of.items():
        for j in range(m):
            if combo[j] >= counts[j]:
                continue
            combo2 = combo[:j] + (combo[j] + 1,) + combo[j + 1:]
            i2 = index_of[combo2]
            shared_knot = d.axes[j].knots[combo[j]]
            xstar = float(d.maps[i].inverse(
                np.full(m, shared_knot))[j])
            # grid on the pre-image face x_j = xstar
            npts = 9
            axes_pts = [
                np.linspace(lo[u], hi[u], npts) if u != j else np.array([xstar])
                for u in range(m)
            ]
            grid = np.meshgrid(*axes_pts, indexing="ij")
            face = np.stack([g.ravel() for g in grid], axis=-1)
            s1, q1 = spec.s[i][0], spec.q[i][0]
            s2, q2 = spec.s[i2][0], spec.q[i2][0]
            ds = s1.ev(face) - s2.ev(face)
            dq = q1.ev(face) - q2.ev(face)
            gap = np.abs(ds[None, :] * zs[:, None] + dq[None, :])
            if float(np.max(gap)) > 1e-9:
                violations.append(
                    f"face mismatch between maps {combo} and {combo2} "
                    f"(max gap {float(np.max(gap)):.3e})"
                )
    return violations


def _m_bracket(spec: FifSpec, s_facts, q_facts):
    d = spec.domain
    s_sup = [
        sup_norm(e, d.base, SUP_DEPTH, f)
        for (e, _), f in zip(spec.s, s_facts)
    ]
    q_sup = [
        sup_norm(e, d.base, SUP_DEPTH, f)
        for (e, _), f in zip(spec.q, q_facts)
    ]
    s_lo = max(b[0] for b in s_sup)
    s_hi = max(b[1] for b in s_sup)
    if s_hi >= 1:
        raise ModelError(f"||s||_inf bracket hi = {s_hi} must be < 1")
    m_lo = max(b[0] for b in q_sup) / (1 - s_lo)
    m_hi = max(b[1] for b in q_sup) / (1 - s_hi)
    return m_lo, m_hi


def build_model(spec: FifSpec) -> FifModel:
    """Audit, solve (if requested), validate and derive constants."""
    d = spec.domain
    m = d.m
    if len(spec.s) != d.N:
        raise ModelError(f"expected {d.N} scale entries, got {len(spec.s)}")

    s_pairs = [(e, normalize_facts(e, f, m)) for e, f in spec.s]
    if isinstance(spec.q, str):
        family = spec.q.split(":", 1)[1] if ":" in spec.q else spec.q
        if family == "solve":
            family = {"interval": "affine", "cube": "multilinear",
                      "gasket": "sg_affine"}[d.kind]
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
    wd = check_well_defined(concrete)
    if wd:
        raise ModelError("ill-posed operator: " + "; ".join(wd))

    s_facts = [f for _, f in s_pairs]
    q_facts = [f for _, f in q_pairs]
    s_sup = [sup_norm(e, d.base, SUP_DEPTH, f) for (e, f) in s_pairs]
    s_infb = [inf_abs(e, d.base, SUP_DEPTH, f) for (e, f) in s_pairs]
    q_sup = [sup_norm(e, d.base, SUP_DEPTH, f) for (e, f) in q_pairs]
    s_lo = max(b[0] for b in s_sup)
    s_hi = max(b[1] for b in s_sup)
    if s_hi >= 1:
        raise ModelError(f"||s||_inf bracket hi = {s_hi} must be < 1")
    m_lo = max(b[0] for b in q_sup) / (1 - s_lo) if s_lo < 1 else math.inf
    m_hi = max(b[1] for b in q_sup) / (1 - s_hi)

    return FifModel(
        domain=d,
        data=_data_dict(d, spec.data),
        s=s_pairs,
        q=q_pairs,
        eta=spec.eta,
        geom=geometry_constants(d),
        s_sup=s_sup,
        s_inf=s_infb,
        q_sup=q_sup,
        s_norm=(s_lo, s_hi),
        M=(m_lo, m_hi),
        joinup_residual=residual,
    )


# --------------------------------------------------------------------------
# Level push (vectorized exact recursion)


@dataclass
class _Level:
    pts: np.ndarray  # (C, P, m) vertex points l_w(V_0)
    vals: np.ndarray  # (C, P) exact f* values
    lo: np.ndarray  # (C, m) cell image box, lower corner
    hi: np.ndarray  # (C, m)
    diam: np.ndarray  # (C,) cell diameter


def _level0(model: FifModel) -> _Level:
    d = model.domain
    v0 = d.v0_array
    vals = model.p_at(v0)
    lo, hi = d.base.bounding_box()
    return _Level(
        pts=v0[None, :, :].copy(),
        vals=vals[None, :].copy(),
        lo=lo[None, :].copy(),
        hi=hi[None, :].copy(),
        diam=np.array([d.base.diameter]),
    )


def _push(model: FifModel, lev: _Level) -> _Level:
    d = model.domain
    C, P, m = lev.pts.shape
    flat = lev.pts.reshape(C * P, m)
    pts_out, vals_out, lo_out, hi_out, diam_out = [], [], [], [], []
    for i, mp in enumerate(d.maps):
        s_v = model.s[i][0].ev(flat).reshape(C, P)
        q_v = model.q[i][0].ev(flat).reshape(C, P)
        pts_out.append(mp(lev.pts))
        vals_out.append(s_v * lev.vals + q_v)
        a = mp(lev.lo)
        b = mp(lev.hi)
        lo_out.append(np.minimum(a, b))
        hi_out.append(np.maximum(a, b))
        diam_out.append(lev.diam * mp.ratio)
    return _Level(
        pts=np.concatenate(pts_out),
        vals=np.concatenate(vals_out),
        lo=np.concatenate(lo_out),
        hi=np.concatenate(hi_out),
        diam=np.concatenate(diam_out),
    )


def _level_at(model: FifModel, k: int) -> _Level:
    if model.N**k * len(model.domain.v0) > cell_budget():
        raise BudgetError(f"level {k} exceeds the cell budget")
    lev = _level0(model)
    for _ in range(k):
        lev = _push(model, lev)
    return lev


def evaluate_on_vk(model: FifModel, k: int):
    """Exact f* values on V_k: deduplicated (points, values) arrays.

    Points reached through several addresses are asserted consistent to
    CONSISTENCY_TOL; a violation means the spec slipped validation.
    """
    if k < 1:
        raise ModelError("k must be >= 1")
    lev = _level_at(model, k)
    d = model.domain
    pts = lev.pts.reshape(-1, d.m)
    vals = lev.vals.reshape(-1)
    keys = point_keys(pts, _key_resolution(d))
    uniq, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    spread_max = np.full(len(uniq), -np.inf)
    spread_min = np.full(len(uniq), np.inf)
    np.maximum.at(spread_max, inverse, vals)
    np.minimum.at(spread_min, inverse, vals)
    worst = float(np.max(spread_max - spread_min))
    if worst > CONSISTENCY_TOL:
        raise ModelError(
            f"duplicate-vertex inconsistency {worst:.3e} at level {k}"
        )
    order = np.sort(first)
    return pts[order], vals[order]


def apply_T(model: FifModel, pts: np.ndarray, vals: np.ndarray):
    """One application of the read-off operator to samples on V_k.

    Returns samples on V_{k+1}; duplicates collapse by last write (any
    interleaving gives the same pass/fail downstream).
    """
    d = model.domain
    pts = np.atleast_2d(np.asarray(pts, float))
    vals = np.asarray(vals, float)
    if pts.shape[0] != vals.shape[0]:
        raise ModelError("points/values length mismatch")
    out_pts, out_vals = [], []
    for i, mp in enumerate(d.maps):
        s_v = model.s[i][0].ev(pts)
        q_v = model.q[i][0].ev(pts)
        out_pts.append(mp(pts))
        out_vals.append(s_v * vals + q_v)
    allp = np.concatenate(out_pts)
    allv = np.concatenate(out_vals)
    keys = point_keys(allp, _key_resolution(d))
    _, first = np.unique(keys, axis=0, return_index=True)
    order = np.sort(first)
    return allp[order], allv[order]


# --------------------------------------------------------------------------
# Arbitrary-point evaluation


def _decode_step(model: FifModel, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Map index whose cell contains x, plus the pre-image point."""
    d = model.domain
    if d.kind == "interval":
        knots = d.axes[0].knots
        i = int(np.searchsorted(knots, x[0], side="right")) - 1
        i = min(max(i, 0), len(knots) - 2)
        return i, d.maps[i].inverse(x)
    if d.kind == "cube":
        idx = []
        for u, axis in enumerate(d.axes):
            j = int(np.searchsorted(axis.knots, x[u], side="right")) - 1
            idx.append(min(max(j, 0), len(axis.knots) - 2))
        counts = [len(ax.knots) - 1 for ax in d.axes]
        flat = 0
        for j, c in zip(idx, counts):
            flat = flat * c + j
        return flat, d.maps[flat].inverse(x)
    # gasket: n barycentric steps against the base triangle
    v = np.asarray(d.base.verts, float)
    A = np.stack([v[1] - v[0], v[2] - v[0]], axis=-1)
    flat = 0
    y = np.asarray(x, float)
    for _ in range(d.level):
        ab = np.linalg.solve(A, y - v[0])
        bary = np.array([1 - ab[0] - ab[1], ab[0], ab[1]])
        j = int(np.argmax(bary))
        flat = flat * 3 + j
        y = 2 * y - v[j]
    return flat, y


def evaluate_at(model: FifModel, x, tol: float = 1e-9) -> float:
    """f*(x) via address decoding + unwound recursion.

    The truncation error of the recursion is kept below tol.  There is
    also an intrinsic floor: a float64 input only determines the cell
    address down to machine-precision scale, and f* may oscillate by as
    much as prod |s| over those reliable digits within that cell.  Along
    addresses whose maps have |s| near 1 this floor can dominate tol
    (e.g. ~1e-5 for a map with sup|s| = 3/4 on a 3-piece interval), so
    values returned for points specified as floats are exact for *some*
    point within machine precision of x, not necessarily for the real
    number the caller had in mind.
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
    if s_hi <= 0:
        depth = 1
    else:
        depth = max(1, math.ceil(math.log(2 * m_hi / tol) / math.log(1 / s_hi)))
    path = []
    y = x
    prod = 2.0 * m_hi
    for _ in range(depth):
        i, y = _decode_step(model, y)
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
    val = _base_interpolant(model, y)
    for i in reversed(path):
        s_v = float(model.s[i][0].ev(y[None, :])[0])
        q_v = float(model.q[i][0].ev(y[None, :])[0])
        val = s_v * val + q_v
        y = d.maps[i](y)
    return float(val)


def _base_interpolant(model: FifModel, x: np.ndarray) -> float:
    """Seed value: the flat interpolant of the data on V_0."""
    d = model.domain
    v0 = d.v0_array
    p0 = model.p_at(v0)
    if d.kind == "interval":
        a, b = v0[0, 0], v0[1, 0]
        t = (x[0] - a) / (b - a)
        return float((1 - t) * p0[0] + t * p0[1])
    if d.kind == "cube":
        lo, hi = d.base.bounding_box()
        t = (x - lo) / (hi - lo)
        val = 0.0
        for corner, pv in zip(v0, p0):
            w = 1.0
            for u in range(d.m):
                w *= t[u] if corner[u] == hi[u] else (1 - t[u])
            val += w * pv
        return float(val)
    # gasket: planar interpolant through the three corner values
    v = v0
    A = np.array([[1.0, v[j, 0], v[j, 1]] for j in range(3)])
    abc = np.linalg.solve(A, p0)
    return float(abc[0] + abc[1] * x[0] + abc[2] * x[1])


# --------------------------------------------------------------------------
# Graph samples


@dataclass
class GraphSample:
    """Level-k cell table of f* with outer value brackets.

    Per cell: exact vertex values at l_w(V_0), the observed value range
    over descendants ``extra`` levels deeper, and a uniform contraction
    slack so [vmin - slack, vmax + slack] encloses f* over the cell.
    """

    level: int
    extra: int
    N: int
    vert_pts: np.ndarray  # (C, P, m)
    vert_vals: np.ndarray  # (C, P)
    cell_lo: np.ndarray  # (C, m)
    cell_hi: np.ndarray  # (C, m)
    cell_diam: np.ndarray  # (C,)
    vmin: np.ndarray  # (C,) observed min over descendants
    vmax: np.ndarray  # (C,)
    slack: float

    @property
    def cells(self) -> int:
        return self.vert_vals.shape[0]

    def index_of(self, word: tuple[int, ...]) -> int:
        if len(word) != self.level:
            raise ModelError(f"address {word} is not at level {self.level}")
        idx = 0
        for w in word:
            if not 0 <= w < self.N:
                raise ModelError(f"symbol {w} out of range in address {word}")
            idx = idx * self.N + w
        return idx

    def word_of(self, index: int) -> tuple[int, ...]:
        word = []
        for _ in range(self.level):
            word.append(index % self.N)
            index //= self.N
        return tuple(reversed(word))

    def value_bracket(self, word: tuple[int, ...]) -> tuple[float, float]:
        i = self.index_of(word)
        return float(self.vmin[i] - self.slack), float(self.vmax[i] + self.slack)

    def osc_bracket(self, word: tuple[int, ...]) -> tuple[float, float]:
        i = self.index_of(word)
        spread = float(self.vmax[i] - self.vmin[i])
        return spread, spread + 2 * self.slack


def graph_sample(model: FifModel, k: int, extra: int = 4) -> GraphSample:
    """Sample the graph of f* at level k with ``extra`` refinement levels.

    Observed ranges come from exact vertex values ``extra`` levels deeper;
    the a-priori slack 2 M ||s||**extra widens them into guaranteed
    enclosures per the contraction bound.
    """
    return next(graph_samples(model, {k: extra}))


def graph_samples(
    model: FifModel, extras: dict[int, int]
) -> Iterator[GraphSample]:
    """``graph_sample(model, k, e)`` for every ``k: e`` in ``extras``, from
    one forward pass down to the deepest level max(k + e).

    Level-k cell tables are kept until level k + e is reached, where the
    sample is completed and yielded; samples come out in order of k + e,
    then k.  Every level is pushed exactly as in a single-level sample,
    so the results are bitwise the same.
    """
    if any(k < 1 or e < 0 for k, e in extras.items()):
        raise ModelError("k must be >= 1 and extra >= 0")
    depth = max((k + e for k, e in extras.items()), default=0)
    if model.N**depth * len(model.domain.v0) > cell_budget():
        raise BudgetError(
            f"graph sample depth {depth} exceeds the cell budget"
        )
    held: dict[int, _Level] = {}
    lev = _level0(model)
    for level in range(1, depth + 1):
        lev = _push(model, lev)
        if level in extras:
            held[level] = lev
        for k in sorted(k for k, e in extras.items() if k + e == level):
            at_k = held.pop(k)
            block = lev.vals.reshape(model.N**k, -1)
            slack = 2 * model.M[1] * model.s_norm[1] ** extras[k]
            yield GraphSample(
                level=k,
                extra=extras[k],
                N=model.N,
                vert_pts=at_k.pts,
                vert_vals=at_k.vals,
                cell_lo=at_k.lo,
                cell_hi=at_k.hi,
                cell_diam=at_k.diam,
                vmin=block.min(axis=1),
                vmax=block.max(axis=1),
                slack=float(slack),
            )
