"""Construction, validation and evaluation of fractal interpolation functions.

A model couples a domain (a product domain or the gasket, see
``domains``), data values on the interpolation nodes V, scale
expressions s_i and displacement expressions q_i.  The interpolant f* is
the unique continuous fixed point of the read-off operator T and
satisfies

    f*(l_i(x)) = s_i(x) * f*(x) + q_i(x).

A spec is checked by one rule set, run by both ``build_model`` and
``config.load_config`` (``_spec_errors``): data on V, a displacement
family that fits V_0, one s_i and q_i per map, each with the Hoelder
facts of its bracket slack and shape axes in 1..m, and eta.
``build_model`` samples each s_i and q_i once, on one grid of the region,
for all its brackets (``_map_brackets``: sup/inf |s_i| and sup |q_i|,
which give ||s||_inf and M).

Evaluation on vertex sets V_k is done by exact forward recursion (no
iteration error), one level at a time, each pushed straight into the rows
the domain's plan keeps (``Domain.plans`` drops the slots that repeat a
vertex by their addresses; ``_push_kept``); ``evaluate_at`` replays a
decoded address with the same step, ``_child`` (``_replay``).  No code
here depends on the domain type, only on m: every other decision is a
method or property of the domain.
The cells of levels 1..depth come from one sweep (``_sweep``) of vertex
rows: whole levels pushed as V_k is while they fit a block of about 2^16
floats (values and points: an L2 cache) or hold fewer cells than a group,
then depth-first blocks, each l_B of the last whole level's rows, so a
vertex is pushed once per block it lies in and FIF_CELL_BUDGET (N^depth x
|V_0| slots) bounds the work.  A sweep is grouped by the g = N^e cells of
a level-k cell that its caller reads off level k + e, and every block
holds whole groups in one layout, group-major (``_group_major``): an
interval's (m = 1) rows are put in x order (a cell is two adjacent rows,
a group a run of g + 1), then rows j g first and the rows j g + s for
each s = 1..g-1 after; on a cube or the gasket, column j of a table
(R, C / g) holds the R = |V_e| distinct rows of group j, sorted once per
whole level out of the plans' cell -> row table (C, P), so a group reads
each vertex once (25 rows, not 64 slots, for 16 cells of a 2 x 2 cube).
Group 1 keeps x order.  Callers reduce each block to level-k value
ranges by one leading-axis min and max (``_group_extremes``): box counts
(``dimension.empirical_dimension``), and oscillation sums
(``oscillation.seminorm``) written straight into the block's rows of a
table of ranges (``_fold``).  A sweep holds one block buffer per level
below the last whole one: 157 KB of values, and as much of points, on a
3-piece interval.  Points are mapped one axis at a time (``AffineMap``):
no numpy call of the sweep or a push loops innermost over the m axes or
the slots of a cell.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .domains import (
    BudgetError,
    Domain,
    cell_budget,
    node_indices,
    vertex_set,
)
from .exprs import (
    SHAPES,
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
    "ModelError",
    "build_model",
    "evaluate_on_vk",
    "evaluate_at",
    "apply_T",
]

JOINUP_TOL = 1e-9
CONSISTENCY_TOL = 1e-9
AUDIT_TOL = 1e-7
SUP_DEPTH = 12

# displacement families build_model fits; "sg_affine" is "affine" by its gasket name
FAMILIES = ("affine", "multilinear", "sg_affine")


class ModelError(ValueError):
    pass


def _check_int(error: type[ValueError], **values: tuple) -> None:
    """``error`` for the first (value, least) not an int (nor a bool) >= least."""
    for name, (v, least) in values.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
            raise error(f"{name} must be an integer >= {least}, got {v!r}")


@dataclass
class FifSpec:
    """Unvalidated FIF specification."""

    domain: Domain
    data: list[tuple[tuple[float, ...], float]]  # (point, value) on V
    s: list[tuple[Expr, ShapeFacts | None]]
    # (expr, facts) per map, or one of FAMILIES for build_model to fit, or
    # "solve" (the domain's default)
    q: list[tuple[Expr, ShapeFacts | None]] | str
    eta: float = 1.0  # declared common oscillation/Hoelder exponent


@dataclass
class FifModel:
    """Validated model with derived constants."""

    domain: Domain
    nodes: np.ndarray  # V = vertex_set(domain, 1), the interpolation nodes
    values: np.ndarray  # the data value on each node of V
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
        """The data values at ``pts``, each a node of V."""
        pts = np.atleast_2d(pts)
        idx = node_indices(self.nodes, pts, self.domain.resolution)
        if None in idx:
            raise ModelError(f"point {tuple(pts[idx.index(None)].tolist())} "
                             "is not a node of V")
        return self.values[idx]

    @functools.cached_property
    def _flat(self) -> tuple[np.ndarray, Expr]:
        """The data on V_0 and its interpolant in the default family."""
        p0 = self.p_at(self.domain.v0_array)
        return p0, _fit(self.domain, self.domain.default_family, p0)[0]


# --------------------------------------------------------------------------
# The steps of build_model


def _spec_errors(spec: FifSpec) -> list[tuple[str, str]]:
    """The (config field path, message) of each rule ``spec`` breaks: V fine
    enough to tell its nodes apart, one finite value per node of V, a
    displacement family of FAMILIES that fits V_0, one s_i and q_i per
    map, each as ``_entry_errors`` requires, eta finite and > 0.  A field
    or entry that is None (it did not parse) is skipped."""
    d = spec.domain
    if why := d.too_fine():
        return [("domain", why)]
    errors = []
    if spec.data is not None:
        nodes, given = vertex_set(d, 1), {}  # given: node -> its entry
        matched = node_indices(nodes, [pt for pt, _ in spec.data], d.resolution)
        for j, ((pt, value), i) in enumerate(zip(spec.data, matched)):
            if len(pt) != d.m:
                errors.append((f"data[{j}].point", "must have the domain's m = "
                               f"{d.m} coordinates, got {len(pt)}"))
            elif i is None or i in given:
                errors.append((f"data[{j}].point", "not a node of V" if i is None
                               else f"repeats the point of data[{given[i]}]"))
            else:
                given[i] = j
            if not math.isfinite(value):
                errors.append((f"data[{j}].value", f"must be finite, got {value}"))
        if len(given) < len(nodes) and not errors:
            errors.append(("data", "no value at " + ", ".join(
                str(tuple(p)) for i, p in enumerate(nodes.tolist()) if i not in given)))
    if isinstance(spec.q, str):
        family = d.default_family if spec.q == "solve" else spec.q
        if family not in FAMILIES:
            errors.append(("displacements.solve", "must name one of the families "
                           f"{', '.join(FAMILIES)}, got {family!r}"))
        elif (n := len(_basis(family, d.m))) != len(d.v0):
            errors.append(("displacements.solve", f"family {family!r} has {n} "
                           f"unknowns but {len(d.v0)} boundary constraints"))
    for path, entries in (("scales", spec.s), ("displacements", spec.q)):
        if entries is None or isinstance(entries, str):
            continue
        if (got := len(entries)) != d.N:
            errors.append((path, f"expected {d.N} entries, got {got}" if got > d.N
                           else f"expected {d.N} entries (one per map index 1..{d.N}),"
                           f" got {got}: map index {got + 1} has no entry"))
        for j, entry in enumerate(entries):
            if entry is not None:
                errors.extend(_entry_errors(f"{path}[{j}]", *entry, d.m))
    if spec.eta is not None and not 0 < spec.eta < math.inf:  # nan is not
        errors.append(("eta", f"must be a finite number > 0, got {spec.eta}"))
    return errors


def _entry_errors(at: str, e: Expr, f: ShapeFacts | None, m: int
                  ) -> list[tuple[str, str]]:
    """The rules of one declared s_i or q_i at config path ``at``: no
    variable beyond m; with a variable, unless declared constant, the
    Hoelder facts (eta, H) of its bracket slack; H finite and >= 0; each
    declared shape axis in 1..m (an affine axis is not blamed again as
    concave or convex)."""
    f, top, errors = f or ShapeFacts(), e.max_axis(), []
    if top > m:
        errors.append((f"{at}.expr", f"x{top} is beyond the domain's m = {m}"))
    if top and not f.is_constant:
        errors += [(f"{at}.facts.{k}", "required for a non-constant expression")
                   for k, v in (("eta", f.holder_exponent), ("H", f.holder_constant))
                   if v is None]
    if not 0 <= (H := f.holder_constant or 0.0) < math.inf:  # nan is not
        errors.append((f"{at}.facts.H", f"must be finite, >= 0, got {H}"))
    for shape, _ in SHAPES:  # concave_in and convex_in hold affine_in
        axes = getattr(f, f"{shape}_in") - (f.affine_in if shape != "affine" else set())
        if bad := sorted(axes - set(range(1, m + 1))):
            errors.append((f"{at}.facts.{shape}", f"must lie in 1..{m}, got {bad}"))
    return errors


def _basis(family: str, m: int) -> list[frozenset]:
    """The monomials x_J of ``family`` on m axes, in order of (|J|, J):
    "affine" is every J with |J| <= 1 (m + 1 unknowns), "multilinear"
    every J (2^m); "sg_affine" is "affine"."""
    top = m if family == "multilinear" else 1
    return [frozenset(J) for r in range(top + 1)
            for J in itertools.combinations(range(1, m + 1), r)]


def _fit(d: Domain, family: str, values: np.ndarray) -> tuple[Expr, float]:
    """The polynomial of ``family`` (which fits V_0, by ``_spec_errors``)
    that takes ``values`` on V_0, and its Lipschitz constant on the region.
    Fitted in x - o, o the region's lo corner, its terms do not cancel to
    the corner's round-off far from the origin."""
    lo, hi = d.base.bounding_box()
    rel, basis = d.v0_array - lo, _basis(family, d.m)
    A = np.stack([np.prod(rel[:, [j - 1 for j in J]], axis=1) for J in basis], axis=-1)
    # V_0 in general position is guaranteed per domain; a singular system
    # here means a broken domain, not bad data.
    assert abs(np.linalg.det(A)) > 1e-12, "singular join-up system"
    coeffs = {J: float(c) for J, c in zip(basis, np.linalg.solve(A, values))}
    bound = hi - lo  # the largest |x_j - o_j| on the region
    lus = (sum(abs(c) * math.prod(bound[j - 1] for j in J if j != u)
               for J, c in coeffs.items() if u in J) for u in range(1, d.m + 1))
    return multilinear_expr(coeffs, lo), math.sqrt(sum(lu * lu for lu in lus))


def _solve_q(d: Domain, family: str, s_pairs, p0, p_img
             ) -> list[tuple[Expr, ShapeFacts]]:
    """The q_i of the polynomial ``family`` that meet the join-up
    conditions, given the data p0 on V_0 and p_img on each l_i(V_0)."""
    v0, m = d.v0_array, d.m
    return [(q, ShapeFacts(affine_in=range(1, m + 1), holder_exponent=1.0,
                           holder_constant=H))
            for (s_e, _), p_i in zip(s_pairs, p_img)
            for q, H in [_fit(d, family, p_i - s_e.ev(v0) * p0)]]


def _map_brackets(d: Domain, s_pairs, q_pairs) -> list[list]:
    """The (sup, inf) brackets of each |s_i| and of each |q_i|, from one
    evaluation of each on one grid of the region; ModelError naming a map
    that is not finite there."""
    grid, mesh = d.base.sample_points(SUP_DEPTH), d.base.mesh_diameter(SUP_DEPTH)
    out = [[abs_brackets(e, grid, mesh, f) for e, f in pairs]
           for pairs in (s_pairs, q_pairs)]
    for label, both in zip("sq", out):
        for i, (sup, _) in enumerate(both):
            if not math.isfinite(sup[1]):
                raise ModelError(f"{label}_{i + 1} is not finite on its bracket grid")
    return out


def _face_mismatches(d: Domain, s_pairs, q_pairs, m_hi: float) -> list[str]:
    """Numerical face matching between adjacent maps of a cube, for f*
    values in [-m_hi, m_hi]: the read-off values must agree across every
    shared face.  Structural conditions such as equal constant scales
    with multilinear displacements guarantee it only when the
    displacements were solved against continuous data, so they are not
    trusted on their own."""
    m, zs = d.m, np.linspace(-m_hi, m_hi, 7)
    counts = [len(ax.knots) - 1 for ax in d.axes]
    map_of = {combo: i for i, combo in enumerate(
        itertools.product(*[range(1, c + 1) for c in counts])
    )}
    lo, hi = d.base.bounding_box()
    out = []
    for combo, i in map_of.items():
        for j in range(m):
            if combo[j] >= counts[j]:
                continue
            combo2 = combo[:j] + (combo[j] + 1,) + combo[j + 1:]
            i2, knot = map_of[combo2], d.axes[j].knots[combo[j]]
            xstar = (knot - d.maps[i].offset[j]) / d.maps[i].scale[j]
            # a 9-point grid per axis on the pre-image face x_j = xstar
            face = np.array(list(itertools.product(*[
                [xstar] if u == j else np.linspace(lo[u], hi[u], 9)
                for u in range(m)])))
            ds = s_pairs[i][0].ev(face) - s_pairs[i2][0].ev(face)
            dq = q_pairs[i][0].ev(face) - q_pairs[i2][0].ev(face)
            gap = float(np.max(np.abs(ds[None, :] * zs[:, None] + dq[None, :])))
            if not gap <= 1e-9:
                out.append(f"face mismatch between maps {combo} and "
                           f"{combo2} (max gap {gap:.3e})")
    return out


def build_model(spec: FifSpec) -> FifModel:
    """Match the data to V, resolve q, audit, validate and derive constants.

    q is a list of (expr, facts), a family of FAMILIES to solve for, or
    "solve" for the domain's default family.  The broken rules of
    ``_spec_errors`` come in one ModelError; then errors come in the order
    audit (of declared facts only), maps not finite on the bracket grid,
    join-up, signatures, ||s||_inf, face match.  The read-off operator T is
    well defined on domains whose cells meet only in points (intervals, the
    gasket); a cube needs alternating signatures per axis and matching
    faces.  A constant declared of an expression with variables takes its
    value at a vertex of V_0 once the audit has passed.
    """
    if errors := _spec_errors(spec):
        raise ModelError("; ".join(f"{path}: {msg}" for path, msg in errors))
    d, m = spec.domain, spec.domain.m
    nodes, (pts, vals) = vertex_set(d, 1), zip(*spec.data)
    values = np.empty(len(nodes))  # the data rule matched one entry per node
    values[node_indices(nodes, pts, d.resolution)] = vals

    v0 = d.v0_array  # p0 on V_0 and p_img on each l_i(V_0), all nodes of V
    images = np.concatenate([v0] + [mp(v0) for mp in d.maps])
    p0, *p_img = values[node_indices(nodes, images, d.resolution)].reshape(
        d.N + 1, len(v0))
    s_pairs = [(e, normalize_facts(e, f, m)) for e, f in spec.s]
    if isinstance(spec.q, str):
        family = d.default_family if spec.q == "solve" else spec.q
        q_pairs = _solve_q(d, family, s_pairs, p0, p_img)
    else:
        q_pairs = [(e, normalize_facts(e, f, m)) for e, f in spec.q]

    for label, pairs in (("s", s_pairs), ("q", q_pairs)):
        for i, (e, f) in enumerate(pairs):
            if e.max_axis() == 0 or label == "q" and isinstance(spec.q, str):
                continue  # facts made by normalize_facts or _solve_q, not declared
            bad = audit_shape(e, f, d.base, samples=64, tol=AUDIT_TOL)
            if bad:
                raise ModelError(
                    f"shape audit failed for {label}_{i + 1}: "
                    + "; ".join(str(v) for v in bad)
                )
            if f.is_constant and f.constant_value is None:
                pairs[i] = (e, replace(f, constant_value=float(e.ev(v0[0]))))
    s_both, q_both = _map_brackets(d, s_pairs, q_pairs)

    # q_i(k_j) = p(l_i(k_j)) - s_i(k_j) p(k_j) for every map i and k_j in V_0
    residual = float(np.max(np.abs([
        q_e.ev(v0) - p_i + s_e.ev(v0) * p0
        for (s_e, _), (q_e, _), p_i in zip(s_pairs, q_pairs, p_img)])))
    if not residual <= JOINUP_TOL:
        raise ModelError(f"join-up residual {residual:.3e} exceeds {JOINUP_TOL}")
    signatures = [] if d.pcf else [
        f"signature not alternating on axis {u + 1}"
        for u, sig in enumerate(axis.signature for axis in d.axes)
        if any(b != sig[0] ^ (j & 1) for j, b in enumerate(sig))]
    if signatures:
        raise ModelError("ill-posed operator: " + "; ".join(signatures))
    s_sup, q_sup = [b[0] for b in s_both], [b[0] for b in q_both]
    s_lo, s_hi = (max(b[j] for b in s_sup) for j in (0, 1))
    if not s_hi < 1:
        raise ModelError(f"||s||_inf bracket hi = {s_hi} must be < 1")
    M = (max(b[0] for b in q_sup) / (1 - s_lo),
         max(b[1] for b in q_sup) / (1 - s_hi))
    faces = [] if d.pcf else _face_mismatches(d, s_pairs, q_pairs, M[1])
    if faces:
        raise ModelError("ill-posed operator: " + "; ".join(faces))

    return FifModel(
        domain=d, nodes=nodes, values=values, s=s_pairs, q=q_pairs,
        eta=spec.eta, s_sup=s_sup, s_inf=[b[1] for b in s_both], q_sup=q_sup,
        s_norm=(s_lo, s_hi), M=M, joinup_residual=residual)


# --------------------------------------------------------------------------
# Level push (vectorized exact recursion)

# floats (values and points) pushed at once: whole levels while they fit,
# then blocks of the last level that did (see the module docstring)
BLOCK_SLOTS = 2**16


class _Level(NamedTuple):
    pts: np.ndarray | None  # (..., m) vertex points
    vals: np.ndarray  # (...) exact f* values


def _child(model: FifModel, lev: _Level, i: int, pts: bool = True,
           out: _Level | None = None) -> _Level:
    """l_i of every vertex of ``lev``, in its order, with values, and points
    if ``pts`` (or into ``out``, whose points decide); a constant s_i or q_i
    enters as a float (see ``Expr._ev``)."""
    out = out or _Level(np.empty_like(lev.pts) if pts else None, np.empty_like(lev.vals))
    vals = np.multiply(model.s[i][0]._ev(lev.pts), lev.vals, out=out.vals)
    vals += model.q[i][0]._ev(lev.pts)
    if out.pts is not None:
        model.domain.maps[i](lev.pts, out=out.pts)
    return out


def _fits(model: FifModel, depth: int) -> bool:
    """Whether level ``depth`` (N^depth x |V_0| vertex slots) fits the budget."""
    return model.domain.slots(depth) <= cell_budget()


def _check_budget(model: FifModel, depth: int, what: str) -> None:
    if not _fits(model, depth):
        raise BudgetError(f"{what} exceeds the cell budget")


def _fit_extra(model: FifModel, k: int, extra: int) -> int:
    """The largest e <= extra whose level k + e fits the budget, else 0."""
    while extra > 0 and not _fits(model, k + extra):
        extra -= 1
    return extra


def _sweep(model: FifModel, depth: int, group: int = 1, points: bool = False
           ) -> Iterator[tuple[int, int, _Level]]:
    """Every cell of levels 1..depth as (level, offset, block) triples,
    depth-first, a block holding the cells from push index offset on (cell
    i C + w of a level is l_i o l_w).  Levels are pushed whole, at offset
    0, while the next one's pushes fit BLOCK_SLOTS floats or the last one
    has fewer than g = ``group`` cells; the level-(L + t) cells with
    leading symbols (b_t..b_1), L the last whole level, are the block
    l_{b_t} o .. o l_{b_1} of V_L's rows at offset idx(b_t..b_1) N^L, each
    level's blocks in one buffer (hold none past the next step).  So every
    block of g or more cells holds whole groups.  Every level is laid out
    group-major (``_group_major``) from its rows in x order on an interval
    (``_rows``; reversed if l_B flips), else from its cells (C, P) in push
    order, as the (R, C / g) table of each group's R distinct rows, made at
    each whole level (at level 0, of V_0, if none is) and gathered for
    every block below.  Points come with a block if ``points``, and with an
    interval's block above ``depth``, which the next push reads."""
    d, n = model.domain, model.N
    lev, level, plans = _Level(d.v0_array, model.p_at(d.v0_array)), 0, d.plans()
    rows = np.arange(len(d.v0)) if d.m == 1 else np.arange(len(d.v0))[None]
    laid = _group_major(rows, group)
    while level < depth and (n**level < group or n * len(lev.vals) * (d.m + 1) <= BLOCK_SLOTS):
        plan = next(plans)
        lev, level, rows = _push_kept(model, lev, plan[0])[0], level + 1, _rows(d, rows, *plan)
        laid = _group_major(rows, group)
        yield level, 0, _take(lev, laid, points)
    if level == depth:
        return
    if laid.ndim == 1:  # each block is l_B of V_L's rows
        lev, cells = _take(lev, laid, True), None
    else:
        cells = [_Level(np.empty((*laid.shape, d.m)) if points else None,
                        np.empty(laid.shape)) for _ in range(level, depth)]
    bufs = [_Level(np.empty_like(lev.pts) if points or lv < depth else None,
                   np.empty_like(lev.vals)) for lv in range(level + 1, depth + 1)]
    for lv, offset, block in _blocks(model, lev, level, 0, bufs):
        yield lv, offset, block if cells is None else _take(
            block, laid, points, cells[lv - level - 1])


def _blocks(model: FifModel, lev: _Level, level: int, offset: int, bufs: list):
    """The blocks under ``lev`` (at ``level``, ``offset``), depth-first,
    those of level level + 1 + t written into ``bufs[t]``."""
    for i in range(n := model.N):
        yield level + 1, offset + i * n**level, _child(model, lev, i, out=bufs[0])
        if len(bufs) > 1:
            yield from _blocks(model, bufs[0], level + 1, offset + i * n**level, bufs[1:])


def _rows(d: Domain, prev: np.ndarray, keep, drop, partner) -> np.ndarray:
    """How a level's cells read its vertex rows, given ``prev``, the last
    level's, and the level's plan: on an interval the rows in x order
    (piece i is l_i of the last level's, reversed if l_i flips, and its
    first row is piece i - 1's last), else the cell -> row table (C, P),
    whose cell i C + w is l_i of the rows of cell w."""
    row = np.cumsum(keep) - 1  # the row of each slot, i |V_(k-1)| + r
    row[drop] = row[partner]
    size = len(keep) // d.N
    if prev.ndim == 1:
        return row[np.concatenate([i * size + prev[::-1 if mp.scale[0] < 0 else 1][min(i, 1):]
                                   for i, mp in enumerate(d.maps)])]
    return row[(np.arange(d.N)[:, None, None] * size + prev).reshape(-1, prev.shape[1])]


def _take(lev: _Level, rows: np.ndarray, points: bool, out: _Level | None = None
          ) -> _Level:
    """The values of ``lev`` at ``rows`` (into ``out``), and points if ``points``."""
    return _Level(np.take(lev.pts, rows, 0, out and out.pts, "clip") if points else None,
                  np.take(lev.vals, rows, None, out and out.vals, "clip"))


def _groups(vals: np.ndarray, group: int) -> int:
    """The groups of g = ``group`` cells in a block of ``_sweep``: its
    columns, or on an interval its rows but one over g."""
    return vals.shape[1] if vals.ndim > 1 else (len(vals) - 1) // group


def _group_major(rows: np.ndarray, group: int) -> np.ndarray:
    """The layout of a level's ``rows`` (``_rows``) in groups of g =
    ``group`` cells (a level of fewer cells is one group), group-major: on
    an interval rows j g (C / g + 1 of them), then the run of rows j g + s
    for each s = 1..g-1 (group 1 keeps the rows); else column j holds the
    distinct rows of cells j g .. j g + g - 1, ascending, R = |V_e| of them
    for g = N^e, by one sort of the (C / g, g P) table."""
    if rows.ndim > 1:
        part = np.sort(rows.reshape(-1, min(group, len(rows)) * rows.shape[1]), axis=1)
        new = np.ones(part.shape, bool)
        np.not_equal(part[:, 1:], part[:, :-1], out=new[:, 1:])
        return np.ascontiguousarray(part[new].reshape(len(part), -1).T)
    if (g := min(group, len(rows) - 1)) == 1:
        return rows
    return np.concatenate([rows[::g], rows[1:].reshape(-1, g)[:, :-1].T.ravel()])


def _group_extremes(vals: np.ndarray, group: int, out=(None, None)
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The min and max of each group of g = ``group`` cells of a block of
    ``_sweep`` (whole groups, group-major), by one leading-axis reduce (into
    ``out``, a pair of arrays): of a cube's or the gasket's (R, C / g)
    table; of an interval's runs 1..g-1, with the shifted ends of run 0
    (the group j g .. j g + g - 1 of cells in x order is rows j g .. j g +
    g)."""
    if vals.ndim > 1:
        return np.minimum.reduce(vals, out=out[0]), np.maximum.reduce(vals, out=out[1])
    c = _groups(vals, group)
    head, rest = vals[:c + 1], vals[c + 1:]
    lo = np.minimum(head[:-1], head[1:], out=out[0])
    hi = np.maximum(head[:-1], head[1:], out=out[1])
    if group > 1:
        np.minimum(np.minimum.reduce(rest.reshape(group - 1, -1)), lo, out=lo)
        np.maximum(np.maximum.reduce(rest.reshape(group - 1, -1)), hi, out=hi)
    return lo, hi


def _fold(lo, hi, vals, offset: int, group: int) -> None:
    """Write the group extremes of a block of ``_sweep`` (cells from
    ``offset`` on, ``_group_extremes``) into the rows offset / g on of the
    tables ``lo`` and ``hi``, row j of cells j g .. j g + g - 1: the blocks
    of a level write each row once."""
    at = slice(offset // group, offset // group + _groups(vals, group))
    _group_extremes(vals, group, (lo[at], hi[at]))


def _push_kept(model: FifModel, lev: _Level, keep: np.ndarray
               ) -> tuple[_Level, np.ndarray]:
    """The slots under a plan's ``keep`` of the push of ``lev`` ((n, m)
    points), and the values of the others in slot order.  Each map's rows
    go in chunks of BLOCK_SLOTS floats, each straight into the result, or
    if it drops a slot, into one chunk buffer compressed into it."""
    n, m = lev.pts.shape
    size, total = min(n, BLOCK_SLOTS // (m + 1)), np.count_nonzero(keep)
    out, buf = (_Level(np.empty((rows, m)), np.empty(rows)) for rows in (total, size))
    dropped, at = [], 0
    for i, a in itertools.product(range(model.N), range(0, n, size)):
        part = _Level(lev.pts[a:a + size], lev.vals[a:a + size])
        mask = keep[i * n + a:i * n + a + len(part.vals)]
        c, kept = len(mask), np.count_nonzero(mask)
        dst = (_Level(out.pts[at:at + c], out.vals[at:at + c]) if kept == c
               else _Level(buf.pts[:c], buf.vals[:c]))
        _child(model, part, i, out=dst)
        if kept < c:
            np.compress(mask, dst.pts, axis=0, out=out.pts[at:at + kept])
            np.compress(mask, dst.vals, out=out.vals[at:at + kept])
            dropped.append(dst.vals[~mask])
        at += kept
    return out, np.concatenate(dropped) if dropped else np.empty(0)


def evaluate_on_vk(model: FifModel, k: int):
    """Exact f* values on V_k: (points, values) arrays in the order of
    ``vertex_set``, each point the first of its N^k |V_0| vertex slots.

    Each level is pushed from the one before into the rows the domain's
    plan keeps (``Domain.plans``), holding only V_(k-1) and V_k.  A point's
    slots must agree to CONSISTENCY_TOL, or the spec slipped validation:
    each dropped slot is compared with its partner.  Two addresses first
    disagree at the level where they meet and each later map scales that
    by some |s_i| < 1, so checking every level is as strict as checking k
    alone.
    """
    _check_int(ModelError, k=(k, 1))
    _check_budget(model, k, f"level {k}")
    lev = _Level(model.domain.v0_array, model.p_at(model.domain.v0_array))
    for level, (keep, drop, partner) in zip(range(1, k + 1), model.domain.plans()):
        lev, dropped = _push_kept(model, lev, keep)
        if len(drop):
            order = np.argsort(drop)  # dropped holds the slots drop[order]
            rows = partner - np.searchsorted(drop, partner, sorter=order)
            first, group = np.unique(rows[order], return_inverse=True)
            hi, lo = lev.vals[first], lev.vals[first]
            np.maximum.at(hi, group, dropped)
            np.minimum.at(lo, group, dropped)
            if (worst := float(np.max(hi - lo))) > CONSISTENCY_TOL:
                raise ModelError(f"duplicate-vertex inconsistency {worst:.3e} "
                                 f"at level {level}")
    return lev.pts, lev.vals


def apply_T(model: FifModel, pts: np.ndarray, vals: np.ndarray):
    """One application of the read-off operator to samples on V_k, given as
    ``evaluate_on_vk`` returns them (k >= 0, from the number of points):
    samples on V_{k+1}, unchecked, since arbitrary samples need not agree
    at a vertex.  ModelError if ``pts`` is not V_k."""
    d = model.domain
    pts = np.atleast_2d(np.asarray(pts, float))
    vals = np.asarray(vals, float)
    if pts.shape[0] != vals.shape[0]:
        raise ModelError("points/values length mismatch")
    for k, (keep, _, _) in enumerate(d.plans()):
        if len(keep) >= d.N * len(pts):
            break
    if pts.shape != (len(keep) // d.N, d.m) or not np.abs(
            vertex_set(d, k) - pts).max() <= d.resolution:
        raise ModelError(f"the {len(pts)} points are not a vertex set V_k "
                         "in the order of evaluate_on_vk")
    return tuple(_push_kept(model, _Level(pts, vals), keep)[0])


# --------------------------------------------------------------------------
# Arbitrary-point evaluation


# evaluate_at's decode slacks, in units of its round-off: 4500 is 1e-12 on
# a unit gasket; a snap wider than SNAP_CAP |K| moves values off the nodes
OFF_K_ULPS, SNAP_ULPS, SNAP_CAP = 4500, 64, 1e-9


def evaluate_at(model: FifModel, x, tol: float = 1e-9) -> float:
    """f*(x): decode an address of x, then replay it with ``_child``.

    The decode's round-off is one ulp of the region's largest coordinate or
    of |K|, grown by 1 / min|scale| of each map it inverts.  A pre-image
    OFF_K_ULPS of it outside the region is off K (outside the box, or in a
    hole of the gasket): a ModelError.  One within SNAP_ULPS of it (at most
    SNAP_CAP |K|) of a vertex of V_0 ends the address at the data value, so
    the nodes of every V_k get their exact value.  Otherwise the address
    ends once the remaining digits cannot move the value by tol, at the
    flat interpolant of the V_0 data; a float64 x only fixes its digits to
    machine precision, though, and f* may oscillate by prod |s| over them
    (~1e-5 for sup|s| = 3/4 on a 3-piece interval).
    """
    d = model.domain
    try:
        x = np.asarray(x, float).reshape(d.m)
    except (TypeError, ValueError):
        raise ModelError(f"point {x!r} does not have {d.m} coordinates") from None
    if not 0 < tol < math.inf:
        raise ModelError(f"tol must be a finite number > 0, got {tol}")
    v0, size = d.v0_array, d.diameter
    p0, flat = model._flat
    ulp = float(np.spacing(max(np.abs(d.base.bounding_box()).max(), size)))
    growth = [1 / min(map(abs, mp.scale)) for mp in d.maps]
    path, y, prod = [], x, 2.0 * max(model.M[1], tol)
    while prod > tol:  # until the remaining digits cannot move the value by tol
        i, y, out = d.decode(y)
        ulp *= growth[i]
        if not out <= OFF_K_ULPS * ulp:  # nan is outside
            raise ModelError(f"point {tuple(x.tolist())} outside the domain "
                             f"(off the {d.kind})")
        path.append(i)
        # a point within the snap radius of a vertex is as near the boundary
        if out >= -SNAP_CAP * size:
            gap = np.linalg.norm(v0 - y, axis=1)
            if gap.min() <= min(SNAP_ULPS * ulp, SNAP_CAP * size):
                y, val = v0[gap.argmin()], p0[gap.argmin()]
                break
        prod *= model.s_sup[i][1]
    else:
        val = flat.ev(y[None])[0]
    # forward composition of the contractions recovers the orbit stably
    return float(_replay(model, path, y[None], [val])[0])


def _replay(model: FifModel, word, pts: np.ndarray, vals) -> np.ndarray:
    """f*(l_word(x)) for each point x of ``pts`` (P, m), given f*(x) as
    ``vals``: the steps of ``_child`` from the last symbol of ``word`` to
    the first; ModelError for a symbol that is not a map index 0..N-1."""
    for w in word:
        if not (isinstance(w, (int, np.integer)) and 0 <= w < model.N):
            raise ModelError(f"symbol {w} out of range in address {word}")
    lev = _Level(pts[None], np.asarray(vals, float)[None])
    for i in reversed(word):
        lev = _child(model, lev, i)
    return lev.vals[0]
