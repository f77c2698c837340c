"""Box-dimension machinery: gamma constants, covering witnesses, a table
of the theorems that give lower/upper/exact bounds with hypothesis
checklists (``THEOREMS``, run by ``theoretical_entries``), and the
empirical box-counting estimator.

Bracket discipline: every emitted inequality uses the bracket end that
weakens it (upper bounds take gamma's hi end, lower bounds take lo
ends), so numerical sup/inf estimation cannot flip a verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domains import BudgetError, cell_budget
from .engine import (
    FifModel,
    ModelError,
    _check_budget,
    _check_int,
    _fit_extra,
    _group_extremes,
    _replay,
    _sweep,
)
from .exprs import SHAPES

__all__ = [
    "FLAVORS",
    "GammaReport",
    "CollinearWitness",
    "BoundEntry",
    "BoundsReport",
    "EmpiricalEstimate",
    "gammas",
    "find_witness",
    "witness_height_check",
    "empirical_dimension",
    "theoretical_entries",
    "reconcile",
]


# --------------------------------------------------------------------------
# Gamma family

# Flavor j of the non-collinearity theorem: the shape q must have, the sign
# a witness's L must have (a signed flavor also needs s_i >= 0), its text.
FLAVORS = {
    j: (shape, sign, {0: "L != 0", 1: "L > 0", -1: "L < 0"}[sign])
    for j, (shape, sign) in enumerate(SHAPES, start=1)
}


@dataclass
class GammaReport:
    gamma: tuple[float, float]  # sum of sup|s_i| brackets
    gamma0: tuple[float, float]  # sum of inf|s_i| brackets
    flavored: dict[tuple[int, int], float]  # (flavor, r) -> gamma_{flavor,r}
    eta_prime: float


def _class_value(model: FifModel, i: int, flavor: int, r: int) -> float:
    """Per-map contribution s_{i,flavor,r}; 0 when hypotheses fail."""
    _, s_f = model.s[i]
    _, q_f = model.q[i]
    if not s_f.is_constant:
        return 0.0
    c = float(s_f.constant_value)
    shape, sign, _ = FLAVORS[flavor]
    axes = getattr(q_f, f"{shape}_in")
    ok = r in axes if r else axes >= frozenset(range(1, model.domain.m + 1))
    if not ok or (sign and c < 0):  # a signed flavor needs s_i >= 0
        return 0.0
    return abs(c)


def gammas(model: FifModel) -> GammaReport:
    flavored = {(flavor, r): float(sum(
        _class_value(model, i, flavor, r) for i in range(model.N)))
        for flavor in FLAVORS for r in range(model.domain.m + 1)}
    return GammaReport(
        gamma=tuple(map(sum, zip(*model.s_sup))),
        gamma0=tuple(map(sum, zip(*model.s_inf))),
        flavored=flavored,
        eta_prime=model.eta_prime,
    )


# --------------------------------------------------------------------------
# Collinear witnesses


@dataclass
class CollinearWitness:
    r: int  # axis index; 0 for general-position (gasket) triples
    y1: tuple[float, ...]
    y2: tuple[float, ...]
    y3: tuple[float, ...]
    lam: float
    L: float


def find_witness(
    model: FifModel, r: int, sign: int = 0
) -> CollinearWitness | None:
    """Best (max |L|) non-collinearity witness for axis r; None if flat.

    One search over the interpolation nodes V for every domain: each
    unordered node pair y1, y2 (in node order) against each node y3
    strictly inside their segment and within ``domain.resolution`` of its
    line, lam the projection of y3 onto it, L = p(y3) - ((1 - lam) p(y1)
    + lam p(y2)).  For r >= 1 the segment moves along axis r only; r = 0
    (the gasket) takes every direction.  sign > 0 keeps L > 0, sign < 0
    L < 0; the first of equal |L| wins.  The pairs x |V| triples must fit
    the cell budget.
    """
    nodes, p, tol = model.nodes, model.values, model.domain.resolution
    a, b = np.triu_indices(len(nodes), 1)
    if len(a) * len(nodes) > cell_budget():
        raise BudgetError("witness search exceeds the cell budget")
    moving = np.abs(nodes[b] - nodes[a]) > tol
    keep = moving.any(1) if r == 0 else (
        moving == (np.arange(model.domain.m) == r - 1)).all(1)
    a, b = a[keep], b[keep]
    seg = (nodes[b] - nodes[a])[:, None]  # (pairs, 1, m)
    rel = nodes[None] - nodes[a][:, None]  # (pairs, |V|, m)
    lam = np.sum(rel * seg, axis=-1) / np.sum(seg * seg, axis=-1)
    off = np.linalg.norm(rel - lam[..., None] * seg, axis=-1)
    L = p - ((1 - lam) * p[a][:, None] + lam * p[b][:, None])
    ok = ((1e-12 < lam) & (lam < 1 - 1e-12) & (off <= tol)
          & (np.abs(L) > 1e-12) & (sign * L >= 0))
    if not ok.any():
        return None
    j, c = np.unravel_index(np.argmax(np.where(ok, np.abs(L), -1.0)), L.shape)
    y1, y2, y3 = (tuple(nodes[i].tolist()) for i in (a[j], b[j], c))
    return CollinearWitness(r, y1, y2, y3, float(lam[j, c]), float(L[j, c]))


def witness_height_check(
    model: FifModel,
    word: tuple[int, ...],
    w: CollinearWitness,
    flavor: int,
) -> bool:
    """Brute-force the covering lemma on one cell address.

    Checks |f*(l_w(y3)) - ((1-lam) f*(l_w(y1)) + lam f*(l_w(y2)))|
    >= prod_j s_{w_j,flavor,r} |L| - 1e-9 using exact vertex recursion.
    """
    if flavor not in FLAVORS:
        raise ModelError(f"unknown flavor {flavor}")
    _, sign, need = FLAVORS[flavor]
    if sign and sign * w.L <= 0:
        raise ModelError(f"flavor {flavor} needs a witness with {need}")

    ys = np.array([w.y1, w.y2, w.y3], float)
    v1, v2, v3 = _replay(model, word, ys, model.p_at(ys)).tolist()
    lhs = abs(v3 - ((1 - w.lam) * v1 + w.lam * v2))
    rhs = abs(w.L)
    for i in word:
        rhs *= _class_value(model, i, flavor, w.r)
    return lhs >= rhs - 1e-9


# --------------------------------------------------------------------------
# Bound entries


@dataclass
class BoundEntry:
    theorem: str
    kind: str  # "lower" | "upper" | "exact"
    value: float
    hypotheses: list[tuple[str, bool]]
    vacuous: bool = False
    heuristic: bool = False
    note: str = ""

    @property
    def applies(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    def to_dict(self) -> dict:
        return dict(vars(self), hypotheses=[
            {"name": n, "pass": ok} for n, ok in self.hypotheses])


def _holder_declared(model: FifModel, least: float) -> bool:
    """Every non-constant s_i and q_i declares a Hoelder exponent >= least
    (each declares one, ``engine._spec_errors``)."""
    return all(f.is_constant or f.holder_exponent >= least
               for _, f in [*model.s, *model.q])


def _directions(model: FifModel) -> range | tuple[int]:
    """The witness directions: axes 1..m of a product domain, 0 on the gasket."""
    return range(1, len(model.domain.axes) + 1) or (0,)


def _upper(model: FifModel, g: GammaReport, witness, pin: float | None):
    """Oscillation-space upper bound with its two-case split on gamma, at
    gamma's hi end and again at the pinned gamma if one is given; a value
    above m + 1 (cubes with unequal pieces per axis) is vacuous."""
    lam, n, etap = model.domain.lam, model.N, g.eta_prime
    holder_ok = _holder_declared(model, etap - 1e-12)
    pinned = [] if pin is None else [(pin, " (pinned)")]
    for gamma, tag in [(g.gamma[1], ""), *pinned]:
        if small := gamma <= n / lam**etap:
            value = 1 - etap + math.log(n) / math.log(lam)
        else:
            value = 1 + math.log(gamma) / math.log(lam)
        case = f"gamma {'<=' if small else '>'} N / Lambda^eta'"
        yield BoundEntry("oscillation_upper", "upper", value,
                         [("s_i, q_i Hoelder-declared (C^eta)", holder_ok)],
                         vacuous=value > model.domain.m + 1,
                         note=f"case fired: {case}; gamma = {gamma:.10g}{tag}")


def _noncollinear(model: FifModel, g: GammaReport, witness, pin: float | None):
    """Non-collinearity lower bounds 1 + log gamma_{j,r} / log Lambda_0, one
    per flavor j and witness direction r (``_directions``) with gamma_{j,r}
    > 0; entries not above dim K are kept but flagged vacuous."""
    for r in _directions(model):
        for flavor, (_, sign, need) in FLAVORS.items():
            gv = g.flavored[(flavor, r)]
            if not (positive := gv > 0):
                continue
            w = witness(r, sign)
            value = 1 + math.log(gv) / math.log(model.domain.lam0)
            yield BoundEntry(
                f"noncollinear_lower_flavor{flavor}_axis{r}" if r
                else f"gasket_lower_flavor{flavor}", "lower", value,
                [(f"witness with {need}" + (f" on axis {r}" if r else ""),
                  w is not None), (f"gamma_{flavor},{r} > 0", positive)],
                vacuous=value <= model.domain.dim + 1e-12,
                note=f"gamma_{flavor},{r} = {gv:.10g}"
                + (f"; witness |L| = {abs(w.L):.10g}" if w else ""))


def _exact(model: FifModel, g: GammaReport, witness, pin: float | None):
    """Exact box dimension where the upper and the lower bound meet.

    All s_i constant on a homogeneous domain (an equally spaced interval
    or cube with n pieces per axis, or the gasket), and a route: the first
    witness direction r (``_directions``) and flavor j with gamma_{j,r} >=
    gamma = sum |s_i| and a witness.  Then dim = 1 + log gamma / log
    Lambda_0 if gamma > N / Lambda_0^eta', and dim K if gamma <= N /
    Lambda_0 and eta' = 1; between the two, no entry.
    """
    d, etap = model.domain, model.eta_prime
    const = all(f.is_constant for _, f in model.s)
    if not d.homogeneous or not const:
        return
    gamma = sum(abs(f.constant_value) for _, f in model.s)
    if gamma > model.N / d.lam0**etap + 1e-12:
        value, large = 1 + math.log(gamma) / math.log(d.lam0), True
    elif gamma <= model.N / d.lam0 + 1e-12 and abs(etap - 1.0) <= 1e-12:
        value, large = d.dim, False
    else:
        return

    def saturates(r, flavor):
        return g.flavored[(flavor, r)] >= gamma - 1e-9

    route = next(((r, flavor) for r in _directions(model)
                  for flavor, (_, sign, _) in FLAVORS.items()
                  if saturates(r, flavor) and witness(r, sign) is not None), None)
    if route is None:
        return
    r, flavor = route
    holder_ok = _holder_declared(model, etap - 1e-12)
    if r:  # N = n^m and Lambda_0 = n on the product domain
        shape, sign, need = FLAVORS[flavor]
        theorem = "exact_dim_equally_spaced"
        case = "> n^(m - eta')" if large else "<= n^(m-1), eta' = 1"
        hyps = [("equally spaced, equal n per axis", d.homogeneous),
                ("all s_i constant", const),
                ("q_i Hoelder-declared (C^eta)", holder_ok),
                (f"witness with q {shape}{f', {need}' if sign else ''} on axis {r}",
                 witness(r, sign) is not None)]
    else:  # N = 3^n and Lambda_0 = 2^n on the level-n gasket
        theorem = "gasket_exact"
        case = "> (3/2^eta')^n" if large else "<= (3/2)^n, eta' = 1"
        hyps = [("s_i, q_i Hoelder-declared (C^eta)", holder_ok),
                (f"flavor-{flavor} classification saturates gamma",
                 saturates(r, flavor))]
    yield BoundEntry(theorem, "exact", value, hyps,
                     note=f"gamma = {gamma:.10g} {case}")


def _variable_scale(model: FifModel, g: GammaReport, witness, pin: float | None):
    """Variable-scale lower bound on homogeneous (equally spaced) intervals.

    Route (a): bounded-variation shape facts (eta = 1 declared) plus a
    flavor-compatible witness with flavored gamma > 1.  Route (b): the
    divergence hypothesis probed empirically on finite levels; emitted
    with a heuristic flag.
    """
    d = model.domain
    if not (spaced := d.m == 1 and d.homogeneous):
        return
    n, eta, gamma0 = model.N, model.eta_prime, g.gamma0[0]
    bv = _holder_declared(model, 1.0)

    def witnessed(flavor):  # flavored gamma > 1 and a witness of its sign
        return (g.flavored[(flavor, 0)] > 1
                and witness(1, FLAVORS[flavor][1]) is not None)

    corollary = next((flavor for flavor in FLAVORS if bv and witnessed(flavor)), None)
    if corollary is not None:  # then gamma_0 >= gamma_{j,0} > 1
        hyps = [("bounded-variation shape facts (eta = 1)", bv),
                (f"flavor-{corollary} witness with flavored gamma > 1",
                 witnessed(corollary))]
        note = f"gamma_0 = {gamma0:.10g} (corollary route)"
    else:
        # route (b): empirical divergence probe of N(r) / (N^(2-eta))^r
        if not (above := gamma0 > n ** (1 - eta) + 1e-12):
            return
        ratios = [c / (n ** (2 - eta)) ** k
                  for k, _, c in empirical_dimension(model, 2, 6).entries]
        if not (growing := ratios[-1] >= 2 * ratios[0] and all(
                b >= a * 0.99 for a, b in zip(ratios, ratios[1:]))):
            return
        hyps = [("gamma_0 > N^(1-eta)", above),
                ("divergence probe (finite-level heuristic)", growing)]
        note = (f"gamma_0 = {gamma0:.10g}; probe ratios {ratios[0]:.3g} -> "
                f"{ratios[-1]:.3g}")
    value = 1 + math.log(gamma0) / math.log(n)
    yield BoundEntry("variable_scale_lower", "lower", value,
                     [("equally spaced interval", spaced), *hyps],
                     vacuous=value <= 1.0 + 1e-12, heuristic=corollary is None,
                     note=note)


# The bound theorems in entry order: each row yields the entries of one
# theorem from the model, its gamma report, the shared witness lookup
# witness(r, sign) and the pinned gamma, and yields none where a gate fails.
THEOREMS = (_upper, _noncollinear, _exact, _variable_scale)


def theoretical_entries(
    model: FifModel, gamma_pin: float | None = None
) -> list[BoundEntry]:
    """Every bound entry for the model's domain: the entries of each
    ``THEOREMS`` row in order, over one gamma report and one witness search
    per (r, sign); ``gamma_pin`` adds a second, pinned upper entry."""
    g = gammas(model)
    witness = functools.cache(lambda r, sign: find_witness(model, r, sign=sign))
    return [e for row in THEOREMS for e in row(model, g, witness, gamma_pin)]


# --------------------------------------------------------------------------
# Box counting


def _cell_boxes(vmin, vmax, delta: float, prism: bool, out=None) -> int:
    """The sum over cells (or columns) of max(ceil(osc / delta), 1), or of
    the prism's ceil(osc / delta) + 1, computed in ``out`` if given: a sum
    of integers, so any grouping of the cells gives the same count."""
    r = np.subtract(vmax, vmin, out=out)
    r /= delta
    r -= 1e-9
    np.ceil(r, out=r)
    return int(np.sum(np.add(r, 1, out=r) if prism else np.maximum(r, 1, out=r)))


def _column_extremes(x0: float, delta: float, lo, hi, vmin, vmax, ncols: int
                     ) -> tuple[int, np.ndarray, np.ndarray]:
    """(c0, colmin, colmax): the value extremes of the columns c0, c0 + 1,
    .. of width delta from x0 that cells in x order (ends lo, hi, value
    ranges vmin, vmax) meet, inf and -inf where none does; a corner past
    column ncols - 1 counts in that one.

    A cell spans columns first .. last = max(first, its hi corner's).  A
    column is t = (x - x0) / delta plus a tie of 1e-9 + 1e-12 |x| / delta
    (minus it for a hi corner), which grows with the corner's magnitude as
    its rounding does.  Between corners a cell width apart the tie moves
    by at most 1e-12 of the step in t, far more than the rounding while
    the cells number well below 2^52, so first and last are nondecreasing:
    the cells meeting column c are the run from the first whose last >= c
    to the first whose first > c.
    """
    def col(x, sign=1.0):  # in place: 2.5x faster than in one expression
        t = np.subtract(x, x0)
        t /= delta
        t += sign * 1e-9
        tie = np.abs(x)
        tie /= delta
        tie *= sign * 1e-12
        t += tie
        np.maximum(np.floor(t, out=t), 0, out=t)
        return np.minimum(t, ncols - 1, out=t).astype(int)

    first, last = col(lo), col(hi, -1.0)
    last = np.maximum(first, last)
    if np.max(last - first) > 64:
        raise ModelError("cells too coarse for this delta; refine the sample")
    cols = np.arange(first[0], last[-1] + 1)
    starts, ends = np.searchsorted(last, cols), np.searchsorted(first, cols, "right")
    # odd segments are dropped; a run that ends at C stops one cell short
    runs = np.minimum(np.column_stack([starts, ends]).ravel(), len(lo) - 1)
    tail, unmet = ends == len(lo), starts >= ends
    out = [int(first[0])]
    for v, op, none in ((vmin, np.minimum, np.inf), (vmax, np.maximum, -np.inf)):
        out.append(op.reduceat(v, runs)[0::2])
        out[-1][tail] = op(out[-1][tail], v[-1])
        out[-1][unmet] = none
    return tuple(out)


@dataclass
class EmpiricalEstimate:
    entries: list[tuple[int, float, int]]  # (k, delta, count)
    slope: float
    residual: float
    k_min: int
    k_max: int

    def to_dict(self) -> dict:
        return dict(vars(self), entries=[
            {"k": k, "delta": d, "count": c} for k, d, c in self.entries])


def empirical_dimension(
    model: FifModel, k_min: int, k_max: int, extra: int = 2
) -> EmpiricalEstimate:
    """Log-log slope of box counts over the level-tied delta sequence, at
    k = k_min..k_max, k_max > k_min (one count gives no slope).

    Homogeneous intervals, cubes and the gasket use delta_k = |K| /
    Lambda^k and the level-k cells, each with the value range of its
    vertices at level k + e (e = extra, or less near the budget): on an
    interval a cell is one column of max(ceil(osc / delta), 1) boxes, on
    a cube or the gasket a prism of ceil(osc / delta) + 1.  Unequal knots
    fall back to dyadic delta_k = |K| / 2^k and the column method on the
    cells of the deepest level (m = 1).  As sums of integers, the counts
    come from reducers over the blocks of vertex rows of one sweep
    (``engine._sweep``), in O(block + 2^k_max columns) memory: whole
    level-k cells a block, group-major, for the level-tied counts (an
    interval's rows residue-major), in x order for the dyadic count.
    """
    _check_int(ModelError, k_min=(k_min, 2), k_max=(k_max, k_min + 1),
               extra=(extra, 0))
    depth = k_max + _fit_extra(model, k_max, extra)
    _check_budget(model, depth, f"graph sample depth {depth}")
    d = model.domain
    tied = d.homogeneous or d.m > 1
    deltas = {k: d.delta(k) if tied else d.diameter / 2.0**k
              for k in range(k_min, k_max + 1)}
    counts = (_tied_counts if tied else _dyadic_counts)(model, deltas, depth)
    entries = [(k, delta, counts[k]) for k, delta in deltas.items()]

    logs = np.log([1.0 / d for _, d, _ in entries])
    logn = np.log([c for _, _, c in entries])
    slope, intercept = np.polyfit(logs, logn, 1)
    resid = float(np.sqrt(np.mean((logn - (slope * logs + intercept)) ** 2)))
    return EmpiricalEstimate(entries, float(slope), resid, k_min, k_max)


def _tied_counts(model: FifModel, deltas: dict, depth: int) -> dict[int, int]:
    """The count of each k at its delta, level-k cells read off level k + e
    for one e = depth - k_max (a sliding extra would tilt the osc bias
    across the window).  Each block of level k + e holds whole level-k
    cells, group-major (``engine._sweep``), and is reduced to their value
    ranges (``engine._group_extremes``) and counted."""
    e = depth - max(deltas)
    group, prism = model.N**e, model.domain.m > 1
    counts = dict.fromkeys(deltas, 0)
    for level, _, block in _sweep(model, depth, group):
        if (k := level - e) in counts:
            lo, hi = _group_extremes(block.vals, group)
            counts[k] += _cell_boxes(lo, hi, deltas[k], prism, hi)
    return counts


def _dyadic_counts(model: FifModel, deltas: dict, depth: int) -> dict[int, int]:
    """The count of each k at its dyadic delta on the level-depth cells of
    an interval, by the column method at the finest delta alone: column c
    of delta_k is columns 2c and 2c + 1 of delta_(k + 1), up to the tie's
    1e-9, which does not nest (tests gate it against a column count of the
    replayed cells).  A block of the depth level is rows in x order
    (``engine._sweep``; reversed if l_B flips), its cells' ends x[:-1] and
    x[1:].  x0, the lo end of the first cell in x order, comes from the
    push's arithmetic x * a + b, so it is bitwise that vertex point."""
    d, ks = model.domain, sorted(deltas, reverse=True)
    (a0, b0), (a1, b1) = ((mp.scale[0], mp.offset[0]) for mp in (d.maps[0], d.maps[-1]))
    x0, x1 = d.base.lo[0], d.base.hi[0]
    for _ in range(depth):  # the ends of the level-depth cells in x order
        x0, x1 = (x0 if a0 > 0 else x1) * a0 + b0, (x1 if a1 > 0 else x0) * a1 + b1
    colmin, colmax = np.full(2**ks[0], np.inf), np.full(2**ks[0], -np.inf)
    for block in (b for lv, _, b in _sweep(model, depth, points=True) if lv == depth):
        x, v = block.pts[:, 0], block.vals
        if x[0] > x[-1]:  # l_B flips
            x, v = x[::-1], v[::-1]
        c0, bot, top = _column_extremes(x0, deltas[ks[0]], x[:-1], x[1:], np.minimum(
            v[:-1], v[1:]), np.maximum(v[:-1], v[1:]), len(colmin))
        for acc, ext, op in ((colmin, bot, np.minimum), (colmax, top, np.maximum)):
            op(acc[c0:c0 + len(ext)], ext, out=acc[c0:c0 + len(ext)])
    counts = {}
    for k in ks:
        met = colmax >= colmin
        counts[k] = _cell_boxes(colmin[met], colmax[met], deltas[k], False)
        colmin, colmax = colmin.reshape(-1, 2).min(axis=1), colmax.reshape(-1, 2).max(axis=1)
    return counts


# --------------------------------------------------------------------------
# Consolidated report


@dataclass
class BoundsReport:
    gamma_report: GammaReport
    entries: list[BoundEntry]
    empirical: EmpiricalEstimate | None
    best_lower: float | None
    best_upper: float | None
    exact: bool
    inconsistent: bool

    def to_dict(self) -> dict:
        return {
            "gamma": list(self.gamma_report.gamma),
            "gamma0": list(self.gamma_report.gamma0),
            "gamma_flavored": {
                f"gamma_{j},{r}": v
                for (j, r), v in sorted(self.gamma_report.flavored.items())
            },
            "eta_prime": self.gamma_report.eta_prime,
            "entries": [e.to_dict() for e in self.entries],
            "empirical": self.empirical.to_dict() if self.empirical else None,
            "best_lower": self.best_lower,
            "best_upper": self.best_upper,
            "exact": self.exact,
            "inconsistent": self.inconsistent,
        }


def reconcile(
    model: FifModel,
    k_min: int | None = None,
    k_max: int | None = None,
    gamma_pin: float | None = None,
    with_empirical: bool = True,
) -> BoundsReport:
    """All theorem entries plus the empirical estimate, cross-validated."""
    entries = theoretical_entries(model, gamma_pin=gamma_pin)
    lowers = [e.value for e in entries if e.kind in ("lower", "exact")
              and e.applies and not e.vacuous and not e.heuristic]
    uppers = [e.value for e in entries if e.kind in ("upper", "exact")
              and e.applies and not e.vacuous]
    best_lower = max(lowers) if lowers else None
    best_upper = min(uppers) if uppers else None
    exact = any(e.kind == "exact" and e.applies for e in entries)

    empirical, inconsistent = None, False
    if with_empirical:
        dk = model.domain.analysis_defaults()
        empirical = empirical_dimension(model, dk["k_min"] if k_min is None else k_min,
                                        dk["k_max"] if k_max is None else k_max)
        inconsistent = (
            best_lower is not None and empirical.slope < best_lower - 0.1
            or best_upper is not None and empirical.slope > best_upper + 0.1)
    return BoundsReport(gammas(model), entries, empirical, best_lower, best_upper,
                        exact, inconsistent)
