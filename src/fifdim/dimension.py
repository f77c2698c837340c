"""Box-dimension machinery: gamma constants, covering witnesses,
theoretical lower/upper/exact bounds with hypothesis checklists, and the
empirical box-counting estimator.

Bracket discipline: every emitted inequality uses the bracket end that
weakens it (upper bounds take gamma's hi end, lower bounds take lo
ends), so numerical sup/inf estimation cannot flip a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import BudgetError, cell_budget
from .engine import (
    BLOCK_SLOTS,
    FifModel,
    GraphSample,
    ModelError,
    _check_int,
    _child,
    _fit_extra,
    _Level,
    _word_index,
    graph_sample,
    graph_samples,
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
    "upper_bound",
    "lower_bound_noncollinear",
    "exact_dim",
    "lower_bound_interval_variable_s",
    "box_count",
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

    _word_index(word, model.N)  # a ModelError for a bad symbol
    ys = np.array([w.y1, w.y2, w.y3], float)
    lev = _Level(ys[None], model.p_at(ys)[None])
    for i in reversed(word):
        lev = _child(model, lev, i)
    v1, v2, v3 = lev.vals[0].tolist()
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


def _holder_declared(model: FifModel) -> bool:
    """All s_i, q_i carry Hoelder facts compatible with the model eta."""
    return all(f.is_constant or (
        f.holder_exponent is not None and f.holder_constant is not None
        and f.holder_exponent >= model.eta_prime - 1e-12)
        for _, f in list(model.s) + list(model.q))


def upper_bound(model: FifModel, gamma_override: float | None = None) -> BoundEntry:
    """Oscillation-space upper bound with its two-case split on gamma; a
    value above m + 1 (cubes with unequal pieces per axis) is vacuous."""
    g = gammas(model)
    gamma_hi = gamma_override if gamma_override is not None else g.gamma[1]
    lam, n, etap = model.domain.lam, model.N, g.eta_prime
    holder_ok = _holder_declared(model)
    if gamma_hi <= n / lam**etap:
        value = 1 - etap + math.log(n) / math.log(lam)
        case = "gamma <= N / Lambda^eta'"
    else:
        value = 1 + math.log(gamma_hi) / math.log(lam)
        case = "gamma > N / Lambda^eta'"
    note = f"case fired: {case}; gamma = {gamma_hi:.10g}"
    if gamma_override is not None:
        note += " (pinned)"
    return BoundEntry(
        theorem="oscillation_upper",
        kind="upper",
        value=value,
        hypotheses=[("s_i, q_i Hoelder-declared (C^eta)", holder_ok)],
        vacuous=value > model.domain.m + 1,
        note=note,
    )


def lower_bound_noncollinear(model: FifModel) -> list[BoundEntry]:
    """Non-collinearity lower bounds 1 + log gamma_{j,r} / log Lambda_0.

    One candidate entry per flavor j and witness direction r: each axis
    r = 1..m of a product domain, or r = 0 (triples in general position)
    on the gasket.  Entries not above dim K are kept but flagged vacuous.
    """
    g = gammas(model)
    out = []
    for r in range(1, len(model.domain.axes) + 1) or (0,):
        for flavor, (_, sign, need) in FLAVORS.items():
            gv = g.flavored[(flavor, r)]
            if gv <= 0:
                continue
            w = find_witness(model, r, sign=sign)
            value = 1 + math.log(gv) / math.log(model.domain.lam0)
            out.append(
                BoundEntry(
                    theorem=f"noncollinear_lower_flavor{flavor}_axis{r}" if r
                    else f"gasket_lower_flavor{flavor}",
                    kind="lower",
                    value=value,
                    hypotheses=[
                        (f"witness with {need}" + (f" on axis {r}" if r else ""),
                         w is not None),
                        (f"gamma_{flavor},{r} > 0", True),
                    ],
                    vacuous=value <= model.domain.dim + 1e-12,
                    note=f"gamma_{flavor},{r} = {gv:.10g}"
                    + (f"; witness |L| = {abs(w.L):.10g}" if w else ""),
                )
            )
    return out


def exact_dim(model: FifModel) -> BoundEntry | None:
    """Exact box dimension where the upper and the lower bound meet.

    All s_i constant on a homogeneous domain (an equally spaced interval
    or cube with n pieces per axis, or the gasket), and a route: the first
    witness direction r (as in ``lower_bound_noncollinear``) and flavor j
    with gamma_{j,r} >= gamma = sum |s_i| and a witness.  Then dim =
    1 + log gamma / log Lambda_0 if gamma > N / Lambda_0^eta', and dim K
    if gamma <= N / Lambda_0 and eta' = 1; between the two, no entry.
    """
    d, etap = model.domain, model.eta_prime
    if not d.homogeneous or not all(f.is_constant for _, f in model.s):
        return None
    gamma = sum(abs(f.constant_value) for _, f in model.s)
    if gamma > model.N / d.lam0**etap + 1e-12:
        value, large = 1 + math.log(gamma) / math.log(d.lam0), True
    elif gamma <= model.N / d.lam0 + 1e-12 and abs(etap - 1.0) <= 1e-12:
        value, large = d.dim, False
    else:
        return None
    g = gammas(model)
    route = next(((r, flavor) for r in range(1, len(d.axes) + 1) or (0,)
                  for flavor, (_, sign, _) in FLAVORS.items()
                  if g.flavored[(flavor, r)] >= gamma - 1e-9
                  and find_witness(model, r, sign=sign) is not None), None)
    if route is None:
        return None
    r, flavor = route
    holder_ok = _holder_declared(model)
    if r:  # N = n^m and Lambda_0 = n on the product domain
        shape, sign, need = FLAVORS[flavor]
        theorem = "exact_dim_equally_spaced"
        case = "> n^(m - eta')" if large else "<= n^(m-1), eta' = 1"
        hyps = [("equally spaced, equal n per axis", True),
                ("all s_i constant", True),
                ("q_i Hoelder-declared (C^eta)", holder_ok),
                (f"witness with q {shape}{f', {need}' if sign else ''} on axis {r}",
                 True)]
    else:  # N = 3^n and Lambda_0 = 2^n on the level-n gasket
        theorem = "gasket_exact"
        case = "> (3/2^eta')^n" if large else "<= (3/2)^n, eta' = 1"
        hyps = [("s_i, q_i Hoelder-declared (C^eta)", holder_ok),
                (f"flavor-{flavor} classification saturates gamma", True)]
    return BoundEntry(theorem=theorem, kind="exact", value=value,
                      hypotheses=hyps, note=f"gamma = {gamma:.10g} {case}")


def lower_bound_interval_variable_s(model: FifModel) -> BoundEntry | None:
    """Variable-scale lower bound on homogeneous (equally spaced) intervals.

    Route (a): bounded-variation shape facts (eta = 1 declared) plus a
    flavor-compatible witness with flavored gamma > 1.  Route (b): the
    divergence hypothesis probed empirically on finite levels; emitted
    with a heuristic flag.
    """
    d = model.domain
    if d.m != 1 or not d.homogeneous:
        return None
    g = gammas(model)
    n, eta, gamma0 = model.N, model.eta_prime, g.gamma0[0]
    bv_facts = all(
        f.is_constant or (f.holder_exponent is not None and f.holder_exponent >= 1.0)
        for _, f in list(model.s) + list(model.q)
    )
    corollary = next((flavor for flavor, (_, sign, _) in FLAVORS.items()
                      if bv_facts and g.flavored[(flavor, 0)] > 1
                      and find_witness(model, 1, sign=sign)), None)
    if corollary is not None:  # then gamma_0 >= gamma_{j,0} > 1
        hyps = [("bounded-variation shape facts (eta = 1)", True),
                (f"flavor-{corollary} witness with flavored gamma > 1", True)]
        note = f"gamma_0 = {gamma0:.10g} (corollary route)"
    else:
        # route (b): empirical divergence probe of N(r) / (N^(2-eta))^r
        if gamma0 <= n ** (1 - eta) + 1e-12:
            return None
        ratios = [c / (n ** (2 - eta)) ** k
                  for k, _, c in empirical_dimension(model, 2, 6).entries]
        growing = ratios[-1] >= 2 * ratios[0] and all(
            b >= a * 0.99 for a, b in zip(ratios, ratios[1:]))
        if not growing:
            return None
        hyps = [("gamma_0 > N^(1-eta)", True),
                ("divergence probe (finite-level heuristic)", True)]
        note = (f"gamma_0 = {gamma0:.10g}; probe ratios {ratios[0]:.3g} -> "
                f"{ratios[-1]:.3g}")
    value = 1 + math.log(gamma0) / math.log(n)
    return BoundEntry(
        theorem="variable_scale_lower",
        kind="lower",
        value=value,
        hypotheses=[("equally spaced interval", True), *hyps],
        vacuous=value <= 1.0 + 1e-12,
        heuristic=corollary is None,
        note=note,
    )


# --------------------------------------------------------------------------
# Box counting


def box_count(sample: GraphSample, delta: float) -> int:
    """Count delta-boxes covering the sampled graph.

    m = 1 uses the column method over the x-axis with observed per-cell
    value ranges.  With equal map ratios and the level-tied delta_k =
    |K| / Lambda^k, exactly the float of ``Domain.delta``, each level-k
    cell is one column, so the count sums max(ceil(osc / delta), 1) over
    cells; any other delta reduces each column's run of cells in x order
    (``_column_runs``).  Cubes and the gasket sum the per-cell prism
    device ceil(osc / delta) + 1 in the same loop over blocks of cells.
    """
    if not 0 < delta < math.inf:  # nan is not
        raise ValueError(f"delta must be a finite number > 0, got {delta}")
    d = sample.domain
    if d.m == 1 and (not d.equal_ratio or delta != d.delta(sample.level)):
        return _column_runs(sample, delta)
    total, buf = 0, np.empty(min(sample.cells, BLOCK_SLOTS))  # stays in cache
    for a in range(0, sample.cells, BLOCK_SLOTS):
        top, bot = sample.vmax[a:a + BLOCK_SLOTS], sample.vmin[a:a + BLOCK_SLOTS]
        r = np.subtract(top, bot, out=buf[:len(top)])
        r /= delta
        r -= 1e-9
        np.ceil(r, out=r)
        total += int(np.sum(np.add(r, 1, out=r) if d.m > 1
                            else np.maximum(r, 1, out=r)))
    return total


def _first_at_least(col, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per target c, the first j with col(x[j]) >= c, or len(x), where
    col(x[j]) is nondecreasing in j: one vectorised bisection for all
    targets, evaluating col at O(len(targets) log len(x)) points."""
    pos = np.zeros(len(targets), dtype=np.intp)
    step = 1 << (len(x).bit_length() - 1)
    while step:
        cand = pos + step
        probe = col(x[np.minimum(cand, len(x)) - 1])
        pos = np.where((cand <= len(x)) & (probe < targets), cand, pos)
        step >>= 1
    return pos


def _column_runs(sample: GraphSample, delta: float) -> int:
    """The column method on O(ncols log C) cell corners instead of 2C.

    A cell spans columns first .. last = max(first, its hi corner's).
    Level cells tile the interval, so in x order both corners increase.
    A column is t = (x - x0) / delta plus a tie of 1e-9 + 1e-12 |x| /
    delta (minus it for a hi corner).  Between corners a cell width apart
    the tie moves by at most 1e-12 of the step in t, so the sum grows by
    at least 1 - 1e-12 of it, and each op's rounding takes back an ulp of
    |x| / delta, far less while the cells number well below 2^52.  So the
    cells meeting column c are one run in x order, from the first whose
    last column >= c to the first whose first column > c; a widest cell
    starts the run of its last.
    """
    order, lo, hi = sample.x_order
    x0 = float(lo[0])
    ncols = max(1, int(math.ceil((float(hi[-1]) - x0) / delta - 1e-9)))

    def col(x, sign=1.0):
        # floor(t + sign (1e-9 + 1e-12 |x| / delta)), sign -1 for a hi
        # corner: the tie grows with the corner's magnitude, as its
        # rounding does, so float error in deep-level cell corners cannot
        # spill across column boundaries wherever the interval lies
        t = (x - x0) / delta
        c = np.floor(t + sign * 1e-9 + np.abs(x) / delta * (sign * 1e-12)).astype(int)
        return np.clip(c, 0, ncols - 1)

    cols = np.arange(ncols + 1)
    ends = _first_at_least(col, lo, cols[1:])
    # last >= c where first >= c (from the end of run c - 1) or hi's >= c
    starts = np.minimum(np.concatenate(([0], ends[:-1])), _first_at_least(
        lambda x: col(x, -1.0), hi, cols[:-1]))
    met = starts < ends
    ia = col(lo[starts[met]])
    if np.max(np.maximum(col(hi[starts[met]], -1.0), ia) - ia) > 64:
        raise ModelError("cells too coarse for this delta; refine the sample")
    # odd segments are dropped; a run that ends at C stops one cell short
    runs = np.empty(2 * ncols, dtype=np.intp)
    runs[0::2], runs[1::2] = starts, np.minimum(ends, len(lo) - 1)
    ext, tail = [], ends == len(lo)
    for v, op in ((sample.vmin, np.minimum), (sample.vmax, np.maximum)):
        v = v[order]
        ext.append(op.reduceat(v, runs)[0::2])
        ext[-1][tail] = op(ext[-1][tail], v[-1])
    colmin, colmax = ext
    filled = met & (colmax >= colmin)
    ranges = colmax[filled] - colmin[filled]
    counts = np.maximum(1, np.ceil(ranges / delta - 1e-9))
    return int(np.sum(counts))


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
    """Log-log slope of box counts over the level-tied delta sequence.

    Equal-ratio domains use delta_k = |K| / Lambda^k with level-k cells;
    unequal knots fall back to dyadic delta counted on the cells of the
    deepest level (column method, m = 1 only).
    """
    _check_int(ModelError, k_min=(k_min, 2), k_max=(k_max, k_min), extra=(extra, 0))
    depth = k_max + _fit_extra(model, k_max, extra)

    diam = model.domain.diameter
    if model.domain.equal_ratio or model.domain.m > 1:
        # every level k is read off with the same refinement depth e,
        # keeping the osc truncation bias uniform across the regression
        # window (a sliding extra would tilt it)
        levels = dict.fromkeys(range(k_min, k_max + 1), depth - k_max)
        deltas = {k: model.domain.delta(k) for k in levels}
        entries = [(s.level, deltas[s.level], box_count(s, deltas[s.level]))
                   for s in graph_samples(model, levels)]
    else:
        # unequal knots: dyadic deltas against the deepest level
        sample = graph_sample(model, depth, 0)
        entries = [(k, diam / 2.0**k, box_count(sample, diam / 2.0**k))
                   for k in range(k_min, k_max + 1)]

    logs = np.log([1.0 / d for _, d, _ in entries])
    logn = np.log([c for _, _, c in entries])
    slope, intercept = np.polyfit(logs, logn, 1)
    resid = float(np.sqrt(np.mean((logn - (slope * logs + intercept)) ** 2)))
    return EmpiricalEstimate(
        entries=entries,
        slope=float(slope),
        residual=resid,
        k_min=k_min,
        k_max=k_max,
    )


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


def theoretical_entries(
    model: FifModel, gamma_pin: float | None = None
) -> list[BoundEntry]:
    """Every bound entry for the model's domain; ``exact_dim`` and the
    variable-scale bound give None off the models they cover."""
    entries = [upper_bound(model)]
    if gamma_pin is not None:
        entries.append(upper_bound(model, gamma_override=gamma_pin))
    entries.extend(lower_bound_noncollinear(model))
    entries.extend(e for e in (exact_dim(model),
                               lower_bound_interval_variable_s(model)) if e)
    return entries


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

    empirical = None
    inconsistent = False
    if with_empirical:
        dk_min, dk_max = model.domain.default_window
        empirical = empirical_dimension(
            model, k_min if k_min is not None else dk_min,
            k_max if k_max is not None else dk_max,
        )
        inconsistent = (
            best_lower is not None and empirical.slope < best_lower - 0.1
            or best_upper is not None and empirical.slope > best_upper + 0.1)
    return BoundsReport(
        gamma_report=gammas(model),
        entries=entries,
        empirical=empirical,
        best_lower=best_lower,
        best_upper=best_upper,
        exact=exact,
        inconsistent=inconsistent,
    )
