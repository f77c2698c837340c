"""Box-dimension machinery: gamma constants, covering witnesses,
theoretical lower/upper/exact bounds with hypothesis checklists, and the
empirical box-counting estimator.

Bracket discipline: every emitted inequality uses the bracket end that
weakens it (upper bounds take gamma's hi end, lower bounds take lo
ends), so numerical sup/inf estimation cannot flip a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import BudgetError, cell_budget
from .engine import (
    FifModel,
    GraphSample,
    ModelError,
    _level0,
    _level_at,
    _push,
    graph_samples,
)

__all__ = [
    "GammaReport",
    "CollinearWitness",
    "BoundEntry",
    "BoundsReport",
    "EmpiricalEstimate",
    "gammas",
    "find_witness",
    "witness_height_check",
    "upper_bound",
    "lower_bound_cube",
    "exact_dim_cube",
    "bounds_gasket",
    "lower_bound_interval_variable_s",
    "box_count",
    "empirical_dimension",
    "reconcile",
    "dim_domain",
    "DEFAULT_WINDOWS",
]

# default box-count window (k_min, k_max) per domain kind
DEFAULT_WINDOWS = {"interval": (4, 10), "cube": (3, 7), "gasket": (4, 8)}


def dim_domain(model: FifModel) -> float:
    """Box (= Hausdorff) dimension of the domain K itself."""
    kind = model.domain.kind
    if kind == "interval":
        return 1.0
    if kind == "cube":
        return float(model.domain.m)
    return math.log(3) / math.log(2)


# --------------------------------------------------------------------------
# Gamma family


@dataclass
class GammaReport:
    gamma: tuple[float, float]  # sum of sup|s_i| brackets
    gamma0: tuple[float, float]  # sum of inf|s_i| brackets
    flavored: dict[tuple[int, int], float]  # (flavor, r) -> gamma_{flavor,r}
    provenance: dict[tuple[int, int], list[int]]  # admitted map indices
    eta_prime: float


def _class_value(model: FifModel, i: int, flavor: int, r: int) -> float:
    """Per-map contribution s_{i,flavor,r}; 0 when hypotheses fail."""
    _, s_f = model.s[i]
    _, q_f = model.q[i]
    if not s_f.is_constant:
        return 0.0
    c = float(s_f.constant_value)
    allax = frozenset(range(1, model.domain.m + 1))
    if flavor == 1:
        axes = q_f.affine_in
        ok = axes >= allax if r == 0 else r in axes
        return abs(c) if ok else 0.0
    if c < 0:
        return 0.0
    axes = q_f.concave_in if flavor == 2 else q_f.convex_in
    ok = axes >= allax if r == 0 else r in axes
    return c if ok else 0.0


def gammas(model: FifModel) -> GammaReport:
    g_lo = sum(b[0] for b in model.s_sup)
    g_hi = sum(b[1] for b in model.s_sup)
    g0_lo = sum(b[0] for b in model.s_inf)
    g0_hi = sum(b[1] for b in model.s_inf)
    flavored: dict[tuple[int, int], float] = {}
    prov: dict[tuple[int, int], list[int]] = {}
    for flavor in (1, 2, 3):
        for r in range(model.domain.m + 1):
            vals = [_class_value(model, i, flavor, r) for i in range(model.N)]
            flavored[(flavor, r)] = float(sum(vals))
            prov[(flavor, r)] = [i for i, v in enumerate(vals) if v > 0]
    return GammaReport(
        gamma=(g_lo, g_hi),
        gamma0=(g0_lo, g0_hi),
        flavored=flavored,
        provenance=prov,
        eta_prime=min(1.0, model.eta),
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


def _witness_L(model: FifModel, y1, y2, y3, lam) -> float:
    p = model.p_at(np.array([y1, y2, y3]))
    return float(p[2] - ((1 - lam) * p[0] + lam * p[1]))


def _iter_triples(model: FifModel, r: int):
    """Yield (y1, y2, y3, lam) candidate collinear triples in V."""
    nodes = model.interpolation_nodes()
    n = len(nodes)
    tol = 1e-10 * max(model.geom.diameter, 1.0)
    if r >= 1:
        other = [u for u in range(model.domain.m) if u != r - 1]
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                y1, y2 = nodes[a], nodes[b]
                if any(abs(y1[u] - y2[u]) > tol for u in other):
                    continue
                if abs(y2[r - 1] - y1[r - 1]) <= tol:
                    continue
                for c in range(n):
                    if c in (a, b):
                        continue
                    y3 = nodes[c]
                    if any(abs(y3[u] - y1[u]) > tol for u in other):
                        continue
                    lam = (y3[r - 1] - y1[r - 1]) / (y2[r - 1] - y1[r - 1])
                    if not (1e-12 < lam < 1 - 1e-12):
                        continue
                    yield tuple(y1), tuple(y2), tuple(y3), float(lam)
    else:
        for a in range(n):
            for b in range(a + 1, n):
                y1, y2 = nodes[a], nodes[b]
                seg = y2 - y1
                seglen2 = float(seg @ seg)
                if seglen2 <= tol * tol:
                    continue
                for c in range(n):
                    if c in (a, b):
                        continue
                    y3 = nodes[c]
                    lam = float((y3 - y1) @ seg / seglen2)
                    if not (1e-12 < lam < 1 - 1e-12):
                        continue
                    if np.linalg.norm(y3 - (y1 + lam * seg)) > tol:
                        continue
                    yield tuple(y1), tuple(y2), tuple(y3), lam


def find_witness(
    model: FifModel, r: int, sign: int = 0
) -> CollinearWitness | None:
    """Best (max |L|) non-collinearity witness for axis r; None if flat.

    sign > 0 restricts to L > 0 triples, sign < 0 to L < 0.
    """
    best: CollinearWitness | None = None
    for y1, y2, y3, lam in _iter_triples(model, r):
        L = _witness_L(model, y1, y2, y3, lam)
        if abs(L) <= 1e-12:
            continue
        if sign > 0 and L <= 0:
            continue
        if sign < 0 and L >= 0:
            continue
        if best is None or abs(L) > abs(best.L):
            best = CollinearWitness(r, y1, y2, y3, lam, L)
    return best


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
    if flavor == 2 and w.L <= 0:
        raise ModelError("flavor 2 needs a witness with L > 0")
    if flavor == 3 and w.L >= 0:
        raise ModelError("flavor 3 needs a witness with L < 0")
    if flavor not in (1, 2, 3):
        raise ModelError(f"unknown flavor {flavor}")

    def push_value(y):
        x = np.asarray(y, float)
        v = float(model.p_at(x)[0])
        for j in range(len(word) - 1, -1, -1):
            i = word[j]
            v = float(model.s[i][0].ev(x[None, :])[0]) * v + float(
                model.q[i][0].ev(x[None, :])[0]
            )
            x = np.asarray(model.domain.maps[i](x))
        return v

    v1, v2, v3 = push_value(w.y1), push_value(w.y2), push_value(w.y3)
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
        return {
            "theorem": self.theorem,
            "kind": self.kind,
            "value": self.value,
            "hypotheses": [{"name": n, "pass": ok} for n, ok in self.hypotheses],
            "vacuous": self.vacuous,
            "heuristic": self.heuristic,
            "note": self.note,
        }


def _holder_declared(model: FifModel) -> bool:
    """All s_i, q_i carry Hoelder facts compatible with the model eta."""
    eta = min(1.0, model.eta)
    for e, f in list(model.s) + list(model.q):
        if f.is_constant:
            continue
        if f.holder_exponent is None or f.holder_constant is None:
            return False
        if f.holder_exponent < eta - 1e-12:
            return False
    return True


def upper_bound(model: FifModel, gamma_override: float | None = None) -> BoundEntry:
    """Oscillation-space upper bound with its two-case split on gamma."""
    g = gammas(model)
    gamma_hi = gamma_override if gamma_override is not None else g.gamma[1]
    lam = model.geom.lam
    n = model.geom.N
    etap = g.eta_prime
    holder_ok = _holder_declared(model)
    threshold = n / lam**etap
    if gamma_hi <= threshold:
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
        note=note,
    )


def lower_bound_cube(model: FifModel) -> list[BoundEntry]:
    """Non-collinearity lower bounds on interval/cube domains.

    One candidate entry per axis r and flavor; entries whose value does
    not exceed dim K are kept but flagged vacuous.
    """
    if model.domain.kind not in ("interval", "cube"):
        return []
    g = gammas(model)
    lam0 = model.geom.lam0
    base_dim = dim_domain(model)
    out = []
    for r in range(1, model.domain.m + 1):
        for flavor, sign, need in ((1, 0, "L != 0"), (2, 1, "L > 0"), (3, -1, "L < 0")):
            gv = g.flavored[(flavor, r)]
            if gv <= 0:
                continue
            w = find_witness(model, r, sign=sign)
            value = 1 + math.log(gv) / math.log(lam0)
            out.append(
                BoundEntry(
                    theorem=f"noncollinear_lower_flavor{flavor}_axis{r}",
                    kind="lower",
                    value=value,
                    hypotheses=[
                        (f"witness with {need} on axis {r}", w is not None),
                        (f"gamma_{flavor},{r} > 0", True),
                    ],
                    vacuous=value <= base_dim + 1e-12,
                    note=f"gamma_{flavor},{r} = {gv:.10g}"
                    + (f"; witness |L| = {abs(w.L):.10g}" if w else ""),
                )
            )
    return out


def _equally_spaced(knots, tol=1e-9) -> bool:
    diffs = np.diff(np.asarray(knots, float))
    return bool(np.max(diffs) - np.min(diffs) <= tol * np.max(diffs))


def exact_dim_cube(model: FifModel) -> BoundEntry | None:
    """Exact box dimension on equally spaced interval/cube domains.

    Requires all scales constant, a non-collinearity witness whose flavor
    matches the shared shape of the displacements, and one of the two
    corollary inequalities on gamma.
    """
    d = model.domain
    if d.kind not in ("interval", "cube"):
        return None
    counts = {len(ax.knots) - 1 for ax in d.axes}
    if len(counts) != 1:
        return None
    n = counts.pop()
    if not all(_equally_spaced(ax.knots) for ax in d.axes):
        return None
    if not all(f.is_constant for _, f in model.s):
        return None
    m = d.m
    etap = min(1.0, model.eta)
    gamma = sum(abs(f.constant_value) for _, f in model.s)
    holder_ok = _holder_declared(model)

    # witness + matching shape route, per axis
    route = None
    for r in range(1, m + 1):
        if all(r in f.affine_in for _, f in model.q):
            if find_witness(model, r, sign=0) is not None:
                route = (r, "affine")
                break
        nonneg = all(f.constant_value >= 0 for _, f in model.s)
        if nonneg and all(r in f.concave_in for _, f in model.q):
            if find_witness(model, r, sign=+1) is not None:
                route = (r, "concave, L > 0")
                break
        if nonneg and all(r in f.convex_in for _, f in model.q):
            if find_witness(model, r, sign=-1) is not None:
                route = (r, "convex, L < 0")
                break
    if route is None:
        return None

    hyps = [
        ("equally spaced, equal n per axis", True),
        ("all s_i constant", True),
        ("q_i Hoelder-declared (C^eta)", holder_ok),
        (f"witness with q {route[1]} on axis {route[0]}", True),
    ]
    if gamma > n ** (m - etap) + 1e-12:
        value = 1 + math.log(gamma) / math.log(n)
        note = f"gamma = {gamma:.10g} > n^(m - eta')"
    elif gamma <= n ** (m - 1) + 1e-12 and abs(etap - 1.0) <= 1e-12:
        value = float(m)
        note = f"gamma = {gamma:.10g} <= n^(m-1), eta' = 1"
    else:
        return None
    return BoundEntry(
        theorem="exact_dim_equally_spaced",
        kind="exact",
        value=value,
        hypotheses=hyps,
        note=note,
    )


def bounds_gasket(model: FifModel) -> list[BoundEntry]:
    """Lower bounds and the exact-dimension case on the gasket."""
    d = model.domain
    if d.kind != "gasket":
        return []
    g = gammas(model)
    n = d.level
    lam = 2.0**n
    base_dim = dim_domain(model)
    out = []
    exact_route = None
    for flavor, sign, need in ((1, 0, "L != 0"), (2, 1, "L > 0"), (3, -1, "L < 0")):
        gv = g.flavored[(flavor, 0)]
        if gv <= 0:
            continue
        w = find_witness(model, 0, sign=sign)
        value = 1 + math.log(gv) / math.log(lam)
        out.append(
            BoundEntry(
                theorem=f"gasket_lower_flavor{flavor}",
                kind="lower",
                value=value,
                hypotheses=[
                    (f"witness with {need}", w is not None),
                    (f"gamma_{flavor},0 > 0", True),
                ],
                vacuous=value <= base_dim + 1e-12,
                note=f"gamma_{flavor},0 = {gv:.10g}"
                + (f"; witness |L| = {abs(w.L):.10g}" if w else ""),
            )
        )
        if (
            exact_route is None
            and w is not None
            and gv >= g.gamma[0] - 1e-9
        ):
            exact_route = flavor
    if exact_route is not None and _holder_declared(model):
        gamma = g.gamma[1]
        etap = min(1.0, model.eta)
        if gamma > (3 / 2**etap) ** n + 1e-12:
            out.append(
                BoundEntry(
                    theorem="gasket_exact",
                    kind="exact",
                    value=1 + math.log(gamma) / math.log(2**n),
                    hypotheses=[
                        ("s_i, q_i Hoelder-declared (C^eta)", True),
                        (f"flavor-{exact_route} classification saturates gamma", True),
                    ],
                    note=f"gamma = {gamma:.10g} > (3/2^eta')^n",
                )
            )
        elif gamma <= 1.5**n + 1e-12 and abs(etap - 1.0) <= 1e-12:
            out.append(
                BoundEntry(
                    theorem="gasket_exact",
                    kind="exact",
                    value=math.log(3) / math.log(2),
                    hypotheses=[
                        ("s_i, q_i Hoelder-declared (C^eta)", True),
                        (f"flavor-{exact_route} classification saturates gamma", True),
                    ],
                    note=f"gamma = {gamma:.10g} <= (3/2)^n, eta' = 1",
                )
            )
    return out


def lower_bound_interval_variable_s(model: FifModel) -> BoundEntry | None:
    """Variable-scale lower bound on equally spaced intervals.

    Route (a): bounded-variation shape facts (eta = 1 declared) plus a
    flavor-compatible witness with flavored gamma > 1.  Route (b): the
    divergence hypothesis probed empirically on finite levels; emitted
    with a heuristic flag.
    """
    d = model.domain
    if d.kind != "interval" or not _equally_spaced(d.axes[0].knots):
        return None
    g = gammas(model)
    n = model.geom.N
    gamma0_lo = g.gamma0[0]
    eta = min(1.0, model.eta)

    bv_facts = all(
        f.is_constant or (f.holder_exponent is not None and f.holder_exponent >= 1.0)
        for _, f in list(model.s) + list(model.q)
    )
    corollary = None
    if bv_facts:
        for flavor, sign in ((1, 0), (2, 1), (3, -1)):
            if g.flavored[(flavor, 0)] > 1 and find_witness(model, 1, sign=sign):
                corollary = flavor
                break
    if corollary is not None:
        value = 1 + math.log(max(gamma0_lo, 1e-300)) / math.log(n)
        return BoundEntry(
            theorem="variable_scale_lower",
            kind="lower",
            value=value,
            hypotheses=[
                ("equally spaced interval", True),
                ("bounded-variation shape facts (eta = 1)", True),
                (f"flavor-{corollary} witness with flavored gamma > 1", True),
            ],
            vacuous=value <= 1.0 + 1e-12,
            note=f"gamma_0 = {gamma0_lo:.10g} (corollary route)",
        )

    # route (b): empirical divergence probe of N(r) / (N^(2-eta))^r
    if gamma0_lo <= n ** (1 - eta) + 1e-12:
        return None
    ratios = []
    for sample in graph_samples(model, {r: 2 for r in range(2, 7)}):
        r = sample.level
        delta = model.geom.diameter / model.geom.lam**r
        ratios.append(box_count(sample, delta) / (n ** (2 - eta)) ** r)
    growing = ratios[-1] >= 2 * ratios[0] and all(
        b >= a * 0.99 for a, b in zip(ratios, ratios[1:])
    )
    if not growing:
        return None
    value = 1 + math.log(gamma0_lo) / math.log(n)
    return BoundEntry(
        theorem="variable_scale_lower",
        kind="lower",
        value=value,
        hypotheses=[
            ("equally spaced interval", True),
            ("gamma_0 > N^(1-eta)", True),
            ("divergence probe (finite-level heuristic)", True),
        ],
        vacuous=value <= 1.0 + 1e-12,
        heuristic=True,
        note=f"gamma_0 = {gamma0_lo:.10g}; probe ratios {ratios[0]:.3g} -> {ratios[-1]:.3g}",
    )


# --------------------------------------------------------------------------
# Box counting


def box_count(sample: GraphSample, delta: float) -> int:
    """Count delta-boxes covering the sampled graph.

    m = 1 uses the column method over the x-axis with observed per-cell
    value ranges; cubes and the gasket use the per-cell prism device
    ceil(osc / delta) + 1 with delta aligned to cell sizes.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    m = sample.cell_lo.shape[1]
    if m == 1:
        x0 = float(np.min(sample.cell_lo[:, 0]))
        x1 = float(np.max(sample.cell_hi[:, 0]))
        ncols = max(1, int(math.ceil((x1 - x0) / delta - 1e-9)))
        # tie tolerance grows with the column index so accumulated float
        # error in deep-level cell corners cannot spill across boundaries
        t = (sample.cell_lo[:, 0] - x0) / delta
        u = (sample.cell_hi[:, 0] - x0) / delta
        ia = np.clip(
            np.floor(t + 1e-9 + 1e-12 * np.abs(t)).astype(int), 0, ncols - 1
        )
        ib = np.clip(
            np.floor(u - 1e-9 - 1e-12 * np.abs(u)).astype(int), 0, ncols - 1
        )
        ib = np.maximum(ia, ib)
        span = int(np.max(ib - ia))
        if span > 64:
            raise ValueError("cells too coarse for this delta; refine the sample")
        colmin = np.full(ncols, np.inf)
        colmax = np.full(ncols, -np.inf)
        for o in range(span + 1):
            mask = ia + o <= ib
            idx = ia[mask] + o
            np.minimum.at(colmin, idx, sample.vmin[mask])
            np.maximum.at(colmax, idx, sample.vmax[mask])
        filled = colmax >= colmin
        ranges = colmax[filled] - colmin[filled]
        counts = np.maximum(1, np.ceil(ranges / delta - 1e-9))
        return int(np.sum(counts))
    osc = sample.vmax - sample.vmin
    return int(np.sum(np.ceil(osc / delta - 1e-9) + 1))


@dataclass
class EmpiricalEstimate:
    entries: list[tuple[int, float, int]]  # (k, delta, count)
    slope: float
    residual: float
    k_min: int
    k_max: int

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"k": k, "delta": d, "count": c} for k, d, c in self.entries
            ],
            "slope": self.slope,
            "residual": self.residual,
            "k_min": self.k_min,
            "k_max": self.k_max,
        }


def _equal_ratio(model: FifModel) -> bool:
    ratios = [mp.ratio for mp in model.domain.maps]
    return max(ratios) - min(ratios) <= 1e-12


def empirical_dimension(
    model: FifModel, k_min: int, k_max: int, extra: int = 2
) -> EmpiricalEstimate:
    """Log-log slope of box counts over the level-tied delta sequence.

    Equal-ratio domains use delta_k = |K| / Lambda^k with level-k cells;
    unequal knots fall back to dyadic delta counted on the deepest cell
    table (column method, m = 1 only).
    """
    if k_min < 2:
        raise ModelError("k_min must be >= 2")
    if k_max < k_min:
        raise ModelError("k_max must be >= k_min")
    budget = cell_budget()
    p = len(model.domain.v0)
    depth = k_max + extra
    while depth > k_max and model.N**depth * p > budget:
        depth -= 1
    if model.N**depth * p > budget:
        raise BudgetError("empirical estimation exceeds the cell budget")

    n = model.N
    diam = model.geom.diameter
    lam = model.geom.lam
    entries = []
    if _equal_ratio(model) or model.domain.m > 1:
        # one forward pass; every level k is read off with the same
        # refinement depth e, keeping the osc truncation bias uniform
        # across the regression window (a sliding extra would tilt it)
        e = depth - k_max
        lev = _level0(model)
        for level in range(1, depth + 1):
            lev = _push(model, lev)
            k = level - e
            if not k_min <= k <= k_max:
                continue
            c = n**k
            shape = (c, -1)
            sub = GraphSample(
                level=k,
                extra=e,
                N=n,
                vert_pts=np.empty((c, 0, model.domain.m)),
                vert_vals=np.empty((c, 0)),
                cell_lo=lev.lo.reshape(c, -1, model.domain.m).min(axis=1),
                cell_hi=lev.hi.reshape(c, -1, model.domain.m).max(axis=1),
                cell_diam=lev.diam.reshape(shape).max(axis=1),
                vmin=lev.vals.reshape(shape).min(axis=1),
                vmax=lev.vals.reshape(shape).max(axis=1),
                slack=0.0,
            )
            delta = diam / lam**k
            entries.append((k, delta, box_count(sub, delta)))
    else:
        # unequal knots: dyadic deltas against the deepest table
        deep = _level_at(model, depth)
        flat = GraphSample(
            level=depth,
            extra=0,
            N=n,
            vert_pts=np.empty((n**depth, 0, model.domain.m)),
            vert_vals=np.empty((n**depth, 0)),
            cell_lo=deep.lo,
            cell_hi=deep.hi,
            cell_diam=deep.diam,
            vmin=deep.vals.min(axis=1),
            vmax=deep.vals.max(axis=1),
            slack=0.0,
        )
        for k in range(k_min, k_max + 1):
            delta = diam / 2.0**k
            entries.append((k, delta, box_count(flat, delta)))

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
    entries = [upper_bound(model)]
    if gamma_pin is not None:
        entries.append(upper_bound(model, gamma_override=gamma_pin))
    kind = model.domain.kind
    if kind in ("interval", "cube"):
        entries.extend(lower_bound_cube(model))
        ex = exact_dim_cube(model)
        if ex is not None:
            entries.append(ex)
        if kind == "interval":
            var = lower_bound_interval_variable_s(model)
            if var is not None:
                entries.append(var)
    else:
        entries.extend(bounds_gasket(model))
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
    lowers = [
        e.value
        for e in entries
        if e.kind in ("lower", "exact")
        and e.applies
        and not e.vacuous
        and not e.heuristic
    ]
    uppers = [
        e.value for e in entries if e.kind in ("upper", "exact") and e.applies
    ]
    best_lower = max(lowers) if lowers else None
    best_upper = min(uppers) if uppers else None
    exact = any(e.kind == "exact" and e.applies for e in entries)

    empirical = None
    inconsistent = False
    if with_empirical:
        dk_min, dk_max = DEFAULT_WINDOWS[model.domain.kind]
        empirical = empirical_dimension(
            model, k_min if k_min is not None else dk_min,
            k_max if k_max is not None else dk_max,
        )
        if best_lower is not None and empirical.slope < best_lower - 0.1:
            inconsistent = True
        if best_upper is not None and empirical.slope > best_upper + 0.1:
            inconsistent = True
    return BoundsReport(
        gamma_report=gammas(model),
        entries=entries,
        empirical=empirical,
        best_lower=best_lower,
        best_upper=best_upper,
        exact=exact,
        inconsistent=inconsistent,
    )
