"""The oscillation-space seminorm and the Hoelder-to-oscillation ceiling.

Both read Osc(k, f*), the sum over level-k cells of the spread of f*,
from the exact values at the vertices of each cell's descendants a few
levels deeper.  Those values are points of the graph, so each spread,
and so each sum, is a true lower bound of the oscillation; no upper end
is carried.  The sums of every k come from one forward pass of the
recursion (``engine._sweep``), not one pass per k.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import (
    FifModel,
    _check_budget,
    _check_int,
    _fit_extra,
    _fold,
    _sweep,
)

__all__ = [
    "seminorm",
    "holder_to_osc_check",
]


def _osc_sums(model: FifModel, kmax: int) -> dict[int, float]:
    """Osc(k, f*) for k = 1..kmax, each from the vertices of level k + e,
    e = 4 or less near the budget (a shallower level still gives lower
    ends).  Each level k + e is folded once into the value ranges of its
    finest k, a block's cells in its order (``engine._sweep``): in push
    order up to the x order of an interval's block, which only the
    rounding of the sum sees.  A coarser k with the same k + e reduces that
    table (min and max are exact, so the grouping cannot change them)."""
    extras = {k: _fit_extra(model, k, 4) for k in range(1, kmax + 1)}
    depth = max(k + e for k, e in extras.items())
    _check_budget(model, depth, f"graph sample depth {depth}")
    n = model.N
    finest = {k + e: k for k, e in extras.items()}  # level k + e -> its finest k
    vmin = {k: np.full(n**k, np.inf) for k in extras}
    vmax = {k: np.full(n**k, -np.inf) for k in extras}
    for level, offset, block in _sweep(model, depth):
        if level in finest:
            k = finest[level]
            _fold(vmin[k], vmax[k], block.vals, offset, n**(level - k))
    for k, e in extras.items():
        if (f := finest[k + e]) != k:  # each group of n^(f - k) down axis 0
            for table, op in ((vmin, np.minimum), (vmax, np.maximum)):
                op.reduce(np.ascontiguousarray(table[f].reshape(n**k, -1).T), out=table[k])
    return {k: float(np.sum(vmax[k] - vmin[k])) for k in extras}


def _check_args(model: FifModel, eta: float, kmax: int | None) -> int:
    """kmax (the domain's default for None) once eta and kmax are valid."""
    top = math.log(model.N) / math.log(model.domain.lam)
    if not 0 <= eta <= top + 1e-12:
        raise ValueError(f"eta must lie in [0, log_Lambda N], got {eta}")
    if kmax is None:
        kmax = model.domain.default_kmax
    _check_int(ValueError, kmax=(kmax, 1))
    return kmax


def seminorm(model: FifModel, eta: float, kmax: int | None = None) -> float:
    """Lower estimate of the oscillation seminorm [f]_eta.

    Maximizes Osc(k, f)_lo / Lambda^(k (log_Lambda N - eta)) over
    k <= kmax; nondecreasing in kmax.
    """
    kmax, lam, n = _check_args(model, eta, kmax), model.domain.lam, model.N
    return max([0.0] + [osc / (n**k * lam ** (-k * eta))
                        for k, osc in _osc_sums(model, kmax).items()])


def holder_to_osc_check(
    model: FifModel, eta: float, holder_const: float, kmax: int | None = None
) -> dict[int, bool]:
    """Verify Osc(k, f)_lo <= H |K|^eta Lambda^(k (log_Lambda N - eta))."""
    kmax = _check_args(model, eta, kmax)
    if not 0 <= holder_const < math.inf:  # nan is not
        raise ValueError(f"holder_const must be finite and >= 0, got {holder_const}")
    lam, n, scale = model.domain.lam, model.N, holder_const * model.domain.diameter**eta
    return {k: osc <= scale * n**k * lam ** (-k * eta) * (1 + 1e-12) + 1e-12
            for k, osc in _osc_sums(model, kmax).items()}
