"""The oscillation-space seminorm and the Hoelder-to-oscillation ceiling.

Both read Osc(k, f*), the sum over level-k cells of the spread of f*,
from the exact values at the vertices of each cell's descendants a few
levels deeper.  Those values are points of the graph, so each spread,
and so each sum, is a true lower bound of the oscillation; no upper end
is carried.  The sums of every k come from one forward pass of the
recursion (``engine._sweep``), not one pass per k.
"""

from __future__ import annotations

import functools
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
    """Osc(k, f*) for k = 1..kmax, each from the vertices of level k + e_k,
    e_k = 4 or less near the budget (a shallower level still gives lower
    ends).  One sweep grouped by n^e0, e0 the least e_k, folds each level
    k + e_k once into a table of the value ranges of its groups
    (``engine._fold``), in the order of the cells in a block (push order up
    to the x order of an interval's block, which only the rounding of the
    sum sees).  Osc(k) reduces runs of n^(e_k - e0) rows of it (min and max
    are exact, so the grouping cannot change them)."""
    extras = {k: _fit_extra(model, k, 4) for k in range(1, kmax + 1)}
    depth = max(k + e for k, e in extras.items())
    _check_budget(model, depth, f"graph sample depth {depth}")
    n, e0 = model.N, min(extras.values())
    tables = {lv: (np.full(n**(lv - e0), np.inf), np.full(n**(lv - e0), -np.inf))
              for lv in {k + e for k, e in extras.items()}}  # one pair a level
    for level, offset, block in _sweep(model, depth, n**e0):
        if level in tables:
            _fold(*tables[level], block.vals, offset, n**e0)
    out = {}
    for k, e in extras.items():  # run j of r rows is rows j r + s, s = 0..r-1
        (lo, hi), r = tables[k + e], n**(e - e0)
        out[k] = float(np.sum(functools.reduce(np.maximum, [hi[s::r] for s in range(r)])
                              - functools.reduce(np.minimum, [lo[s::r] for s in range(r)])))
    return out


def _check_args(model: FifModel, eta: float, kmax: int | None) -> int:
    """kmax (the domain's seminorm_kmax for None) once eta and kmax are valid."""
    top = math.log(model.N) / math.log(model.domain.lam)
    if not 0 <= eta <= top + 1e-12:
        raise ValueError(f"eta must lie in [0, log_Lambda N], got {eta}")
    kmax = model.domain.analysis_defaults()["seminorm_kmax"] if kmax is None else kmax
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
