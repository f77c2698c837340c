"""Per-cell and total oscillations, and the oscillation-space seminorm.

Everything carries [lo, hi] brackets derived from graph-sample value
brackets so the inequality checks downstream stay one-sided safe.  The
level-k samples of a seminorm or ceiling check all come from one forward
pass of the recursion (``engine.graph_samples``), not one pass per k.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import FifModel, GraphSample, _check_int, _fit_extra, graph_samples

__all__ = [
    "cell_osc",
    "total_osc",
    "seminorm",
    "holder_to_osc_check",
]


def cell_osc(sample: GraphSample, word: tuple[int, ...]) -> tuple[float, float]:
    """Oscillation bracket of f* over the cell addressed by ``word``."""
    i = sample.index_of(word)
    spread = float(sample.vmax[i] - sample.vmin[i])
    return spread, spread + 2 * sample.slack


def total_osc(sample: GraphSample, k: int | None = None) -> tuple[float, float]:
    """Bracket of Osc(k, f*) = sum of level-k cell oscillations."""
    if k is not None and k != sample.level:
        raise ValueError(f"sample is at level {sample.level}, not {k}")
    spread = sample.vmax - sample.vmin
    lo = float(np.sum(spread))
    hi = lo + 2 * sample.slack * sample.cells
    return lo, hi


def _samples_up_to(model: FifModel, kmax: int, extra: int = 4):
    # shrink the refinement depth near the budget; lo-ends stay valid
    return graph_samples(model, {k: _fit_extra(model, k, extra)
                                 for k in range(1, kmax + 1)})


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
    kmax = _check_args(model, eta, kmax)
    lam = model.domain.lam
    n = model.N
    best = 0.0
    for sample in _samples_up_to(model, kmax):
        k = sample.level
        denom = n**k * lam ** (-k * eta)
        best = max(best, total_osc(sample)[0] / denom)
    return best


def holder_to_osc_check(
    model: FifModel, eta: float, holder_const: float, kmax: int | None = None
) -> dict[int, bool]:
    """Verify Osc(k, f)_lo <= H |K|^eta Lambda^(k (log_Lambda N - eta))."""
    kmax = _check_args(model, eta, kmax)
    if not 0 <= holder_const < math.inf:  # nan is not
        raise ValueError(f"holder_const must be finite and >= 0, got {holder_const}")
    lam = model.domain.lam
    n = model.N
    diam = model.domain.diameter
    out = {}
    for sample in _samples_up_to(model, kmax):
        k = sample.level
        ceiling = holder_const * diam**eta * n**k * lam ** (-k * eta)
        out[k] = total_osc(sample)[0] <= ceiling * (1 + 1e-12) + 1e-12
    return out
