"""Per-cell and total oscillations, and the oscillation-space seminorm.

Everything carries [lo, hi] brackets derived from graph-sample value
brackets so the inequality checks downstream stay one-sided safe.  The
level-k samples of a seminorm or ceiling check all come from one forward
pass of the recursion (``engine.graph_samples``), not one pass per k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import cell_budget
from .engine import FifModel, GraphSample, graph_samples

__all__ = [
    "OscTable",
    "cell_osc",
    "total_osc",
    "osc_table",
    "seminorm",
    "holder_to_osc_check",
    "DEFAULT_KMAX",
]

# desk-scale defaults: N^k stays around 5e5 cells for intervals/SG
DEFAULT_KMAX = {"interval": 12, "gasket": 12, "cube": 8}


def cell_osc(sample: GraphSample, word: tuple[int, ...]) -> tuple[float, float]:
    """Oscillation bracket of f* over the cell addressed by ``word``."""
    return sample.osc_bracket(word)


def total_osc(sample: GraphSample, k: int | None = None) -> tuple[float, float]:
    """Bracket of Osc(k, f*) = sum of level-k cell oscillations."""
    if k is not None and k != sample.level:
        raise ValueError(f"sample is at level {sample.level}, not {k}")
    spread = sample.vmax - sample.vmin
    lo = float(np.sum(spread))
    hi = lo + 2 * sample.slack * sample.cells
    return lo, hi


@dataclass
class OscTable:
    level: int
    cell_osc_lo: np.ndarray
    cell_osc_hi: np.ndarray
    total: tuple[float, float]


def osc_table(sample: GraphSample) -> OscTable:
    spread = sample.vmax - sample.vmin
    return OscTable(
        level=sample.level,
        cell_osc_lo=spread,
        cell_osc_hi=spread + 2 * sample.slack,
        total=total_osc(sample),
    )


def _samples_up_to(model: FifModel, kmax: int, extra: int = 4):
    budget = cell_budget()
    p = len(model.domain.v0)
    extras = {}
    for k in range(1, kmax + 1):
        # shrink the refinement depth near the budget; lo-ends stay valid
        e = extra
        while e > 0 and model.N ** (k + e) * p > budget:
            e -= 1
        extras[k] = e
    return graph_samples(model, extras)


def seminorm(model: FifModel, eta: float, kmax: int | None = None) -> float:
    """Lower estimate of the oscillation seminorm [f]_eta.

    Maximizes Osc(k, f)_lo / Lambda^(k (log_Lambda N - eta)) over
    k <= kmax; nondecreasing in kmax.
    """
    lam = model.geom.lam
    n = model.geom.N
    if not (0 <= eta <= math.log(n) / math.log(lam) + 1e-12):
        raise ValueError(f"eta must lie in [0, log_Lambda N], got {eta}")
    if kmax is None:
        kmax = DEFAULT_KMAX[model.domain.kind]
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
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
    lam = model.geom.lam
    n = model.geom.N
    diam = model.geom.diameter
    if kmax is None:
        kmax = DEFAULT_KMAX[model.domain.kind]
    out = {}
    for sample in _samples_up_to(model, kmax):
        k = sample.level
        ceiling = holder_const * diam**eta * n**k * lam ** (-k * eta)
        out[k] = total_osc(sample)[0] <= ceiling * (1 + 1e-12) + 1e-12
    return out
