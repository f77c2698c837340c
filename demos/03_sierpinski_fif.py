#!/usr/bin/env python3
"""A fractal interpolation function over the Sierpinski gasket.

The domain attractor is the gasket itself (three half-scale maps on an
equilateral triangle); the interpolant lives on it with constant vertical
scaling s = 4/5, which puts the graph dimension at 1 + log2(3 * 4/5)
=~ 2.263, strictly between the gasket dimension and 3.
"""

import math
from pathlib import Path

from fifdim import (
    build_model,
    empirical_dimension,
    evaluate_on_vk,
    load_config,
    scatter_chart,
    theoretical_entries,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

cfg = load_config(str(HERE.parent / "configs" / "sg_exact.json"))
model = build_model(cfg.spec)

for e in theoretical_entries(model):
    if e.applies:
        print(f"{e.kind:5s} {e.value:.5f}  [{e.theorem}]")
target = 1 + math.log2(3 * 0.8)
print(f"closed form: 1 + log2(3 s) = {target:.5f}")

est = empirical_dimension(model, 5, 8)
print(f"box-count slope = {est.slope:.4f}")

# colour the level-6 vertex set of the gasket by the value of f*
pts, vals = evaluate_on_vk(model, 6)
svg = scatter_chart(pts, vals)
out = OUT / "gasket_fif.svg"
out.write_text(svg)
print("wrote", out)
