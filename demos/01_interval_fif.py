#!/usr/bin/env python3
"""Build a fractal interpolation function on [0, 1] and plot its graph.

The construction: pick knots 0 < 1/3 < 2/3 < 1, data values at the knots,
vertical scaling factors s_i and displacement terms q_i.  The unique
continuous f* with

    f*(l_i(x)) = s_i(x) f*(x) + q_i(x)

interpolates the data and typically has a fractal graph.
"""

from pathlib import Path

from fifdim import (
    build_model,
    evaluate_on_vk,
    load_config,
    polyline_chart,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

cfg = load_config(str(HERE.parent / "configs" / "example5_case2.json"))
model = build_model(cfg.spec)

print("maps:                ", model.N)
print("sup-norm of scales:  ", model.s_norm)
print("join-up residual:    ", model.joinup_residual)
print("uniform bound M:     ", model.M)

# exact values of f* on the level-8 vertex set (3^8 + 1 points)
pts, vals = evaluate_on_vk(model, 8)
print(f"sampled {len(pts)} exact graph points")
print("value range:", float(vals.min()), "to", float(vals.max()))

svg = polyline_chart(pts[:, 0], vals)
out = OUT / "interval_fif.svg"
out.write_text(svg)
print("wrote", out)
