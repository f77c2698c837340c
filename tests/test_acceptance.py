"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are finite-resolution proxies for asymptotic dimension claims;
windows and tolerances are fixed here and must not be loosened.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import CONFIG_DIR, get_model
from fifdim.cli import main
from fifdim.dimension import (
    CollinearWitness,
    empirical_dimension,
    theoretical_entries,
    witness_height_check,
)
from fifdim.engine import apply_T, evaluate_at, evaluate_on_vk
from fifdim.oscillation import _osc_sums, holder_to_osc_check, seminorm

ALL_CONFIGS = [
    "example5_case1_one",
    "example5_case1_sin",
    "example5_case2",
    "sg_exact",
    "degenerate_interval",
    "degenerate_cube",
]


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {label} -- {detail}")
    assert ok, f"{label}: {detail}"


def _bounds_json(name, tmp_path):
    code = main(
        ["bounds", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path)]
    )
    assert code == 0
    return json.loads((tmp_path / "bounds.json").read_text())


def test_criterion_1_case1_one_bounds(tmp_path):
    t0 = time.time()
    d = _bounds_json("example5_case1_one", tmp_path)
    elapsed = time.time() - t0
    lower, upper = d["best_lower"], d["best_upper"]
    ok = (
        abs(lower - 1.30676) <= 1e-3
        and abs(upper - 1.44251) <= 1e-3
        and elapsed < 1.0
    )
    _report(
        "criterion 1 (interval, constant-scale bounds)",
        ok,
        f"lower={lower:.5f} upper={upper:.5f} in {elapsed:.2f}s",
    )


def test_criterion_2_case1_sin_bounds(tmp_path):
    t0 = time.time()
    d = _bounds_json("example5_case1_sin", tmp_path)
    elapsed = time.time() - t0
    lower = d["best_lower"]
    uppers = sorted(
        e["value"] for e in d["entries"] if e["theorem"] == "oscillation_upper"
    )
    ok = (
        abs(lower - 1.16882) <= 1e-3
        and abs(uppers[0] - 1.41328) <= 1e-3  # audited gamma
        and abs(uppers[1] - 1.44251) <= 1e-3  # pinned gamma = 3/2
        and elapsed < 1.0
    )
    _report(
        "criterion 2 (interval, variable-scale bounds, audited + pinned)",
        ok,
        f"lower={lower:.5f} audited={uppers[0]:.5f} pinned={uppers[1]:.5f} "
        f"in {elapsed:.2f}s",
    )


def _exact_entry(model):
    """The model's exact entry among its theoretical entries, or None."""
    return next((e for e in theoretical_entries(model) if e.kind == "exact"), None)


def test_criterion_3_case2_exact_and_slope():
    t0 = time.time()
    model = get_model("example5_case2")
    exact = _exact_entry(model)
    target = 1 + math.log(1.5) / math.log(3)
    est = empirical_dimension(model, 6, 12)
    elapsed = time.time() - t0
    ok = (
        exact is not None
        and abs(exact.value - target) <= 1e-6
        and abs(est.slope - target) <= 0.05
        and elapsed < 30.0
    )
    _report(
        "criterion 3 (equally spaced exact dimension + box-count slope)",
        ok,
        f"exact={exact.value:.6f} slope={est.slope:.4f} target={target:.5f} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_4_gasket_exact_and_slope():
    t0 = time.time()
    model = get_model("sg_exact")
    exact = _exact_entry(model)
    est = empirical_dimension(model, 5, 9)
    elapsed = time.time() - t0
    target = 1 + math.log2(2.4)
    ok = (
        exact is not None
        and abs(exact.value - target) <= 1e-6
        and abs(est.slope - target) <= 0.1
        and elapsed < 60.0
    )
    _report(
        "criterion 4 (gasket exact dimension + box-count slope)",
        ok,
        f"exact={exact.value:.6f} slope={est.slope:.4f} "
        f"target={target:.5f} in {elapsed:.1f}s",
    )


def test_criterion_5_fixed_point_suite():
    worst_node = 0.0
    worst_res = 0.0
    worst_contraction = 0.0
    rng = np.random.default_rng(20240824)
    for name in ALL_CONFIGS:
        model = get_model(name)
        # interpolation: f*|V = p
        pts, vals = evaluate_on_vk(model, 1)
        worst_node = max(worst_node, float(np.max(np.abs(vals - model.p_at(pts)))))

        # self-referential residual at 1e4 points drawn from a deep vertex
        # set (exact values), plus a spot check through evaluate_at
        depth = {"interval": 8, "gasket": 7, "cube": 6}[model.domain.kind]
        deep_pts, deep_vals = evaluate_on_vk(model, depth)
        res = 1e-9 * max(model.domain.diameter, 1.0)
        table = {
            tuple(np.round(q / res).astype(np.int64).tolist()): v
            for q, v in zip(*evaluate_on_vk(model, depth + 1))
        }
        take = rng.choice(len(deep_pts), size=10_000, replace=True)
        xs, fs = deep_pts[take], deep_vals[take]
        for i, mp in enumerate(model.domain.maps):
            rhs = model.s[i][0].ev(xs) * fs + model.q[i][0].ev(xs)
            for img, v in zip(mp(xs), rhs):
                key = tuple(np.round(img / res).astype(np.int64).tolist())
                worst_res = max(worst_res, abs(table[key] - v))
        for _ in range(5):
            x = rng.uniform(*model.domain.base.bounding_box())
            if model.domain.kind == "gasket":
                continue  # random uniform points may fall outside the gasket
            i = rng.integers(model.N)
            lhs = evaluate_at(model, model.domain.maps[i](x), tol=1e-11)
            rhs = float(model.s[i][0].ev(x[None, :])[0]) * evaluate_at(
                model, x, tol=1e-11
            ) + float(model.q[i][0].ev(x[None, :])[0])
            worst_res = max(worst_res, abs(lhs - rhs))

        # operator contraction on random function pairs
        base_pts, _ = evaluate_on_vk(model, 2)
        for _ in range(100 // len(ALL_CONFIGS) + 1):
            g = rng.normal(size=len(base_pts))
            h = rng.normal(size=len(base_pts))
            _, tg = apply_T(model, base_pts, g)
            _, th = apply_T(model, base_pts, h)
            ratio = float(
                np.max(np.abs(tg - th)) / np.max(np.abs(g - h))
            )
            worst_contraction = max(
                worst_contraction, ratio - (model.s_norm[1] + 1e-12)
            )
    ok = worst_node <= 1e-12 and worst_res <= 1e-9 and worst_contraction <= 0
    _report(
        "criterion 5 (interpolation / fixed point / contraction)",
        ok,
        f"node={worst_node:.2e} residual={worst_res:.2e} "
        f"contraction-slack={worst_contraction:.2e}",
    )


def test_criterion_6_covering_lemma_brute_force():
    model = get_model("example5_case2")
    w = CollinearWitness(1, (0.0,), (2 / 3,), (1 / 3,), 0.5, 1 / 3)
    assert abs(w.L - 1 / 3) <= 1e-12
    failures = sum(
        not witness_height_check(model, word, w, 2)
        for word in itertools.product(range(3), repeat=6)
    )
    _report(
        "criterion 6 (covering lemma over all 729 level-6 addresses)",
        failures == 0,
        f"failures={failures}/729, witness L={w.L:.6f}",
    )


def test_criterion_7_oscillation_suite():
    from test_oscillation import (
        _constant_model,
        _identity_model,
        _observed_holder_constant,
    )

    const = _constant_model()
    const_ok = seminorm(const, 1.0, kmax=6) <= 1e-12

    ident = _identity_model()
    osc = _osc_sums(ident, 10)
    assert list(osc) == list(range(1, 11))
    osc_dev = max(abs(v - 1.0) for v in osc.values())
    semi = seminorm(ident, 1.0, kmax=10)
    ident_ok = osc_dev <= 1e-10 and abs(semi - 1.0) <= 1e-10

    ceiling_ok = True
    for name in ALL_CONFIGS:
        model = get_model(name)
        if model.domain.kind == "cube":
            continue  # N^10 cells exceed the desk budget for 4-map cubes
        eta = min(1.0, model.eta)
        H = _observed_holder_constant(model, eta) * (1 + 1e-9)
        ceiling_ok &= all(holder_to_osc_check(model, eta, H, kmax=10).values())
    ok = const_ok and ident_ok and ceiling_ok
    _report(
        "criterion 7 (oscillation suite)",
        ok,
        f"const_seminorm_ok={const_ok} identity_dev={osc_dev:.2e} "
        f"seminorm={semi:.12f} ceilings={ceiling_ok}",
    )


def test_criterion_8_degenerate_safety():
    interval = get_model("degenerate_interval")
    d_int = _bounds_entries(interval)
    est_int = empirical_dimension(interval, 4, 10)

    cube = get_model("degenerate_cube")
    d_cube = _bounds_entries(cube)
    est_cube = empirical_dimension(cube, 3, 7)

    ok = (
        d_int["upper"] == pytest.approx(1.0, abs=1e-9)
        and not d_int["lower_entries"]
        and abs(est_int.slope - 1.0) <= 0.05
        and d_cube["upper"] == pytest.approx(2.0, abs=1e-9)
        and not d_cube["lower_entries"]
        and d_cube["exact"] == pytest.approx(2.0, abs=1e-9)
        and abs(est_cube.slope - 2.0) <= 0.1
    )
    _report(
        "criterion 8 (degenerate s = 0 safety)",
        ok,
        f"interval upper={d_int['upper']} slope={est_int.slope:.4f}; "
        f"cube upper={d_cube['upper']} exact={d_cube['exact']} "
        f"slope={est_cube.slope:.4f}",
    )


def _bounds_entries(model):
    entries = theoretical_entries(model)
    uppers = [e.value for e in entries if e.kind == "upper" and e.applies]
    lowers = [e for e in entries if e.kind == "lower" and e.applies]
    exacts = [e.value for e in entries if e.kind == "exact" and e.applies]
    return {
        "upper": min(uppers),
        "lower_entries": lowers,
        "exact": exacts[0] if exacts else None,
    }
