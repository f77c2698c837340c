"""Gamma constants, witnesses, theorem bounds and box counting."""

import itertools
import math

import numpy as np
import pytest

from conftest import get_config, get_model
from fifdim.dimension import (
    CollinearWitness,
    _witness_L,
    bounds_gasket,
    box_count,
    dim_domain,
    empirical_dimension,
    exact_dim_cube,
    find_witness,
    gammas,
    lower_bound_cube,
    lower_bound_interval_variable_s,
    reconcile,
    theoretical_entries,
    upper_bound,
    witness_height_check,
)
from fifdim.domains import BudgetError, interval_domain
from fifdim.engine import (
    FifSpec,
    ModelError,
    _level_at,
    build_model,
    graph_sample,
)
from fifdim.exprs import ShapeFacts, parse_expr

LAM0_CASE1 = 15 / 4
LAM_CASE1 = 5 / 2


def test_dim_domain():
    assert dim_domain(get_model("example5_case1_one")) == 1.0
    assert dim_domain(get_model("degenerate_cube")) == 2.0
    assert dim_domain(get_model("sg_exact")) == pytest.approx(
        math.log(3) / math.log(2)
    )


def test_gammas_case1_one():
    g = gammas(get_model("example5_case1_one"))
    assert g.gamma[0] == pytest.approx(1.5, abs=1e-12)
    assert g.gamma[1] == pytest.approx(1.5, abs=1e-12)
    assert g.gamma0[0] == pytest.approx(1.5, abs=1e-12)
    # all three q are concave in x1, all s constant
    assert g.flavored[(2, 1)] == pytest.approx(1.5)
    assert g.provenance[(2, 1)] == [0, 1, 2]
    # only q_3 is affine/convex
    assert g.flavored[(1, 1)] == pytest.approx(0.75)
    assert g.flavored[(3, 1)] == pytest.approx(0.75)


def test_gammas_case1_sin():
    # [PAPER]/audited split: sup|sin(x)/4| on [0,1] is sin(1)/4 = 0.2103677...
    g = gammas(get_model("example5_case1_sin"))
    audited = math.sin(1.0) / 4 + 1.25
    assert g.gamma[0] == pytest.approx(audited, abs=1e-6)
    assert g.gamma[1] >= g.gamma[0]
    assert g.gamma[1] == pytest.approx(audited, abs=1e-3)
    # the non-constant map is excluded from every flavored gamma
    assert g.flavored[(2, 1)] == pytest.approx(1.25)
    assert g.provenance[(2, 1)] == [1, 2]
    # inf |sin(x)/4| = 0 at x = 0
    assert g.gamma0[1] == pytest.approx(1.25, abs=1e-6)


def test_paper_witness_triple_case1():
    # [PAPER] y1=0, y2=3/5, y3=4/15, lambda=4/9 -> L = 19/54
    model = get_model("example5_case1_one")
    L = _witness_L(model, (0.0,), (3 / 5,), (4 / 15,), 4 / 9)
    assert L == pytest.approx(19 / 54, abs=1e-12)


def test_find_witness_maximizes_L():
    # the maximizer (0, 1, 4/15) has L = 1/2 > 19/54
    model = get_model("example5_case1_one")
    w = find_witness(model, 1, sign=+1)
    assert w is not None
    assert w.L == pytest.approx(0.5, abs=1e-12)
    assert w.L >= 19 / 54


def test_find_witness_sign_filter():
    model = get_model("example5_case1_one")
    w = find_witness(model, 1, sign=-1)
    assert w is None or w.L < 0


def test_find_witness_none_for_collinear_data():
    d = interval_domain((0.0, 1 / 3, 2 / 3, 1.0), (0, 0, 0))
    data = [((k,), 2 * k) for k in (0.0, 1 / 3, 2 / 3, 1.0)]
    s = [(parse_expr("1/3"), None)] * 3
    model = build_model(FifSpec(d, data, s, "solve", 1.0))
    assert find_witness(model, 1) is None


def test_upper_bound_case1_one():
    # [PAPER] 1 + log(1.5)/log(2.5) = 1.44251 (gamma above the threshold)
    e = upper_bound(get_model("example5_case1_one"))
    assert e.value == pytest.approx(1 + math.log(1.5) / math.log(2.5), abs=1e-12)
    assert e.applies
    assert "gamma > N / Lambda^eta'" in e.note


def test_upper_bound_sin_audited_and_pinned():
    model = get_model("example5_case1_sin")
    audited = upper_bound(model)
    assert audited.value == pytest.approx(1.41328, abs=1e-3)
    pinned = upper_bound(model, gamma_override=1.5)
    assert pinned.value == pytest.approx(1.44251, abs=1e-5)
    assert "(pinned)" in pinned.note


def test_upper_bound_small_gamma_case():
    # gamma below N/Lambda^eta' gives 1 - eta' + log N / log Lambda
    e = upper_bound(get_model("degenerate_interval"))
    assert e.value == pytest.approx(1.0, abs=1e-12)
    assert "gamma <= N / Lambda^eta'" in e.note


def test_lower_bound_case1_values():
    # [PAPER] 1 + log_{15/4}(3/2) = 1.30676 for f = 1
    entries = lower_bound_cube(get_model("example5_case1_one"))
    by_name = {e.theorem: e for e in entries}
    e = by_name["noncollinear_lower_flavor2_axis1"]
    assert e.value == pytest.approx(
        1 + math.log(1.5) / math.log(LAM0_CASE1), abs=1e-12
    )
    assert e.applies and not e.vacuous
    # affine flavor only collects q_3: vacuous (value < 1)
    assert by_name["noncollinear_lower_flavor1_axis1"].vacuous


def test_lower_bound_sin_value():
    # [PAPER] 1 + log_{15/4}(5/4) = 1.16882
    entries = lower_bound_cube(get_model("example5_case1_sin"))
    e = {x.theorem: x for x in entries}["noncollinear_lower_flavor2_axis1"]
    assert e.value == pytest.approx(1.16882, abs=1e-5)
    assert e.applies


def test_exact_dim_case2():
    # [PAPER] 1 + log 1.5 / log 3 = 1.36907
    e = exact_dim_cube(get_model("example5_case2"))
    assert e is not None and e.applies
    assert e.value == pytest.approx(1 + math.log(1.5) / math.log(3), abs=1e-9)
    assert e.value == pytest.approx(1.36907, abs=1e-5)


def test_exact_dim_none_for_unequal_knots():
    assert exact_dim_cube(get_model("example5_case1_one")) is None


def test_exact_dim_cube_degenerate_returns_m():
    # [DERIVED] gamma = 0 <= n^(m-1), eta' = 1 -> dim = m
    e = exact_dim_cube(get_model("degenerate_cube"))
    assert e is not None and e.value == 2.0
    assert "n^(m-1)" in e.note


def test_bounds_gasket_exact():
    # [DERIVED] n=1, s = 0.8: 1 + log2(2.4) = 2.26303
    entries = bounds_gasket(get_model("sg_exact"))
    exact = [e for e in entries if e.kind == "exact"]
    assert len(exact) == 1
    assert exact[0].value == pytest.approx(1 + math.log2(2.4), abs=1e-9)
    assert exact[0].value == pytest.approx(2.26303, abs=1e-5)
    lowers = [e for e in entries if e.kind == "lower" and e.applies]
    assert lowers and all(
        e.value == pytest.approx(1 + math.log2(2.4)) for e in lowers
    )


def test_bounds_gasket_small_gamma_branch():
    # [DERIVED] s = 0.4: gamma = 1.2 <= 3/2 and eta' = 1 -> exact log3/log2
    base = get_config("sg_exact").spec
    s = [(parse_expr("2/5"), None)] * 3
    model = build_model(FifSpec(base.domain, base.data, s, "solve", 1.0))
    entries = bounds_gasket(model)
    exact = [e for e in entries if e.kind == "exact"]
    assert len(exact) == 1
    assert exact[0].value == pytest.approx(math.log(3) / math.log(2), abs=1e-12)


def test_variable_scale_lower_corollary_route():
    # [DERIVED] equally spaced, s = (sin(x1)/4, 1/2, 3/4), q solved affine:
    # gamma_0 = 0 + 1/2 + 3/4 = 1.25 -> bound 1 + log3(1.25) = 1.20311
    d = interval_domain((0.0, 1 / 3, 2 / 3, 1.0), (0, 0, 0))
    data = [
        ((0.0,), 0.0), ((1 / 3,), 0.5), ((2 / 3,), 1 / 3), ((1.0,), 0.0)
    ]
    s = [
        (
            parse_expr("sin(x1)/4"),
            ShapeFacts(concave_in={1}, holder_exponent=1.0, holder_constant=0.25),
        ),
        (parse_expr("1/2"), None),
        (parse_expr("3/4"), None),
    ]
    model = build_model(FifSpec(d, data, s, "solve", 1.0))
    e = lower_bound_interval_variable_s(model)
    assert e is not None and e.applies and not e.heuristic
    assert e.value == pytest.approx(1 + math.log(1.25) / math.log(3), abs=1e-6)
    assert e.value == pytest.approx(1.20311, abs=1e-5)


def test_variable_scale_none_on_unequal_knots():
    assert lower_bound_interval_variable_s(get_model("example5_case1_sin")) is None


def test_variable_scale_heuristic_route_flagged():
    e = lower_bound_interval_variable_s(get_model("example5_case2"))
    # eta = 0.8 declared on q_1 blocks the bounded-variation corollary;
    # the divergence probe may or may not fire, but can only emit flagged
    if e is not None:
        assert e.heuristic


def test_witness_height_check_flavor_sign_guard():
    model = get_model("example5_case2")
    w = CollinearWitness(1, (0.0,), (2 / 3,), (1 / 3,), 0.5, 1 / 3)
    assert witness_height_check(model, (0, 1, 2), w, 2)
    with pytest.raises(ModelError):
        witness_height_check(model, (0,), w, 3)  # flavor 3 needs L < 0


def test_witness_height_check_level3_exhaustive():
    model = get_model("example5_case2")
    w = CollinearWitness(1, (0.0,), (2 / 3,), (1 / 3,), 0.5, 1 / 3)
    for word in itertools.product(range(3), repeat=3):
        assert witness_height_check(model, word, w, 2)


# --------------------------------------------------------------------------
# Box counting


def test_box_count_constant_model_exact():
    model_cfg = get_config("degenerate_interval").spec
    data = [(p, 0.25) for p, _ in model_cfg.data]
    model = build_model(
        FifSpec(model_cfg.domain, data, model_cfg.s, "solve", 1.0)
    )
    for k in (2, 4, 6):
        sample = graph_sample(model, k, extra=2)
        assert box_count(sample, 3.0**-k) == 3**k


def test_box_count_identity_band():
    from test_oscillation import _identity_model

    model = _identity_model()
    for k in (3, 5, 7):
        sample = graph_sample(model, k, extra=2)
        count = box_count(sample, 3.0**-k)
        assert 3**k <= count <= 2 * 3**k


def test_box_count_monotone_rise_bound():
    # monotone graph: count <= total rise / delta + number of columns
    from test_oscillation import _identity_model

    model = _identity_model()
    sample = graph_sample(model, 6, extra=2)
    delta = 3.0**-6
    assert box_count(sample, delta) <= 1 / delta + 3**6 + 1


def test_box_count_rejects_bad_delta():
    model = get_model("example5_case2")
    with pytest.raises(ValueError):
        box_count(graph_sample(model, 2), 0.0)


def test_sg_prism_voxel_sandwich():
    # N_delta <= N_S(k) <= 3 N_delta; the voxel proxy for N_delta is
    # grid-aligned, so allow the standard 2^3 grid-shift factor on the left
    model = get_model("sg_exact")
    for k in (3, 4, 5):
        sample = graph_sample(model, k, extra=4)
        delta = model.geom.diameter / model.geom.lam**k
        prism = box_count(sample, delta)
        deep = _level_at(model, k + 5)
        pts = deep.pts.reshape(-1, 2)
        vals = deep.vals.reshape(-1)
        keys = np.floor(
            np.column_stack([pts / delta, vals[:, None] / delta]) + 1e-9
        ).astype(np.int64)
        voxel = len(np.unique(keys, axis=0))
        assert voxel / 8 <= prism <= 3 * voxel


def test_empirical_guards():
    model = get_model("example5_case2")
    with pytest.raises(ModelError):
        empirical_dimension(model, 1, 5)
    with pytest.raises(ModelError):
        empirical_dimension(model, 5, 4)


def test_empirical_budget(monkeypatch):
    model = get_model("example5_case2")
    monkeypatch.setenv("FIF_CELL_BUDGET", "50")
    with pytest.raises(BudgetError, match="budget"):
        empirical_dimension(model, 2, 4)


def test_empirical_constant_slope_one():
    model = get_model("degenerate_interval")
    est = empirical_dimension(model, 4, 10)
    assert est.slope == pytest.approx(1.0, abs=0.05)
    assert est.residual < 0.05


# --------------------------------------------------------------------------
# Invariants


def test_gamma_scaling_monotonicity():
    # scaling every s_i by c in (0,1) scales gamma by c and never raises bounds
    base = get_config("example5_case2").spec
    prev_entries = None
    for c in (1.0, 0.9, 0.5, 0.2):
        s = [
            (parse_expr(f"{c}*{t}"), None)
            for t in ("1/4", "1/2", "3/4")
        ]
        model = build_model(FifSpec(base.domain, base.data, s, "solve", 1.0))
        g = gammas(model)
        assert g.gamma[1] == pytest.approx(1.5 * c, abs=1e-9)
        entries = {e.theorem: e.value for e in theoretical_entries(model)}
        if prev_entries is not None:
            for name, value in entries.items():
                if name in prev_entries:
                    assert value <= prev_entries[name] + 1e-12
        prev_entries = entries


def test_bound_ordering_invariant(each_model):
    name, model = each_model
    entries = [e for e in theoretical_entries(model) if e.applies and not e.heuristic]
    lowers = [e.value for e in entries if e.kind in ("lower", "exact") and not e.vacuous]
    uppers = [e.value for e in entries if e.kind in ("upper", "exact")]
    for lo in lowers:
        for hi in uppers:
            assert lo <= hi + 1e-12


def test_reconcile_reports_consistency(each_model):
    name, model = each_model
    cfg = get_config(name)
    report = reconcile(
        model,
        k_min=4 if model.domain.kind != "cube" else 3,
        k_max=7,
        gamma_pin=cfg.analysis.get("gamma_pin"),
        with_empirical=(name != "sg_exact"),  # SG covered by acceptance
    )
    assert not report.inconsistent
    d = report.to_dict()
    assert "entries" in d and all("hypotheses" in e for e in d["entries"])


def test_reconcile_flags_inconsistency_under_bad_pin():
    model = get_model("example5_case2")
    report = reconcile(model, k_min=4, k_max=7, gamma_pin=0.2)
    assert report.best_upper == pytest.approx(1.2, abs=1e-9)
    assert report.inconsistent
