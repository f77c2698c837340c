"""Model construction, join-up validation, evaluation and graph samples."""

import math

import numpy as np
import pytest

from conftest import get_config, get_model
from fifdim.domains import (
    BudgetError,
    cube_domain,
    interval_domain,
    vertex_set,
)
from fifdim.engine import (
    FifSpec,
    ModelError,
    apply_T,
    build_model,
    check_well_defined,
    evaluate_at,
    evaluate_on_vk,
    graph_sample,
    solve_q,
    validate_join_up,
)
from fifdim.exprs import ShapeFacts, parse_expr

# [DERIVED] on the equally spaced Case (ii) model:
# f*(1/9) = s_1 f*(1/3) + q_1(1/3) = (1/4)(1/2) + (1/3)^0.8 / 2
F_STAR_AT_NINTH = 0.25 * 0.5 + (1 / 3) ** 0.8 / 2


def test_build_model_all_configs(each_model):
    name, model = each_model
    assert model.joinup_residual <= 1e-9
    assert model.s_norm[1] < 1


def test_join_up_rejects_broken_data():
    cfg = get_config("example5_case2")
    spec = cfg.spec
    bad_data = list(spec.data)
    bad_data[1] = (bad_data[1][0], bad_data[1][1] + 0.01)
    bad = FifSpec(spec.domain, bad_data, spec.s, spec.q, spec.eta)
    with pytest.raises(ModelError, match="join-up"):
        build_model(bad)


def test_validate_join_up_residual_zero_on_case2():
    model = get_model("example5_case2")
    spec = FifSpec(
        model.domain,
        [(tuple(p), v) for p, v in zip(*evaluate_on_vk(model, 1))],
        model.s,
        model.q,
        model.eta,
    )
    assert validate_join_up(spec) <= 1e-12


def test_solve_q_affine_oracle():
    # s = (1/4, 1/2, 3/4), data (0, 1/2, 1/3, 0): q_1 must be x/2
    cfg = get_config("example5_case2")
    spec = cfg.spec
    solved = solve_q(FifSpec(spec.domain, spec.data, spec.s, "solve", 1.0), "affine")
    q1 = solved[0][0]
    xs = np.linspace(0, 1, 11)[:, None]
    assert np.allclose(q1.ev(xs), xs[:, 0] / 2, atol=1e-12)


def test_solve_q_reproduces_data_on_v1(each_model):
    name, model = each_model
    pts, vals = evaluate_on_vk(model, 1)
    expected = model.p_at(pts)
    assert np.max(np.abs(vals - expected)) <= 1e-12


def test_scale_norm_too_large_rejected():
    d = interval_domain((0.0, 0.5, 1.0), (0, 0))
    data = [((0.0,), 0.0), ((0.5,), 1.0), ((1.0,), 0.0)]
    spec = FifSpec(
        d, data, [(parse_expr("1"), None)] * 2, "solve", 1.0
    )
    with pytest.raises(ModelError, match="must be < 1"):
        build_model(spec)


def test_shape_audit_rejects_misdeclared_facts():
    cfg = get_config("example5_case2")
    spec = cfg.spec
    bad_s = list(spec.s)
    bad_s[0] = (
        parse_expr("x1^2/4"),
        ShapeFacts(concave_in={1}, holder_exponent=1.0, holder_constant=0.5),
    )
    with pytest.raises(ModelError, match="shape audit"):
        build_model(FifSpec(spec.domain, spec.data, bad_s, spec.q, spec.eta))


def test_well_defined_interval_always_ok():
    model = get_model("example5_case1_one")
    spec = FifSpec(model.domain, [], model.s, model.q, model.eta)
    assert check_well_defined(spec) == []


def test_well_defined_cube_requires_alternating_signature():
    d = cube_domain([((0.0, 0.5, 1.0), (0, 0)), ((0.0, 0.5, 1.0), (0, 1))])
    model = get_model("degenerate_cube")
    spec = FifSpec(d, [], model.s, model.q, 1.0)
    bad = check_well_defined(spec)
    assert bad and "alternating" in bad[0]


def test_well_defined_cube_face_mismatch_detected():
    d = cube_domain([((0.0, 0.5, 1.0), (0, 1)), ((0.0, 0.5, 1.0), (0, 1))])
    # constant q with different values per map cannot agree on shared faces
    s = [(parse_expr("0"), None)] * 4
    q = [(parse_expr(str(v)), None) for v in (0.0, 1.0, 2.0, 3.0)]
    spec = FifSpec(d, [], s, q, 1.0)
    bad = check_well_defined(spec)
    assert bad and "face mismatch" in bad[0]


def test_evaluate_on_vk_oracle_value():
    model = get_model("example5_case2")
    pts, vals = evaluate_on_vk(model, 2)
    idx = int(np.argmin(np.abs(pts[:, 0] - 1 / 9)))
    assert pts[idx, 0] == pytest.approx(1 / 9, abs=1e-12)
    assert vals[idx] == pytest.approx(F_STAR_AT_NINTH, abs=1e-12)


def test_evaluate_at_matches_vertex_recursion():
    model = get_model("example5_case2")
    assert evaluate_at(model, [1 / 9], tol=1e-12) == pytest.approx(
        F_STAR_AT_NINTH, abs=1e-10
    )
    pts, vals = evaluate_on_vk(model, 5)
    rng = np.random.default_rng(3)
    for j in rng.choice(len(pts), size=20, replace=False):
        # tolerance reflects the float-input floor, not truncation: digits
        # below machine-precision scale are undetermined and f* can move by
        # prod |s| over the reliable ones (~0.75^33 here on all-2 tails)
        assert evaluate_at(model, pts[j], tol=1e-10) == pytest.approx(
            vals[j], abs=1e-4
        )


def test_evaluate_at_outside_domain_rejected():
    model = get_model("example5_case2")
    with pytest.raises(ModelError):
        evaluate_at(model, [1.5])


def test_apply_T_fixed_point(each_model):
    name, model = each_model
    pts, vals = evaluate_on_vk(model, 2)
    new_pts, new_vals = apply_T(model, pts, vals)
    expected = dict(zip(map(tuple, np.round(new_pts, 9).tolist()), new_vals))
    deep_pts, deep_vals = evaluate_on_vk(model, 3)
    table = dict(zip(map(tuple, np.round(deep_pts, 9).tolist()), deep_vals))
    worst = max(
        abs(expected[k] - table[k]) for k in expected if k in table
    )
    assert worst <= 1e-9


def test_apply_T_contraction_factor():
    model = get_model("example5_case2")
    pts, _ = evaluate_on_vk(model, 3)
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = rng.normal(size=len(pts))
        h = rng.normal(size=len(pts))
        _, tg = apply_T(model, pts, g)
        _, th = apply_T(model, pts, h)
        assert np.max(np.abs(tg - th)) <= (
            model.s_norm[1] + 1e-12
        ) * np.max(np.abs(g - h))


def test_graph_self_similarity(each_model):
    # f*(l_i(x)) = s_i(x) f*(x) + q_i(x) read off exact level tables
    name, model = each_model
    pts, vals = evaluate_on_vk(model, 2)
    deep_pts, deep_vals = evaluate_on_vk(model, 3)
    res = 1e-9 * max(model.geom.diameter, 1.0)
    table = {
        tuple(np.round(p / res).astype(np.int64).tolist()): v
        for p, v in zip(deep_pts, deep_vals)
    }
    for i, mp in enumerate(model.domain.maps):
        imgs = mp(pts)
        rhs = model.s[i][0].ev(pts) * vals + model.q[i][0].ev(pts)
        for img, v in zip(imgs, rhs):
            key = tuple(np.round(img / res).astype(np.int64).tolist())
            assert key in table
            assert abs(table[key] - v) <= 1e-9


def test_sup_norm_of_f_star_bounded_by_M(each_model):
    name, model = each_model
    _, vals = evaluate_on_vk(model, 5)
    assert np.max(np.abs(vals)) <= model.M[1] + 1e-9


def test_graph_sample_brackets_enclose_descendants():
    model = get_model("example5_case1_one")
    sample = graph_sample(model, 3, extra=3)
    deep_pts, deep_vals = evaluate_on_vk(model, 8)
    for idx in (0, 5, 13, 26):
        word = sample.word_of(idx)
        assert sample.index_of(word) == idx
        lo, hi = sample.value_bracket(word)
        inside = (deep_pts[:, 0] >= sample.cell_lo[idx, 0] - 1e-12) & (
            deep_pts[:, 0] <= sample.cell_hi[idx, 0] + 1e-12
        )
        assert np.all(deep_vals[inside] >= lo - 1e-12)
        assert np.all(deep_vals[inside] <= hi + 1e-12)


def test_graph_sample_budget_guard(monkeypatch):
    model = get_model("example5_case2")
    monkeypatch.setenv("FIF_CELL_BUDGET", "100")
    with pytest.raises(BudgetError, match="budget"):
        graph_sample(model, 4)


def test_vk_matches_vertex_set(each_model):
    name, model = each_model
    pts, _ = evaluate_on_vk(model, 2)
    ref = vertex_set(model.domain, 2)
    assert len(pts) == len(ref)
