"""Gamma constants, witnesses, theorem bounds and box counting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CONFIG_DIR, CONFIG_NAMES, SMALL_BLOCK_SLOTS,
                      column_count_reference, get_config, get_model,
                      replay_geometry, replay_levels, replayed_estimate,
                      replayed_table)
from fifdim import dimension, engine
from fifdim.cli import main
from fifdim.dimension import (
    CollinearWitness,
    _class_value,
    _dyadic_counts,
    empirical_dimension,
    find_witness,
    gammas,
    reconcile,
    theoretical_entries,
    witness_height_check,
)
from fifdim.domains import (
    BudgetError,
    cube_domain,
    gasket_domain,
    interval_domain,
    vertex_set,
)
from fifdim.engine import FifSpec, ModelError, build_model
from fifdim.exprs import Const, Op, ShapeFacts, parse_expr

LAM0_CASE1 = 15 / 4
LAM_CASE1 = 5 / 2


def test_dim_domain():
    assert get_model("example5_case1_one").domain.dim == 1.0
    assert get_model("degenerate_cube").domain.dim == 2.0
    assert get_model("sg_exact").domain.dim == pytest.approx(
        math.log(3) / math.log(2)
    )


def test_gammas_case1_one():
    g = gammas(get_model("example5_case1_one"))
    assert g.gamma[0] == pytest.approx(1.5, abs=1e-12)
    assert g.gamma[1] == pytest.approx(1.5, abs=1e-12)
    assert g.gamma0[0] == pytest.approx(1.5, abs=1e-12)
    # all three q are concave in x1, all s constant
    assert g.flavored[(2, 1)] == pytest.approx(1.5)
    model = get_model("example5_case1_one")
    assert [_class_value(model, i, 2, 1) for i in range(3)] == [0.25, 0.5, 0.75]
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
    model = get_model("example5_case1_sin")
    assert [_class_value(model, i, 2, 1) for i in range(3)] == [0.0, 0.5, 0.75]
    # inf |sin(x)/4| = 0 at x = 0
    assert g.gamma0[1] == pytest.approx(1.25, abs=1e-6)


def test_paper_witness_triple_case1():
    # [PAPER] y1=0, y2=3/5, y3=4/15, lambda=4/9 -> L = 19/54
    model = get_model("example5_case1_one")
    lam = 4 / 9
    p1, p2, p3 = model.p_at(np.array([[0.0], [3 / 5], [4 / 15]]))
    assert (4 / 15) / (3 / 5) == pytest.approx(lam, abs=1e-15)  # y1 = 0
    assert p3 - ((1 - lam) * p1 + lam * p2) == pytest.approx(19 / 54, abs=1e-12)


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


def _reference_witness(model, r, sign=0):
    """The two-branch search ``find_witness`` replaced: ordered axis pairs
    for r >= 1, unordered general-position pairs for r = 0, and one
    ``p_at`` lookup per candidate triple; (y1, y2, y3, lam, L) or None."""
    nodes = model.nodes
    n, tol = len(nodes), model.domain.resolution
    triples = []
    if r >= 1:
        other = [u for u in range(model.domain.m) if u != r - 1]
        for a, b in itertools.permutations(range(n), 2):
            y1, y2 = nodes[a], nodes[b]
            if any(abs(y1[u] - y2[u]) > tol for u in other):
                continue
            if abs(y2[r - 1] - y1[r - 1]) <= tol:
                continue
            for c in range(n):
                y3 = nodes[c]
                if c in (a, b) or any(abs(y3[u] - y1[u]) > tol for u in other):
                    continue
                lam = (y3[r - 1] - y1[r - 1]) / (y2[r - 1] - y1[r - 1])
                if 1e-12 < lam < 1 - 1e-12:
                    triples.append((y1, y2, y3, float(lam)))
    else:
        for a, b in itertools.combinations(range(n), 2):
            y1, y2 = nodes[a], nodes[b]
            seg = y2 - y1
            seglen2 = float(seg @ seg)
            if seglen2 <= tol * tol:
                continue
            for c in range(n):
                y3 = nodes[c]
                if c in (a, b):
                    continue
                lam = float((y3 - y1) @ seg / seglen2)
                if (1e-12 < lam < 1 - 1e-12
                        and np.linalg.norm(y3 - (y1 + lam * seg)) <= tol):
                    triples.append((y1, y2, y3, lam))
    best = None
    for y1, y2, y3, lam in triples:
        p = model.p_at(np.array([y1, y2, y3]))
        L = float(p[2] - ((1 - lam) * p[0] + lam * p[1]))
        if abs(L) > 1e-12 and sign * L >= 0 and (
                best is None or abs(L) > abs(best[4])):
            best = (y1, y2, y3, lam, L)
    return best


@st.composite
def witness_models(draw):
    """Intervals with equal or unequal knots and flipped pieces, 2- and
    3-cubes and gaskets of level 1 and 2, with dyadic data on V_1."""
    kind = draw(st.sampled_from(["equal", "unequal", "cube", "gasket"]))
    if kind in ("equal", "unequal"):
        n = draw(st.integers(2, 4))
        widths = [1] * n if kind == "equal" else draw(
            st.lists(st.integers(1, 5), min_size=n, max_size=n))
        d = interval_domain([sum(widths[:i]) / sum(widths) for i in range(n + 1)],
                            draw(st.lists(st.integers(0, 1), min_size=n,
                                          max_size=n)))
    elif kind == "cube":
        d = cube_domain([([i / n for i in range(n + 1)], [j % 2 for j in range(n)])
                         for n in draw(st.lists(st.integers(2, 3), min_size=2,
                                                max_size=3))])
    else:
        d = gasket_domain(TRIANGLE, draw(st.integers(1, 2)))
    nodes = vertex_set(d, 1)
    values = draw(st.lists(st.integers(-8, 8), min_size=len(nodes),
                           max_size=len(nodes)))
    data = [(tuple(p), v / 4) for p, v in zip(nodes, values)]
    return build_model(FifSpec(d, data, [(Const(0.5), None)] * d.N, "solve"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(witness_models())
def test_find_witness_equals_two_branch_reference(model):
    for r in range(1, model.domain.m + 1) if model.domain.axes else (0,):
        for sign in (0, 1, -1):
            w, ref = find_witness(model, r, sign), _reference_witness(model, r, sign)
            assert (w is None) == (ref is None)
            if w is not None:
                assert np.sign(w.L) == np.sign(ref[4])
                assert abs(abs(w.L) - abs(ref[4])) <= 1e-12
                assert w.r == r and 0 < w.lam < 1


def test_find_witness_budget(monkeypatch):
    # 351 node pairs x 27 nodes of the 3-cube's V_1
    model = _pinned_models()["cube_2x2x2"]
    monkeypatch.setenv("FIF_CELL_BUDGET", str(351 * 27 - 1))
    with pytest.raises(BudgetError):
        find_witness(model, 1)
    monkeypatch.setenv("FIF_CELL_BUDGET", str(351 * 27))
    assert find_witness(model, 1) is not None


def _entry_of(model, theorem):
    """The model's entry of one theorem (any exact entry for "exact"), or
    None where the theorem gives none."""
    return next((e for e in theoretical_entries(model)
                 if theorem in (e.theorem, e.kind)), None)


def test_upper_bound_case1_one():
    # [PAPER] 1 + log(1.5)/log(2.5) = 1.44251 (gamma above the threshold)
    e = _entry_of(get_model("example5_case1_one"), "oscillation_upper")
    assert e.value == pytest.approx(1 + math.log(1.5) / math.log(2.5), abs=1e-12)
    assert e.applies
    assert "gamma > N / Lambda^eta'" in e.note


def test_upper_bound_sin_audited_and_pinned():
    model = get_model("example5_case1_sin")
    # the pin is the upper row's second case, after the audited gamma
    audited, pinned = (e for e in theoretical_entries(model, gamma_pin=1.5)
                       if e.theorem == "oscillation_upper")
    assert audited.value == pytest.approx(1.41328, abs=1e-3)
    assert "(pinned)" not in audited.note
    assert pinned.value == pytest.approx(1.44251, abs=1e-5)
    assert "(pinned)" in pinned.note


def test_upper_bound_above_m_plus_1_is_vacuous():
    # 2 x 3 pieces with scale 3/4: Lambda = 2 comes from the coarser axis
    # while N = 6, so 1 + log(4.5) / log 2 = 3.17 exceeds m + 1 = 3
    d = cube_domain([([0, 0.5, 1], [0, 1]), ([0, 1 / 3, 2 / 3, 1], [0, 1, 0])])
    data = [(tuple(p), float(np.sin(3 * p[0] + 5 * p[1])))
            for p in vertex_set(d, 1)]
    model = build_model(FifSpec(d, data, [(Const(0.75), None)] * 6, "solve"))
    e = _entry_of(model, "oscillation_upper")
    assert e.value == pytest.approx(1 + math.log(4.5) / math.log(2), abs=1e-12)
    assert e.applies and e.vacuous
    assert reconcile(model, with_empirical=False).best_upper is None


def test_upper_bound_small_gamma_case():
    # gamma below N/Lambda^eta' gives 1 - eta' + log N / log Lambda
    e = _entry_of(get_model("degenerate_interval"), "oscillation_upper")
    assert e.value == pytest.approx(1.0, abs=1e-12)
    assert "gamma <= N / Lambda^eta'" in e.note


def test_lower_bound_case1_values():
    # [PAPER] 1 + log_{15/4}(3/2) = 1.30676 for f = 1
    entries = theoretical_entries(get_model("example5_case1_one"))
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
    e = _entry_of(get_model("example5_case1_sin"),
                  "noncollinear_lower_flavor2_axis1")
    assert e.value == pytest.approx(1.16882, abs=1e-5)
    assert e.applies


def test_exact_dim_case2():
    # [PAPER] 1 + log 1.5 / log 3 = 1.36907
    e = _entry_of(get_model("example5_case2"), "exact")
    assert e is not None and e.applies
    assert e.value == pytest.approx(1 + math.log(1.5) / math.log(3), abs=1e-9)
    assert e.value == pytest.approx(1.36907, abs=1e-5)


def test_exact_dim_none_for_unequal_knots():
    assert _entry_of(get_model("example5_case1_one"), "exact") is None


def test_exact_dim_cube_degenerate_returns_m():
    # [DERIVED] gamma = 0 <= n^(m-1), eta' = 1 -> dim = m
    e = _entry_of(get_model("degenerate_cube"), "exact")
    assert e is not None and e.value == 2.0
    assert "n^(m-1)" in e.note


def test_bounds_gasket_exact():
    # [DERIVED] n=1, s = 0.8: 1 + log2(2.4) = 2.26303
    model = get_model("sg_exact")
    entries = theoretical_entries(model)
    exact = next(e for e in entries if e.theorem == "gasket_exact")
    assert exact.kind == "exact" and exact.applies
    assert exact.value == pytest.approx(1 + math.log2(2.4), abs=1e-9)
    assert exact.value == pytest.approx(2.26303, abs=1e-5)
    lowers = [e for e in entries
              if e.theorem.startswith("gasket_lower") and e.applies]
    assert lowers and all(
        e.value == pytest.approx(1 + math.log2(2.4)) for e in lowers
    )


def test_bounds_gasket_small_gamma_branch():
    # [DERIVED] s = 0.4: gamma = 1.2 <= 3/2 and eta' = 1 -> exact log3/log2
    base = get_config("sg_exact").spec
    s = [(parse_expr("2/5"), None)] * 3
    model = build_model(FifSpec(base.domain, base.data, s, "solve", 1.0))
    exact = _entry_of(model, "exact")
    assert exact is not None and exact.applies
    assert exact.value == pytest.approx(math.log(3) / math.log(2), abs=1e-12)


def test_exact_dim_reads_no_shape_of_q_where_s_i_is_zero():
    # [DERIVED] s = (0, 1/2, 3/5): gamma_1,1 = 1.1 = gamma although q_1 is
    # concave, not affine, so dim = 1 + log3(1.1); the bounds met but the
    # old route asked every q_i for the shape and emitted no exact entry
    d = interval_domain((0.0, 1 / 3, 2 / 3, 1.0), (0, 0, 0))
    data = [((0.0,), 0.0), ((1 / 3,), -0.5), ((2 / 3,), -0.5), ((1.0,), 0.0)]
    s = [(parse_expr(c), None) for c in ("0", "1/2", "3/5")]
    (q1, f1), *rest = build_model(FifSpec(d, data, s, "solve", 1.0)).q
    bumped = (Op("+", (q1, parse_expr("x1*(1 - x1)/4"))), ShapeFacts(
        concave_in={1}, holder_exponent=1.0,
        holder_constant=f1.holder_constant + 0.25))
    model = build_model(FifSpec(d, data, s, [bumped, *rest], 1.0))
    e = _entry_of(model, "exact")
    assert e.theorem == "exact_dim_equally_spaced" and e.applies
    assert e.value == 1.0867550643547534
    report = reconcile(model, with_empirical=False)
    assert report.exact and report.best_lower == e.value
    assert report.best_upper == pytest.approx(e.value, rel=1e-12)


def test_gasket_exact_at_gamma_zero():
    # [DERIVED] s = 0: gamma = 0 <= (3/2)^n, eta' = 1 -> dim K = log 3 / log 2,
    # as the degenerate interval and cube get dim K at gamma = 0
    base = get_config("sg_exact").spec
    s = [(parse_expr("0"), None)] * base.domain.N
    e = _entry_of(build_model(FifSpec(base.domain, base.data, s, "solve", 1.0)),
                  "exact")
    assert e.theorem == "gasket_exact" and e.applies
    assert e.value == math.log(3) / math.log(2)


@st.composite
def homogeneous_models(draw):
    """Equally spaced intervals and squares with n pieces per axis and
    gaskets of level 1 and 2, with constant scales in eighths (zeros
    among them, or all zero; one for all maps of a square, whose faces
    must match) and dyadic data on V_1."""
    kind = draw(st.sampled_from(["interval", "square", "gasket"]))
    if kind == "interval":
        n = draw(st.integers(2, 4))
        d = interval_domain([i / n for i in range(n + 1)],
                            draw(st.lists(st.integers(0, 1), min_size=n,
                                          max_size=n)))
    elif kind == "square":
        n = draw(st.integers(2, 3))
        d = cube_domain([([i / n for i in range(n + 1)],
                          [j % 2 for j in range(n)])] * 2)
    else:
        d = gasket_domain(TRIANGLE, draw(st.integers(1, 2)))
    nodes = vertex_set(d, 1)
    values = draw(st.lists(st.integers(-8, 8), min_size=len(nodes),
                           max_size=len(nodes)))
    scale = st.sampled_from([0, 0, 3, 5, 7, -5])
    if kind == "square":
        scales = [draw(scale)] * d.N
    elif draw(st.integers(0, 4)) == 0:
        scales = [0] * d.N
    else:
        scales = draw(st.lists(scale, min_size=d.N, max_size=d.N))
    data = [(tuple(p), v / 4) for p, v in zip(nodes, values)]
    return build_model(FifSpec(d, data, [(Const(c / 8), None) for c in scales],
                               "solve"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(homogeneous_models())
def test_exact_dim_is_where_the_bounds_meet(model):
    entries = theoretical_entries(model)
    upper, dim = entries[0], model.domain.dim
    lowers = [e.value for e in entries
              if e.kind == "lower" and e.applies and not e.vacuous]
    e = next((e for e in entries if e.kind == "exact"), None)
    if e is not None and e.applies:
        assert upper.applies
        assert e.value == pytest.approx(upper.value, rel=1e-12, abs=0)
        assert e.value == dim or any(
            v == pytest.approx(e.value, rel=1e-12, abs=0) for v in lowers)
        return
    # the bounds do not meet: no applying lower bound reaches the upper
    # bound, and where that is dim K (small gamma) the data are collinear
    assert all(abs(v - upper.value) > 1e-9 for v in lowers)
    directions = range(1, len(model.domain.axes) + 1) or (0,)
    assert upper.value != pytest.approx(dim, rel=1e-12, abs=0) or all(
        find_witness(model, r) is None for r in directions)


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
    e = _entry_of(model, "variable_scale_lower")
    assert e is not None and e.applies and not e.heuristic
    assert e.value == pytest.approx(1 + math.log(1.25) / math.log(3), abs=1e-6)
    assert e.value == pytest.approx(1.20311, abs=1e-5)


def test_variable_scale_none_on_unequal_knots():
    assert _entry_of(get_model("example5_case1_sin"), "variable_scale_lower") is None


def test_variable_scale_heuristic_route_flagged():
    e = _entry_of(get_model("example5_case2"), "variable_scale_lower")
    # eta = 0.8 declared on q_1 blocks the bounded-variation corollary;
    # the divergence probe may or may not fire, but can only emit flagged
    if e is not None:
        assert e.heuristic


def test_variable_scale_probe_shrinks_extra_to_the_cell_budget(monkeypatch):
    # the probe counts through empirical_dimension, so below N^8 |V_0| cells
    # it refines fewer extra levels, as every count does (a BudgetError before)
    model = get_model("example5_case2")
    monkeypatch.setenv("FIF_CELL_BUDGET", str(3**8 * 2 - 1))
    e = _entry_of(model, "variable_scale_lower")
    assert e is None or e.heuristic


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
# Bound entries the bundled configs do not reach, pinned to the values of
# the per-domain builders that the flavor-table builder replaced, and of
# the four theorem builders that the theorem table replaced on models
# where each gate that drops a theorem fails


TRIANGLE = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]


def _on_nodes(d, step, mod, shift, scale):
    """Dyadic data ((step * j) % mod - shift) / scale on node j of V_1."""
    return [(tuple(p), ((step * j) % mod - shift) / scale)
            for j, p in enumerate(vertex_set(d, 1))]


def _pinned_models():
    third = (0.0, 1 / 3, 2 / 3, 1.0)
    gasket2 = gasket_domain(TRIANGLE, 2)  # N = 9, Lambda_0 = 4
    cube3 = cube_domain([((0, 0.5, 1), (0, 1))] * 3)
    gasket1 = gasket_domain(TRIANGLE, 1)
    interval = interval_domain(third, (0, 1, 0))
    wavy = interval_domain(third, (0, 0, 0))
    return {
        "gasket_level2": build_model(FifSpec(
            gasket2, _on_nodes(gasket2, 3, 7, 3, 4),
            [(Const(0.5), None)] * 9, "solve")),
        "cube_2x2x2": build_model(FifSpec(
            cube3, _on_nodes(cube3, 5, 11, 5, 8),
            [(Const(0.6), None)] * 8, "solve")),
        "interval_negative_scale": build_model(FifSpec(
            interval, [((x,), v) for x, v in zip(third, (0, 0.5, -0.25, 0))],
            [(Const(c), None) for c in (-0.5, 0.75, 0.5)], "solve")),
        "interval_variable_scale": build_model(FifSpec(
            wavy, [((x,), v) for x, v in zip(third, (0, 0.5, 1 / 3, 0))],
            [(parse_expr("sin(x1)/4"), ShapeFacts(
                concave_in={1}, holder_exponent=1.0, holder_constant=0.25)),
             (parse_expr("1/2"), None), (parse_expr("3/4"), None)],
            "solve", 1.0)),
        "gasket_small_gamma": build_model(FifSpec(  # 3 s <= 2
            gasket1, _on_nodes(gasket1, 2, 5, 2, 2),
            [(Const(0.4), None)] * 3, "solve")),
        # one model for each theorem a gate drops without an entry
        "interval_unequal_knots": _interval(  # exact, variable scale: knots
            (0.0, 0.4, 1.0), (0, 0.5, 0), (0.5, 0.25)),
        "interval_middle_gamma": _interval(  # exact: 1 < gamma <= 3^(1/2)
            third, (0, 0.5, 1 / 3, 0), (0.5, 0.5, 0.5), eta=0.5),
        "interval_collinear": _interval(  # exact: no route; probe: flat
            third, (0, 0.25, 0.5, 0.75), (0.6, 0.6, 0.6)),
        "interval_negative_scales": _interval(  # signed flavors: gamma 0
            third, (0, 0.5, 1 / 3, 0), (-0.5, -0.5, -0.5)),
        "interval_small_gamma": _interval(  # variable scale: gamma_0 <= 1
            third, (0, 0.5, 1 / 3, 0), (0.2, 0.2, 0.2)),
    }


def _interval(knots, values, scales, eta=1.0):
    """The interval model with the data values on the knots and constant
    scales, q solved."""
    d = interval_domain(knots, (0,) * len(scales))
    return build_model(FifSpec(d, [((x,), v) for x, v in zip(knots, values)],
                               [(Const(c), None) for c in scales], "solve", eta))


def _entry(theorem, kind, value, hypotheses, note, vacuous=False,
           heuristic=False):
    return {"theorem": theorem, "kind": kind, "value": value,
            "hypotheses": [{"name": n, "pass": ok} for n, ok in hypotheses],
            "vacuous": vacuous, "heuristic": heuristic, "note": note}


PINNED_ENTRIES = {
    "gasket_level2": [
        _entry("oscillation_upper", "upper", 2.084962500721156,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma > N / Lambda^eta'; gamma = 4.5"),
        _entry("gasket_lower_flavor1", "lower", 2.084962500721156,
               [("witness with L != 0", True), ("gamma_1,0 > 0", True)],
               "gamma_1,0 = 4.5; witness |L| = 1.5"),
        _entry("gasket_lower_flavor2", "lower", 2.084962500721156,
               [("witness with L > 0", True), ("gamma_2,0 > 0", True)],
               "gamma_2,0 = 4.5; witness |L| = 1.5"),
        _entry("gasket_lower_flavor3", "lower", 2.084962500721156,
               [("witness with L < 0", True), ("gamma_3,0 > 0", True)],
               "gamma_3,0 = 4.5; witness |L| = 1.5"),
        _entry("gasket_exact", "exact", 2.084962500721156,
               [("s_i, q_i Hoelder-declared (C^eta)", True),
                ("flavor-1 classification saturates gamma", True)],
               "gamma = 4.5 > (3/2^eta')^n"),
    ],
    "cube_2x2x2": [
        _entry("oscillation_upper", "upper", 3.263034405833794,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma > N / Lambda^eta'; gamma = 4.8"),
        _entry("noncollinear_lower_flavor1_axis1", "lower", 3.263034405833794,
               [("witness with L != 0 on axis 1", True),
                ("gamma_1,1 > 0", True)],
               "gamma_1,1 = 4.8; witness |L| = 1"),
        _entry("noncollinear_lower_flavor2_axis1", "lower", 3.263034405833794,
               [("witness with L > 0 on axis 1", True),
                ("gamma_2,1 > 0", True)],
               "gamma_2,1 = 4.8; witness |L| = 1"),
        _entry("noncollinear_lower_flavor3_axis1", "lower", 3.263034405833794,
               [("witness with L < 0 on axis 1", True),
                ("gamma_3,1 > 0", True)],
               "gamma_3,1 = 4.8; witness |L| = 0.4375"),
        _entry("noncollinear_lower_flavor1_axis2", "lower", 3.263034405833794,
               [("witness with L != 0 on axis 2", True),
                ("gamma_1,2 > 0", True)],
               "gamma_1,2 = 4.8; witness |L| = 0.9375"),
        _entry("noncollinear_lower_flavor2_axis2", "lower", 3.263034405833794,
               [("witness with L > 0 on axis 2", True),
                ("gamma_2,2 > 0", True)],
               "gamma_2,2 = 4.8; witness |L| = 0.9375"),
        _entry("noncollinear_lower_flavor3_axis2", "lower", 3.263034405833794,
               [("witness with L < 0 on axis 2", True),
                ("gamma_3,2 > 0", True)],
               "gamma_3,2 = 4.8; witness |L| = 0.875"),
        _entry("noncollinear_lower_flavor1_axis3", "lower", 3.263034405833794,
               [("witness with L != 0 on axis 3", True),
                ("gamma_1,3 > 0", True)],
               "gamma_1,3 = 4.8; witness |L| = 0.75"),
        _entry("noncollinear_lower_flavor2_axis3", "lower", 3.263034405833794,
               [("witness with L > 0 on axis 3", True),
                ("gamma_2,3 > 0", True)],
               "gamma_2,3 = 4.8; witness |L| = 0.75"),
        _entry("noncollinear_lower_flavor3_axis3", "lower", 3.263034405833794,
               [("witness with L < 0 on axis 3", True),
                ("gamma_3,3 > 0", True)],
               "gamma_3,3 = 4.8; witness |L| = 0.6875"),
        _entry("exact_dim_equally_spaced", "exact", 3.263034405833794,
               [("equally spaced, equal n per axis", True),
                ("all s_i constant", True),
                ("q_i Hoelder-declared (C^eta)", True),
                ("witness with q affine on axis 1", True)],
               "gamma = 4.8 > n^(m - eta')"),
    ],
    "interval_negative_scale": [
        _entry("oscillation_upper", "upper", 1.5093842420185073,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma > N / Lambda^eta'; gamma = 1.75"),
        _entry("noncollinear_lower_flavor1_axis1", "lower", 1.5093842420185073,
               [("witness with L != 0 on axis 1", True),
                ("gamma_1,1 > 0", True)],
               "gamma_1,1 = 1.75; witness |L| = 0.625"),
        _entry("noncollinear_lower_flavor2_axis1", "lower", 1.2031140135750122,
               [("witness with L > 0 on axis 1", True),
                ("gamma_2,1 > 0", True)],
               "gamma_2,1 = 1.25; witness |L| = 0.625"),
        _entry("noncollinear_lower_flavor3_axis1", "lower", 1.2031140135750122,
               [("witness with L < 0 on axis 1", True),
                ("gamma_3,1 > 0", True)],
               "gamma_3,1 = 1.25; witness |L| = 0.5"),
        _entry("exact_dim_equally_spaced", "exact", 1.5093842420185073,
               [("equally spaced, equal n per axis", True),
                ("all s_i constant", True),
                ("q_i Hoelder-declared (C^eta)", True),
                ("witness with q affine on axis 1", True)],
               "gamma = 1.75 > n^(m - eta')"),
        _entry("variable_scale_lower", "lower", 1.5093842420185073,
               [("equally spaced interval", True),
                ("bounded-variation shape facts (eta = 1)", True),
                ("flavor-1 witness with flavored gamma > 1", True)],
               "gamma_0 = 1.75 (corollary route)"),
    ],
    "interval_variable_scale": [
        _entry("oscillation_upper", "upper", 1.3447349737221133,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma > N / Lambda^eta'; gamma = 1.460428781"),
        _entry("noncollinear_lower_flavor1_axis1", "lower", 1.2031140135750122,
               [("witness with L != 0 on axis 1", True),
                ("gamma_1,1 > 0", True)],
               "gamma_1,1 = 1.25; witness |L| = 0.5"),
        _entry("noncollinear_lower_flavor2_axis1", "lower", 1.2031140135750122,
               [("witness with L > 0 on axis 1", True),
                ("gamma_2,1 > 0", True)],
               "gamma_2,1 = 1.25; witness |L| = 0.5"),
        _entry("noncollinear_lower_flavor3_axis1", "lower", 1.2031140135750122,
               [("witness with L < 0 on axis 1", False),
                ("gamma_3,1 > 0", True)],
               "gamma_3,1 = 1.25"),
        _entry("variable_scale_lower", "lower", 1.2031140135750122,
               [("equally spaced interval", True),
                ("bounded-variation shape facts (eta = 1)", True),
                ("flavor-1 witness with flavored gamma > 1", True)],
               "gamma_0 = 1.25 (corollary route)"),
    ],
    "gasket_small_gamma": [
        _entry("oscillation_upper", "upper", 1.5849625007211563,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma <= N / Lambda^eta'; gamma = 1.2"),
        _entry("gasket_lower_flavor1", "lower", 1.2630344058337941,
               [("witness with L != 0", True), ("gamma_1,0 > 0", True)],
               "gamma_1,0 = 1.2; witness |L| = 2", vacuous=True),
        _entry("gasket_lower_flavor2", "lower", 1.2630344058337941,
               [("witness with L > 0", True), ("gamma_2,0 > 0", True)],
               "gamma_2,0 = 1.2; witness |L| = 2", vacuous=True),
        _entry("gasket_lower_flavor3", "lower", 1.2630344058337941,
               [("witness with L < 0", False), ("gamma_3,0 > 0", True)],
               "gamma_3,0 = 1.2", vacuous=True),
        _entry("gasket_exact", "exact", 1.5849625007211563,
               [("s_i, q_i Hoelder-declared (C^eta)", True),
                ("flavor-1 classification saturates gamma", True)],
               "gamma = 1.2 <= (3/2)^n, eta' = 1"),
    ],
    "interval_unequal_knots": [
        _entry("oscillation_upper", "upper", 1.3569154488567239,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma <= N / Lambda^eta'; gamma = 0.75"),
        _entry("noncollinear_lower_flavor1_axis1", "lower", 0.68603625198373,
               [("witness with L != 0 on axis 1", True),
                ("gamma_1,1 > 0", True)],
               "gamma_1,1 = 0.75; witness |L| = 0.5", vacuous=True),
        _entry("noncollinear_lower_flavor2_axis1", "lower", 0.68603625198373,
               [("witness with L > 0 on axis 1", True),
                ("gamma_2,1 > 0", True)],
               "gamma_2,1 = 0.75; witness |L| = 0.5", vacuous=True),
        _entry("noncollinear_lower_flavor3_axis1", "lower", 0.68603625198373,
               [("witness with L < 0 on axis 1", False),
                ("gamma_3,1 > 0", True)],
               "gamma_3,1 = 0.75", vacuous=True),
    ],
    "interval_middle_gamma": [
        _entry("oscillation_upper", "upper", 1.5000000000000002,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma <= N / Lambda^eta'; gamma = 1.5"),
        _entry("noncollinear_lower_flavor1_axis1", "lower", 1.3690702464285425,
               [("witness with L != 0 on axis 1", True),
                ("gamma_1,1 > 0", True)],
               "gamma_1,1 = 1.5; witness |L| = 0.5"),
        _entry("noncollinear_lower_flavor2_axis1", "lower", 1.3690702464285425,
               [("witness with L > 0 on axis 1", True),
                ("gamma_2,1 > 0", True)],
               "gamma_2,1 = 1.5; witness |L| = 0.5"),
        _entry("noncollinear_lower_flavor3_axis1", "lower", 1.3690702464285425,
               [("witness with L < 0 on axis 1", False),
                ("gamma_3,1 > 0", True)],
               "gamma_3,1 = 1.5"),
        _entry("variable_scale_lower", "lower", 1.3690702464285425,
               [("equally spaced interval", True),
                ("bounded-variation shape facts (eta = 1)", True),
                ("flavor-1 witness with flavored gamma > 1", True)],
               "gamma_0 = 1.5 (corollary route)"),
    ],
    "interval_collinear": [
        _entry("oscillation_upper", "upper", 1.535026479282073,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma > N / Lambda^eta'; gamma = 1.8"),
        _entry("noncollinear_lower_flavor1_axis1", "lower", 1.5350264792820727,
               [("witness with L != 0 on axis 1", False),
                ("gamma_1,1 > 0", True)],
               "gamma_1,1 = 1.8"),
        _entry("noncollinear_lower_flavor2_axis1", "lower", 1.5350264792820727,
               [("witness with L > 0 on axis 1", False),
                ("gamma_2,1 > 0", True)],
               "gamma_2,1 = 1.8"),
        _entry("noncollinear_lower_flavor3_axis1", "lower", 1.5350264792820727,
               [("witness with L < 0 on axis 1", False),
                ("gamma_3,1 > 0", True)],
               "gamma_3,1 = 1.8"),
    ],
    "interval_negative_scales": [
        _entry("oscillation_upper", "upper", 1.3690702464285427,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma > N / Lambda^eta'; gamma = 1.5"),
        _entry("noncollinear_lower_flavor1_axis1", "lower", 1.3690702464285425,
               [("witness with L != 0 on axis 1", True),
                ("gamma_1,1 > 0", True)],
               "gamma_1,1 = 1.5; witness |L| = 0.5"),
        _entry("exact_dim_equally_spaced", "exact", 1.3690702464285425,
               [("equally spaced, equal n per axis", True),
                ("all s_i constant", True),
                ("q_i Hoelder-declared (C^eta)", True),
                ("witness with q affine on axis 1", True)],
               "gamma = 1.5 > n^(m - eta')"),
        _entry("variable_scale_lower", "lower", 1.3690702464285425,
               [("equally spaced interval", True),
                ("bounded-variation shape facts (eta = 1)", True),
                ("flavor-1 witness with flavored gamma > 1", True)],
               "gamma_0 = 1.5 (corollary route)"),
    ],
    "interval_small_gamma": [
        _entry("oscillation_upper", "upper", 1.0000000000000002,
               [("s_i, q_i Hoelder-declared (C^eta)", True)],
               "case fired: gamma <= N / Lambda^eta'; gamma = 0.6"),
        _entry("noncollinear_lower_flavor1_axis1", "lower", 0.535026479282073,
               [("witness with L != 0 on axis 1", True),
                ("gamma_1,1 > 0", True)],
               "gamma_1,1 = 0.6; witness |L| = 0.5", vacuous=True),
        _entry("noncollinear_lower_flavor2_axis1", "lower", 0.535026479282073,
               [("witness with L > 0 on axis 1", True),
                ("gamma_2,1 > 0", True)],
               "gamma_2,1 = 0.6; witness |L| = 0.5", vacuous=True),
        _entry("noncollinear_lower_flavor3_axis1", "lower", 0.535026479282073,
               [("witness with L < 0 on axis 1", False),
                ("gamma_3,1 > 0", True)],
               "gamma_3,1 = 0.6", vacuous=True),
        _entry("exact_dim_equally_spaced", "exact", 1.0,
               [("equally spaced, equal n per axis", True),
                ("all s_i constant", True),
                ("q_i Hoelder-declared (C^eta)", True),
                ("witness with q affine on axis 1", True)],
               "gamma = 0.6 <= n^(m-1), eta' = 1"),
    ],
}


def test_theoretical_entries_pinned():
    models = _pinned_models()
    assert list(models) == list(PINNED_ENTRIES)
    for name, model in models.items():
        got = [e.to_dict() for e in theoretical_entries(model)]
        assert got == PINNED_ENTRIES[name], name


def test_theorem_rows_share_the_witness_searches(monkeypatch, tmp_path):
    # one theoretical_entries call searches each (r, sign) once for all its
    # rows, and runs the route-(b) probe only where that route is reached
    searches, probes = [], []
    find, estimate = dimension.find_witness, dimension.empirical_dimension

    def counted_find(model, r, sign=0):
        searches.append((r, sign))
        return find(model, r, sign)

    def counted_estimate(model, *args, **kw):
        probes.append(model)
        return estimate(model, *args, **kw)

    monkeypatch.setattr(dimension, "find_witness", counted_find)
    monkeypatch.setattr(dimension, "empirical_dimension", counted_estimate)
    probed, total = [], 0
    for name in CONFIG_NAMES:
        searches.clear(), probes.clear()
        theoretical_entries(get_model(name))
        assert len(searches) == len(set(searches)), name
        total += len(searches)
        probed += [name] * len(probes)
    assert total == 14
    assert probed == ["example5_case2"]
    # so a report pass estimates once per config, plus that one probe
    probes.clear()
    for name in CONFIG_NAMES:
        assert main(["report", str(CONFIG_DIR / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
    assert len(probes) == 7


# --------------------------------------------------------------------------
# Box counting


def test_box_count_constant_model_exact():
    model_cfg = get_config("degenerate_interval").spec
    data = [(p, 0.25) for p, _ in model_cfg.data]
    model = build_model(
        FifSpec(model_cfg.domain, data, model_cfg.s, "solve", 1.0)
    )
    est = empirical_dimension(model, 2, 6, extra=2)
    assert [c for _, _, c in est.entries] == [3**k for k in range(2, 7)]


def test_box_count_identity_band():
    from test_oscillation import _identity_model

    est = empirical_dimension(_identity_model(), 3, 7, extra=2)
    for k, _, count in est.entries:
        assert 3**k <= count <= 2 * 3**k


def test_box_count_monotone_rise_bound():
    # monotone graph: count <= total rise / delta + number of columns
    from test_oscillation import _identity_model

    k, delta, count = empirical_dimension(_identity_model(), 5, 6, extra=2).entries[-1]
    assert count <= 1 / delta + 3**k + 1


def _column_counts(model, depth, delta):
    """The column count of the level-depth cells of an interval at
    ``delta``, by ``_dyadic_counts`` (with 2^j columns, 2^(j - 1) delta >=
    |K|) and by ``column_count_reference`` on the replayed cells with as
    many columns: each a count or its error text."""
    j = max(1, math.ceil(math.log2(model.domain.diameter / delta)) + 1)
    *_, (_, vals, lo, hi, _) = replay_levels(model, depth)
    table = vals.min(axis=1), vals.max(axis=1)
    out = []
    for count in (lambda: _dyadic_counts(model, {j: delta}, depth)[j],
                  lambda: column_count_reference(*table, delta, lo, hi, 2**j)):
        try:
            out.append(count())
        except ValueError as exc:
            out.append(str(exc))
    return tuple(out)


def _deltas(model, k, rng):
    """The level-tied delta_k (the widest level-k cell), two deltas on
    either side of the limit of 64 extra columns per cell, dyadic deltas
    down to a quarter cell, and random ones from about 60 columns per
    cell to 2..64 cells per column and coarser."""
    diam = model.domain.diameter
    tied = diam / model.domain.lam**k
    return ([tied, tied / 63.5, tied / 64.5]
            + [diam / 2.0**j for j in range(1, 30) if diam / 2.0**j > tied / 4]
            + list(tied * np.exp(rng.uniform(np.log(1 / 60), np.log(200), 12))))


def _assert_counts_equal_reference(model, depth, rng):
    for delta in _deltas(model, depth, rng):
        code, reference = _column_counts(model, depth, delta)
        assert code == reference, (depth, delta)


@pytest.mark.parametrize("name", ["example5_case1_one", "example5_case1_sin",
                                  "example5_case2", "degenerate_interval"])
def test_box_count_equals_column_reference(name):
    # the column method at any delta, on the cells of levels 1..8
    model = get_model(name)
    rng = np.random.default_rng(8)
    for depth in range(1, 9):
        _assert_counts_equal_reference(model, depth, rng)


@st.composite
def interval_models(draw):
    """Random intervals of 2-4 pieces, unequal knots or equal ones, with
    flipped signature bits, random data, constant scales and solved
    displacements."""
    n = draw(st.integers(2, 4))
    x0 = draw(st.floats(-3, 3))
    if draw(st.booleans()):
        widths = [draw(st.floats(0.05, 2))] * n
    else:
        widths = draw(st.lists(st.floats(0.05, 2), min_size=n, max_size=n))
    knots = [x0 + sum(widths[:i]) for i in range(n + 1)]
    d = interval_domain(knots, draw(st.lists(st.integers(0, 1), min_size=n,
                                             max_size=n)))
    nodes = vertex_set(d, 1)
    values = draw(st.lists(st.floats(-1, 1), min_size=len(nodes),
                           max_size=len(nodes)))
    s = draw(st.lists(scales, min_size=n, max_size=n))
    data = [(tuple(p), v) for p, v in zip(nodes, values)]
    return build_model(FifSpec(d, data, [(Const(c), None) for c in s], "solve"))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(interval_models(), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_box_count_equals_column_reference_property(model, depth, seed):
    _assert_counts_equal_reference(model, depth, np.random.default_rng(seed))


def test_box_count_cell_inside_the_tie():
    # the middle cell lies within 1e-9 of the column edge at x = 0.5: its
    # lo corner is in column 1, its hi corner in column 0, so it counts
    # in column 1 alone
    d = interval_domain((0.0, 0.5 - 2.5e-10, 0.5 + 2e-10, 1.0), (0, 0, 0))
    data = [((x,), v) for x, v in zip((0.0, 0.5 - 2.5e-10, 0.5 + 2e-10, 1.0),
                                      (0.0, 5.0, -5.0, 0.0))]
    model = build_model(FifSpec(d, data, [(Const(0.1), None)] * 3, "solve"))
    count, reference = _column_counts(model, 1, 0.5)
    assert count == reference == 30
    # the middle cell widens column 1: with the last cell's values it adds
    # nothing there
    lo, hi = replayed_table(model, 1, 1)
    lo[1], hi[1] = lo[2], hi[2]
    assert count > column_count_reference(lo, hi, 0.5, *replay_geometry(model, 1)[:2], 2)


def _equal_pieces_model(x0):
    """Three equal pieces on [x0, x0 + 1], signature (0, 1, 0)."""
    knots = [x0 + i / 3 for i in range(4)]
    d = interval_domain(knots, (0, 1, 0))
    data = [(tuple(p), v) for p, v in zip(vertex_set(d, 1),
                                          (0.0, 0.5, 1 / 3, 0.0))]
    return build_model(FifSpec(
        d, data, [(Const(c), None) for c in (0.25, 0.5, 0.75)], "solve"))


def test_level_tied_count_is_translation_invariant():
    # the per-cell sum does not depend on where the interval lies
    counts = []
    for x0 in (0.0, 1000.0):
        est = empirical_dimension(_equal_pieces_model(x0), 7, 8, extra=0)
        counts.append(est.entries[-1][2])
    assert counts == [155429, 155429]


def test_column_count_is_translation_invariant():
    # the column tie grows with the corner's magnitude, as the corner's
    # rounding does; a tie that grew with t = (x - x0) / delta let cells
    # on [1000, 1001] spill into the next column (826240 boxes against
    # 615116 on [0, 1] for the same value ranges)
    models = [_equal_pieces_model(x0) for x0 in (0.0, 1000.0)]
    delta = models[0].domain.delta(8) / 2
    assert [_column_counts(model, 8, delta) for model in models] == [(615116, 615116)] * 2
    # and so with the same value ranges on both
    table = replayed_table(models[0], 8, 8)
    assert [column_count_reference(*table, delta, *replay_geometry(model, 8)[:2])
            for model in models] == [615116, 615116]


@pytest.mark.parametrize("name", ["example5_case2", "example5_case1_one"])
def test_box_count_rejects_cells_too_coarse(name):
    # the widest cell spans about 100 columns
    model = get_model(name)
    delta = model.domain.diameter / model.domain.lam**3 / 100
    assert _column_counts(model, 3, delta) == (
        "cells too coarse for this delta; refine the sample",) * 2


def test_level_tied_counts_make_no_geometry(monkeypatch):
    # on an equal-ratio interval the level-tied counts of the empirical
    # estimate and of the route-(b) probe are sums over cells: one sweep
    # each, whose depth level carries no vertex points
    model = get_model("example5_case2")
    sweeps, sweep = [], dimension._sweep

    def spy(model, depth, *args, **kw):
        sweeps.append((depth, points := []))
        for level, offset, block in sweep(model, depth, *args, **kw):
            if level == depth:
                points.append(block.pts is not None)
            yield level, offset, block

    monkeypatch.setattr(dimension, "_sweep", spy)
    est = empirical_dimension(model, 3, 6)
    assert _entry_of(model, "variable_scale_lower").heuristic
    assert [(depth, any(points)) for depth, points in sweeps] == [(8, False), (8, False)]
    assert est.entries == replayed_estimate(model, 3, 6, 8)


def _far_counts(knots, signature, s, values, depth, k_max):
    """empirical_dimension's counts of an interval model on the level-depth
    cells at the dyadic deltas of k = 2..k_max, asserted equal to the
    reference's; values are the data on V_1, in its order."""
    d = interval_domain(knots, signature)
    data = [(tuple(p), v) for p, v in zip(vertex_set(d, 1), values)]
    model = build_model(FifSpec(d, data, [(Const(c), None) for c in s], "solve"))
    est = empirical_dimension(model, 2, k_max, extra=depth - k_max)
    assert est.entries == replayed_estimate(model, 2, k_max, depth)
    return [c for _, _, c in est.entries]


def test_far_unequal_knots_count_every_column():
    # the cells' ends lie ulps beyond the region's, so delta = |K| / 2^k
    # gave 2^k + 1 columns for k >= 4, the last met by no cell, whose run
    # started past the last cell: an IndexError of minimum.reduceat in
    # empirical_dimension
    # (the last two counts were 1495871 and 3416017 while q_i was fitted in
    # x, not x - 1000, 2.9e-10 off in f*)
    knots = [1000 + t for t in (0, 4e-4, 9e-4, 1e-3)]
    assert _far_counts(knots, (1, 0, 1), (0.5, -0.4, 0.3), (0, 1, -1, 0.5),
                       8, 8) == [18856, 47034, 110713, 280272, 650735,
                                 1495870, 3416016]


def test_far_unequal_knots_have_no_column_past_the_last_end():
    # x0 is an ulp below 1000, so |K| / 2^k fits 2^k + 3e-8 times between
    # the ends; the last level-10 cell is narrower than the tie, which put
    # its lo corner in a column 2^k past the last end: one box more from
    # k = 4 on (66, 164, 416, 1067, 2752)
    knots = [1000.0, 1000.0002628912248, 1000.0006267551054,
             1000.0007794884641, 1000.001]
    values = [1e-3 * v for v in (0.25, -0.4, 0.49, 0.51, 0.21)]
    assert _far_counts(knots, (1, 0, 0, 1), (-0.55, -0.48, 0.09, -0.52),
                       values, 10, 8) == [11, 26, 65, 163, 415, 1066, 2751]


def _dyadic_counts_or_error(model, k_min, k_max, extra):
    """empirical_dimension's counts on unequal knots, or its error text."""
    try:
        est = empirical_dimension(model, k_min, k_max, extra)
    except ModelError as exc:
        return str(exc)
    assert [(k, d) for k, d, _ in est.entries] == [
        (k, model.domain.diameter / 2.0**k) for k in range(k_min, k_max + 1)]
    return [c for _, _, c in est.entries]


def _dyadic_table_counts(model, k_min, k_max, depth):
    """``column_count_reference`` of the replayed level-depth cells at each
    dyadic delta, or its error text: what empirical_dimension returns or
    raises."""
    try:
        return [c for _, _, c in replayed_estimate(model, k_min, k_max, depth)]
    except ValueError as exc:
        return str(exc)


@st.composite
def unequal_interval_models(draw):
    """Intervals of 2-4 unequal pieces with random widths and flips at
    offsets 0, -3, 1000 and -5e4, spans 1 and 1e-3, random data within
    the span (which keeps the join-up residual of the solved
    displacements below its bound) and random constant scales."""
    n = draw(st.integers(2, 4))
    widths = draw(st.lists(st.floats(0.2, 1), min_size=n, max_size=n,
                           unique=True))
    x0 = draw(st.sampled_from([0.0, -3.0, 1000.0, -5e4]))
    span = draw(st.sampled_from([1.0, 1e-3]))
    knots = [x0 + span * sum(widths[:i]) / sum(widths) for i in range(n + 1)]
    d = interval_domain(knots, draw(st.lists(st.integers(0, 1), min_size=n,
                                             max_size=n)))
    nodes = vertex_set(d, 1)
    values = draw(st.lists(st.floats(-1, 1), min_size=len(nodes),
                           max_size=len(nodes)))
    s = draw(st.lists(scales, min_size=n, max_size=n))
    data = [(tuple(p), span * v) for p, v in zip(nodes, values)]
    return build_model(FifSpec(d, data, [(Const(c), None) for c in s], "solve"))


@pytest.mark.parametrize("slots", [engine.BLOCK_SLOTS, SMALL_BLOCK_SLOTS])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(unequal_interval_models(), st.integers(3, 6), st.integers(0, 2))
def test_nested_dyadic_columns_equal_box_count(slots, model, k_max, extra):
    # the columns of delta_(k_max) reduced pairwise give the count of each
    # coarser dyadic delta, as the reference counts it on its own
    if model.domain.homogeneous:  # widths equal within 1e-9
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_SLOTS", slots)
        got = _dyadic_counts_or_error(model, 2, k_max, extra)
    assert got == _dyadic_table_counts(model, 2, k_max, k_max + extra)


def test_dyadic_counts_reject_cells_too_coarse():
    # a piece of 0.95: its level-(k + 2) cells span more than 64 columns of
    # delta_k from k = 7 on, so a window that reaches k = 7 fails there
    d = interval_domain((0, 0.95, 1), (0, 0))
    data = [(tuple(p), v) for p, v in zip(vertex_set(d, 1), (0.0, 1.0, -0.5))]
    model = build_model(FifSpec(d, data, [(Const(0.3), None)] * 2, "solve"))
    for k_max in (6, 7, 10):
        got = _dyadic_counts_or_error(model, 4, k_max, 2)
        assert got == _dyadic_table_counts(model, 4, k_max, k_max + 2)
        assert (got == "cells too coarse for this delta; refine the sample"
                ) == (k_max >= 7)


@pytest.mark.parametrize("name", CONFIG_NAMES)
@pytest.mark.parametrize("slots", [engine.BLOCK_SLOTS, SMALL_BLOCK_SLOTS])
def test_empirical_counts_equal_box_count(name, slots, monkeypatch):
    # the reducers against the counts of the replayed level tables: the
    # level-tied path, and the dyadic one on unequal knots, in blocks of
    # the default size past the last whole level, or of 1-3 cells
    model = get_model(name)
    small = slots == SMALL_BLOCK_SLOTS
    k_min, k_max = (2, 4) if small else (5, 6) if model.N == 4 else (7, 9)
    monkeypatch.setattr(engine, "BLOCK_SLOTS", slots)
    est = empirical_dimension(model, k_min, k_max)
    monkeypatch.undo()
    assert est.entries == replayed_estimate(model, k_min, k_max, k_max + 2)


def _level_slots(model, depth):
    """Points and values of every vertex slot of level ``depth``,
    duplicates included, pushed whole from level 0."""
    pts = model.domain.v0_array
    vals = model.p_at(pts)
    for _ in range(depth):
        kids = [(mp(pts), model.s[i][0].ev(pts) * vals + model.q[i][0].ev(pts))
                for i, mp in enumerate(model.domain.maps)]
        pts, vals = (np.concatenate(part) for part in zip(*kids))
    return pts, vals


def test_sg_prism_voxel_sandwich():
    # N_delta <= N_S(k) <= 3 N_delta; the voxel proxy for N_delta is
    # grid-aligned, so allow the standard 2^3 grid-shift factor on the left
    model = get_model("sg_exact")
    for k, delta, prism in empirical_dimension(model, 3, 5, extra=4).entries:
        pts, vals = _level_slots(model, k + 5)
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
    # one level was a polyfit through one point (a RankWarning), a made-up slope
    with pytest.raises(ModelError, match="^k_max must be an integer >= 5, got 4$"):
        empirical_dimension(model, 4, 4)
    with pytest.raises(ModelError):
        empirical_dimension(model, 4, 6, extra=-1)
    # a fractional level was a TypeError, a fractional extra one in the sweep
    with pytest.raises(ModelError, match="^k_min must be an integer >= 2, got 4.5$"):
        empirical_dimension(model, 4.5, 6)
    with pytest.raises(ModelError, match="^extra must be an integer >= 0, got 1.5$"):
        empirical_dimension(model, 4, 6, 1.5)


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


scales = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)


@st.composite
def solved_models(draw):
    """Equally spaced intervals, 2-axis cubes (n1 x n2 pieces, alternating
    signatures and one scale, so faces match) and level-1 gaskets, with random data on V_1,
    constant scales and solved displacements."""
    kind = draw(st.sampled_from(["interval", "cube", "gasket"]))
    if kind == "interval":
        n = draw(st.integers(2, 4))
        sig = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        d = interval_domain([i / n for i in range(n + 1)], sig)
        s = draw(st.lists(scales, min_size=n, max_size=n))
    elif kind == "cube":
        d = cube_domain([([i / n for i in range(n + 1)], [j % 2 for j in range(n)])
                         for n in draw(st.lists(st.integers(2, 3), min_size=2,
                                                max_size=2))])
        s = [draw(scales)] * d.N
    else:
        d = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 1)
        s = draw(st.lists(scales, min_size=3, max_size=3))
    nodes = vertex_set(d, 1)
    values = draw(st.lists(st.floats(-1, 1), min_size=len(nodes),
                           max_size=len(nodes)))
    data = [(tuple(p), v) for p, v in zip(nodes, values)]
    return build_model(FifSpec(d, data, [(Const(c), None) for c in s], "solve"))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(solved_models())
def test_bounds_bracket_the_dimension_property(model):
    report = reconcile(model, with_empirical=False)
    lo, hi = report.best_lower, report.best_upper
    if lo is not None and hi is not None:
        assert model.domain.dim <= lo <= hi + 1e-12
        assert hi <= model.domain.m + 1
