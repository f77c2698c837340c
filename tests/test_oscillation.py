"""Oscillation sums, the seminorm and the Hoelder-to-oscillation ceiling."""

import math

import numpy as np
import pytest

from conftest import get_model, replay_geometry, replay_levels, replayed_table
from fifdim.domains import cell_budget, gasket_domain, interval_domain, vertex_set
from fifdim import engine
from fifdim.engine import FifSpec, build_model, evaluate_on_vk
from fifdim.exprs import parse_expr
from fifdim.oscillation import _osc_sums, holder_to_osc_check, seminorm


def _constant_model(c=0.7):
    d = interval_domain((0.0, 1 / 3, 2 / 3, 1.0), (0, 0, 0))
    data = [((k,), c) for k in (0.0, 1 / 3, 2 / 3, 1.0)]
    s = [(parse_expr("1/3"), None)] * 3
    return build_model(FifSpec(d, data, s, "solve", 1.0))


def _identity_model():
    # f*(x) = x: s = 1/3, q_i = (i-1)/3 on the equally spaced 3-piece interval
    d = interval_domain((0.0, 1 / 3, 2 / 3, 1.0), (0, 0, 0))
    data = [((k,), k) for k in (0.0, 1 / 3, 2 / 3, 1.0)]
    s = [(parse_expr("1/3"), None)] * 3
    q = [(parse_expr(t), None) for t in ("0", "1/3", "2/3")]
    return build_model(FifSpec(d, data, s, q, 1.0))


def test_constant_model_zero_oscillation():
    model = _constant_model()
    assert all(osc == pytest.approx(0.0, abs=1e-12) for osc in _osc_sums(model, 6).values())
    assert seminorm(model, 1.0, kmax=6) == pytest.approx(0.0, abs=1e-12)


def test_identity_total_osc_is_one():
    osc = _osc_sums(_identity_model(), 10)
    assert list(osc) == list(range(1, 11))
    assert all(v == pytest.approx(1.0, abs=1e-10) for v in osc.values())


def test_identity_seminorm_is_one():
    # [DERIVED] Osc(k, id) = 1 and Lambda^(k(log_Lambda N - 1)) = 1 for N=3,
    # Lambda=3, so [id]_1 = 1
    model = _identity_model()
    assert seminorm(model, 1.0, kmax=8) == pytest.approx(1.0, abs=1e-10)


def test_seminorm_monotone_in_kmax():
    model = get_model("example5_case2")
    vals = [seminorm(model, 0.8, kmax=k) for k in (2, 4, 6)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_seminorm_rejects_eta_out_of_range():
    model = _identity_model()
    with pytest.raises(ValueError):
        seminorm(model, 1.5)


@pytest.mark.parametrize("eta, kmax", [(1.5, 4), (-0.1, 4), (1.0, 0)])
def test_holder_check_rejects_bad_arguments(eta, kmax):
    # kmax = 0 used to give {} and so a vacuous pass of all(out.values())
    with pytest.raises(ValueError):
        holder_to_osc_check(_identity_model(), eta, 1.0, kmax=kmax)


@pytest.mark.parametrize("holder", [float("nan"), -1.0, float("inf")])
def test_holder_check_rejects_a_bad_holder_constant(holder):
    # nan and -1.0 gave {k: False}, which reads as a real failed check
    with pytest.raises(ValueError, match="^holder_const must be finite and >= 0"):
        holder_to_osc_check(_identity_model(), 1.0, holder, kmax=4)


@pytest.mark.parametrize("kmax", [2.5, True, 0])
def test_seminorm_and_holder_check_reject_a_kmax_that_is_no_level(kmax):
    # 2.5 was a bare TypeError, and True ran as kmax = 1
    message = f"^kmax must be an integer >= 1, got {kmax}$"
    with pytest.raises(ValueError, match=message):
        seminorm(_identity_model(), 0.5, kmax)
    with pytest.raises(ValueError, match=message):
        holder_to_osc_check(_identity_model(), 0.5, 1.0, kmax)


def _observed_holder_constant(model, eta, k=10):
    vmin, vmax = replayed_table(model, k, k + 2)
    diam = np.maximum(replay_geometry(model, k)[2], 1e-300)
    return float(np.max((vmax - vmin) / diam**eta))


@pytest.mark.parametrize(
    "name",
    ["example5_case1_one", "example5_case1_sin", "example5_case2",
     "degenerate_interval"],
)
def test_holder_ceiling_all_audited_models(name):
    # Osc(k, f) <= H |K|^eta Lambda^(k (log_Lambda N - eta)) for k <= 10,
    # with H the observed finest-level Hoelder-type constant of f*
    model = get_model(name)
    eta = min(1.0, model.eta)
    H = _observed_holder_constant(model, eta) * (1 + 1e-9)
    out = holder_to_osc_check(model, eta, H, kmax=10)
    assert set(out) == set(range(1, 11))
    assert all(out.values())


def test_holder_ceiling_fails_for_tiny_constant():
    model = get_model("example5_case2")
    out = holder_to_osc_check(model, 0.8, 1e-6, kmax=4)
    assert not all(out.values())


@pytest.mark.parametrize(
    "name", ["example5_case2", "example5_case1_sin", "degenerate_cube"]
)
def test_one_pass_samples_equal_level0_replay(name):
    model = get_model(name)
    kmax = model.domain.analysis_defaults()["seminorm_kmax"]
    got = _osc_sums(model, kmax)
    assert list(got) == list(range(1, kmax + 1))
    # the budget shrinks the refinement depth of the deepest levels
    assert model.N ** (kmax + 4) * len(model.domain.v0) > cell_budget()
    slots = len(model.domain.v0)
    depths = {k: max(d for d in range(k, k + 5) if model.N**d * slots <= cell_budget())
              for k in got}
    assert depths[1] == 5 and depths[kmax] < kmax + 4
    # one replay level at a time, with no geometry: the deepest levels
    # take hundreds of MB
    for level, (_, vals, _, _, _) in enumerate(
            replay_levels(model, max(depths.values()), geometry_to=0)):
        for k, osc in got.items():
            if depths[k] == level:
                block = vals.reshape(model.N**k, -1)
                spread = block.max(axis=1) - block.min(axis=1)
                assert repr(osc) == repr(float(np.sum(spread)))


def test_osc_sums_are_lower_bounds():
    # Osc(3) read off the vertices of level 7 is at most the sum over the
    # level-3 cells of the spread of f* on the points of V_9 in each
    model = get_model("example5_case1_one")
    cell_lo, cell_hi, _ = replay_geometry(model, 3)
    pts, vals = evaluate_on_vk(model, 9)
    spread = 0.0
    for lo, hi in zip(cell_lo[:, 0], cell_hi[:, 0]):
        inside = vals[(pts[:, 0] >= lo - 1e-12) & (pts[:, 0] <= hi + 1e-12)]
        spread += inside.max() - inside.min()
    assert _osc_sums(model, 3)[3] <= spread + 1e-12


def _flipped_model():
    # the middle map of a 3-piece interval flips (signature [0, 1, 0])
    knots = (0.0, 1 / 3, 2 / 3, 1.0)
    d = interval_domain(knots, (0, 1, 0))
    data = [((x,), v) for x, v in zip(knots, (0.0, 0.6, -0.3, 0.4))]
    s = [(parse_expr(t), None) for t in ("1/2", "-2/5", "3/10")]
    return build_model(FifSpec(d, data, s, "solve", 1.0))


def _gasket2_model():
    # the gasket with its IFS refined to level 2: 9 maps, 15 nodes
    d = gasket_domain([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], 2)
    data = [(tuple(p), round(math.sin(3 * j), 3))
            for j, p in enumerate(vertex_set(d, 1).tolist())]
    s = [(parse_expr(t), None) for t in
         ("3/10", "-1/5", "1/4", "2/5", "-3/10", "1/5", "1/10", "-2/5", "1/4")]
    return build_model(FifSpec(d, data, s, "solve", 1.0))


# built models at a FIF_CELL_BUDGET (and kmax) whose extras e_k = 4, 4, 3,
# 2, 1, 0 and 4, 3, 2, 1, 0 take several values, 0 among them; pinned
# before the sweep read every level group-major
BUDGET_MODELS = {"flipped_interval": (_flipped_model, 3000, 6),
                 "gasket_level2": (_gasket2_model, 200000, 5)}


@pytest.mark.parametrize(
    "name, expected",
    [("example5_case2", "13.37110843608938"),
     ("example5_case1_sin", "1.649602513456378"),
     ("example5_case1_one", "2.4794996938351463"),
     ("sg_exact", "270.2587432195848"),
     ("degenerate_interval", "1.0"),
     ("degenerate_cube", "1.0"),
     ("flipped_interval", "7.778027613168717"),
     ("gasket_level2", "16.850126332882866")],
)
def test_seminorm_pinned_values(name, expected, monkeypatch):
    if name in BUDGET_MODELS:
        make, budget, kmax = BUDGET_MODELS[name]
        monkeypatch.setenv("FIF_CELL_BUDGET", str(budget))
        model = make()
    else:  # sg_exact at kmax 12; at its default 11 it is 218.84024094744578
        model, kmax = get_model(name), 12 if name == "sg_exact" else None
    assert repr(seminorm(model, min(1, model.eta), kmax)) == expected


@pytest.mark.parametrize("name, holder, osc", [
    ("flipped_interval", 7.000224851851846,
     ["2.310913580246914", "3.424751868312758", "4.332153547325103",
      "5.482408164609054", "6.6935216460905345", "7.7780276131687245"]),
    ("gasket_level2", 15.16511369959458,
     ["16.140082078125", "49.9318176171875", "142.88743985625",
      "382.8836692421876", "971.6631931937503"]),
])
def test_holder_check_pinned_values(name, holder, osc, monkeypatch):
    # holder is 0.9 of the pinned seminorm over |K|, so the check fails at
    # the k that attains it (the last), and Osc(k) is pinned for every k
    make, budget, kmax = BUDGET_MODELS[name]
    monkeypatch.setenv("FIF_CELL_BUDGET", str(budget))
    model = make()
    assert [engine._fit_extra(model, k, 4) for k in range(1, kmax + 1)][-3:] == [2, 1, 0]
    assert holder_to_osc_check(model, 1.0, holder, kmax) == {
        k: k < kmax for k in range(1, kmax + 1)}
    assert [repr(v) for v in _osc_sums(model, kmax).values()] == osc
