"""Oscillation sums, the seminorm and the Hoelder-to-oscillation ceiling."""

import numpy as np
import pytest

from conftest import get_model
from fifdim.domains import cell_budget, interval_domain
from fifdim.engine import (
    FifSpec,
    ModelError,
    _level0,
    _push,
    build_model,
    graph_sample,
    graph_samples,
)
from fifdim.exprs import parse_expr
from fifdim.oscillation import (
    DEFAULT_KMAX,
    _samples_up_to,
    cell_osc,
    holder_to_osc_check,
    osc_table,
    seminorm,
    total_osc,
)


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
    for k in (1, 3, 6):
        lo, hi = total_osc(graph_sample(model, k))
        assert lo == pytest.approx(0.0, abs=1e-12)
    assert seminorm(model, 1.0, kmax=6) == pytest.approx(0.0, abs=1e-12)


def test_identity_total_osc_is_one():
    model = _identity_model()
    for k in range(1, 11):
        lo, _ = total_osc(graph_sample(model, k))
        assert lo == pytest.approx(1.0, abs=1e-10)


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


def test_cell_osc_and_table_consistency():
    model = get_model("example5_case1_one")
    sample = graph_sample(model, 3)
    table = osc_table(sample)
    lo_sum = float(np.sum(table.cell_osc_lo))
    assert table.total[0] == pytest.approx(lo_sum, rel=1e-12)
    word = (0, 1, 2)
    lo, hi = cell_osc(sample, word)
    idx = sample.index_of(word)
    assert lo == pytest.approx(table.cell_osc_lo[idx])
    assert hi >= lo


def test_total_osc_level_mismatch_rejected():
    model = _identity_model()
    sample = graph_sample(model, 2)
    with pytest.raises(ValueError):
        total_osc(sample, k=3)


def _observed_holder_constant(model, eta, k=10):
    sample = graph_sample(model, k, extra=2)
    diam = np.maximum(sample.cell_diam, 1e-300)
    return float(np.max((sample.vmax - sample.vmin) / diam**eta))


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


def _replayed_sample(model, k, extra):
    # reference: push from level 0 to k, then on to k + extra, per sample
    at_k = _level0(model)
    for _ in range(k):
        at_k = _push(model, at_k)
    deep = at_k
    for _ in range(extra):
        deep = _push(model, deep)
    block = deep.vals.reshape(model.N**k, -1)
    return (at_k.pts, at_k.vals, at_k.lo, at_k.hi, at_k.diam,
            block.min(axis=1), block.max(axis=1),
            2 * model.M[1] * model.s_norm[1] ** extra)


@pytest.mark.parametrize(
    "name", ["example5_case2", "example5_case1_sin", "degenerate_cube"]
)
def test_one_pass_samples_equal_level0_replay(name):
    model = get_model(name)
    kmax = DEFAULT_KMAX[model.domain.kind]
    got = list(_samples_up_to(model, kmax))
    assert [s.level for s in got] == list(range(1, kmax + 1))
    # the budget shrinks the refinement depth of the deepest levels
    assert got[0].extra == 4 and got[-1].extra < 4
    assert model.N ** (kmax + 4) * len(model.domain.v0) > cell_budget()
    for sample in got:
        ref = _replayed_sample(model, sample.level, sample.extra)
        fields = (sample.vert_pts, sample.vert_vals, sample.cell_lo,
                  sample.cell_hi, sample.cell_diam, sample.vmin, sample.vmax)
        for a, b in zip(fields, ref[:7]):
            assert np.array_equal(a, b)
        assert sample.slack == ref[7]


def test_graph_samples_order_and_single_entry():
    model = _identity_model()
    samples = graph_samples(model, {3: 0, 1: 2, 2: 1})
    got = [(s.level, s.extra) for s in samples]
    assert got == [(1, 2), (2, 1), (3, 0)]
    one = graph_sample(model, 4, extra=1)
    assert (one.level, one.extra, one.cells) == (4, 1, 3**4)
    assert list(graph_samples(model, {})) == []
    for bad in ({0: 1}, {2: -1}):
        with pytest.raises(ModelError):
            next(graph_samples(model, bad))


@pytest.mark.parametrize(
    "name, expected",
    [("example5_case2", "13.37110843608938"),
     ("example5_case1_sin", "1.649602513456378"),
     ("degenerate_cube", "1.0")],
)
def test_seminorm_pinned_values(name, expected):
    model = get_model(name)
    assert repr(seminorm(model, min(1, model.eta))) == expected
