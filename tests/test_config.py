"""Config schema: fractions, presets, structured errors."""

import json

import pytest

from conftest import get_config
from fifdim.config import ConfigError, load_config, parse_number, resolve_analysis
from fifdim.engine import FAMILIES


def test_parse_number_fractions():
    assert parse_number("4/15") == pytest.approx(4 / 15, abs=1e-17)
    assert parse_number("1/3") == pytest.approx(1 / 3, abs=1e-17)
    assert parse_number(0.5) == 0.5
    assert parse_number(2) == 2.0


def test_parse_number_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_number("4//15")
    with pytest.raises(ConfigError):
        parse_number(True)
    with pytest.raises(ConfigError):
        parse_number("1/0")


def test_bundled_configs_load():
    for name in (
        "example5_case1_one",
        "example5_case1_sin",
        "example5_case2",
        "sg_exact",
        "degenerate_interval",
        "degenerate_cube",
    ):
        cfg = get_config(name)
        assert cfg.spec.domain.N >= 3


def test_case1_sin_carries_gamma_pin():
    cfg = get_config("example5_case1_sin")
    assert cfg.analysis["gamma_pin"] == pytest.approx(1.5)


def test_exact_knot_fractions_survive():
    # "4/15" must not be truncated: Lambda_0 depends on it exactly
    cfg = get_config("example5_case1_one")
    knots = cfg.spec.domain.axes[0].knots
    assert knots[1] == 4 / 15
    assert knots[2] == 3 / 5


def _write(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return str(p)


BASE = {
    "domain": {"kind": "interval", "knots": ["0", "1/2", "1"],
               "signature": [0, 0]},
    "data": [
        {"point": ["0"], "value": "0"},
        {"point": ["1/2"], "value": "1"},
        {"point": ["1"], "value": "0"},
    ],
    "scales": ["1/3", "1/3"],
    "displacements": {"solve": "affine"},
    "eta": 1,
}


def test_minimal_config_roundtrip(tmp_path):
    cfg = load_config(_write(tmp_path, BASE))
    assert cfg.spec.domain.N == 2
    assert cfg.spec.q == "affine"


def test_missing_q_entry_names_map_index(tmp_path):
    payload = dict(BASE, displacements=["0"])
    with pytest.raises(ConfigError) as ei:
        load_config(_write(tmp_path, payload))
    assert any("map index 2" in msg for _, msg in ei.value.errors)


def test_scale_count_mismatch(tmp_path):
    payload = dict(BASE, scales=["1/3"])
    with pytest.raises(ConfigError) as ei:
        load_config(_write(tmp_path, payload))
    assert any(path == "scales" for path, _ in ei.value.errors)


def test_bad_expression_reports_field_path(tmp_path):
    payload = dict(BASE, scales=["1/3", "x1/"])
    with pytest.raises(ConfigError) as ei:
        load_config(_write(tmp_path, payload))
    assert any("scales[1]" in path for path, _ in ei.value.errors)


def test_unknown_domain_kind(tmp_path):
    payload = dict(BASE, domain={"kind": "torus"})
    with pytest.raises(ConfigError) as ei:
        load_config(_write(tmp_path, payload))
    assert any("domain.kind" in path for path, _ in ei.value.errors)


def test_invalid_json_reports(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_constant_data_preset(tmp_path):
    payload = dict(BASE, data={"constant": "1/4"})
    cfg = load_config(_write(tmp_path, payload))
    assert len(cfg.spec.data) == 3
    assert all(v == pytest.approx(0.25) for _, v in cfg.spec.data)


def test_unknown_fact_field_rejected(tmp_path):
    payload = dict(
        BASE,
        scales=[{"expr": "1/3", "facts": {"monotone": True}}, "1/3"],
    )
    with pytest.raises(ConfigError) as ei:
        load_config(_write(tmp_path, payload))
    assert any("monotone" in path for path, _ in ei.value.errors)


@pytest.mark.parametrize("eta", [-3, 0, "-1/2"])
def test_eta_must_be_positive(tmp_path, eta):
    with pytest.raises(ConfigError) as ei:
        load_config(_write(tmp_path, dict(BASE, eta=eta)))
    assert [path for path, _ in ei.value.errors] == ["eta"]


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_eta_must_be_finite(tmp_path, literal):
    # json reads the non-standard literals NaN and Infinity as floats
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(BASE).replace('"eta": 1', f'"eta": {literal}'))
    with pytest.raises(ConfigError) as ei:
        load_config(str(p))
    assert [path for path, _ in ei.value.errors] == ["eta"]


def test_solve_takes_true_or_a_family(tmp_path):
    cfg = load_config(_write(tmp_path, dict(BASE, displacements={"solve": True})))
    assert cfg.spec.q == "solve"  # the domain's default family
    for family in FAMILIES:
        payload = dict(BASE, displacements={"solve": family})
        assert load_config(_write(tmp_path, payload)).spec.q == family


def test_analysis_fields(tmp_path):
    analysis = {"k_min": 3, "k_max": 5, "sample_depth": 0, "gamma_pin": "1/2"}
    cfg = load_config(_write(tmp_path, dict(BASE, analysis=analysis)))
    assert cfg.analysis == dict(analysis, gamma_pin=0.5)
    bad = {"k_min": 3.0, "k_max": False, "sample_depth": None, "window": [3, 5]}
    with pytest.raises(ConfigError) as ei:
        load_config(_write(tmp_path, dict(BASE, analysis=bad)))
    assert [path for path, _ in ei.value.errors] == [
        "analysis.k_min", "analysis.k_max", "analysis.sample_depth",
        "analysis.window"]


def test_effective_window_resolved_flag_config_default(tmp_path):
    # the flag, else the config, else the domain default (N = 2, |V_0| = 2:
    # window 6..16, sample_depth 11)
    cfg = load_config(_write(tmp_path, dict(BASE, analysis={"k_max": 7})))
    d = cfg.spec.domain
    assert resolve_analysis(cfg.analysis, d) == {
        "k_min": 6, "k_max": 7, "sample_depth": 11}
    assert resolve_analysis(cfg.analysis, d, {"k_min": ("--kmin", 5)}) == {
        "k_min": 5, "k_max": 7, "sample_depth": 11}
    with pytest.raises(ConfigError) as ei:
        resolve_analysis(cfg.analysis, d, {"k_min": ("--kmin", 8)})
    assert ei.value.errors == [
        ("analysis.k_max", "must be >= --kmin + 1 = 9, got 7")]
    # the config alone is checked against the defaults when it is resolved,
    # not at load time, where a flag may still make the window valid
    cfg = load_config(_write(tmp_path, dict(BASE, analysis={"k_min": 16})))
    with pytest.raises(ConfigError) as ei:
        resolve_analysis(cfg.analysis, d)
    assert ei.value.errors == [
        ("analysis.k_min", "must be <= the default k_max - 1 = 15, got 16")]


def test_parse_number_overflow_is_a_config_error():
    with pytest.raises(ConfigError) as ei:
        parse_number("1e400", "data[0].value")
    assert ei.value.errors == [("data[0].value", "cannot parse number '1e400'")]


@pytest.mark.parametrize("constant", ["1e400", float("inf")])
def test_constant_data_preset_must_be_finite(tmp_path, constant):
    with pytest.raises(ConfigError) as ei:
        load_config(_write(tmp_path, dict(BASE, data={"constant": constant})))
    assert [path for path, _ in ei.value.errors] == ["data.constant"]


def test_data_matched_to_the_nodes(tmp_path):
    # in any order, with a point written another way ("0.5" for "1/2")
    data = [{"point": ["1"], "value": 0}, {"point": [0.5], "value": 1},
            {"point": ["0"], "value": 0}]
    cfg = load_config(_write(tmp_path, dict(BASE, data=data)))
    assert sorted(cfg.spec.data) == [((0.0,), 0.0), ((0.5,), 1.0), ((1.0,), 0.0)]
