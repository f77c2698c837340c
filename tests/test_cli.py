"""CLI: exit codes, artifact files, deterministic output."""

import json

import pytest

from fifdim.cli import main


def _cfg(config_dir, name):
    return str(config_dir / f"{name}.json")


def test_validate_ok(config_dir, capsys):
    assert main(["validate", _cfg(config_dir, "example5_case2")]) == 0
    out = capsys.readouterr().out
    assert "join-up residual" in out and "well-defined: yes" in out


def test_validate_failure_exit_2(tmp_path, config_dir, capsys):
    raw = json.loads((config_dir / "example5_case2.json").read_text())
    raw["data"][1]["value"] = "0.51"  # breaks the join-up conditions
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(raw))
    assert main(["validate", str(p)]) == 2


def test_config_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    assert main(["bounds", str(p)]) == 1
    assert "config error" in capsys.readouterr().err


def test_budget_exceeded_exit_3(config_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIF_CELL_BUDGET", "20")
    code = main(
        ["boxdim", _cfg(config_dir, "example5_case2"), "--out", str(tmp_path)]
    )
    assert code == 3


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_malformed_budget_exit_3(
    config_dir, tmp_path, monkeypatch, capsys, raw
):
    monkeypatch.setenv("FIF_CELL_BUDGET", raw)
    code = main(
        ["report", _cfg(config_dir, "example5_case2"), "--out", str(tmp_path)]
    )
    assert code == 3
    assert "FIF_CELL_BUDGET" in capsys.readouterr().err


def test_sample_depth0_equals_data(config_dir, tmp_path, capsys):
    code = main(
        ["sample", _cfg(config_dir, "example5_case2"), "--depth", "0",
         "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "sample.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,value"
    rows = {float(a): float(b) for a, b in (ln.split(",") for ln in lines[1:])}
    assert rows[0.0] == 0.0
    assert rows[1.0] == 0.0
    assert rows[min(rows, key=lambda x: abs(x - 1 / 3))] == pytest.approx(0.5)


def test_bounds_json_payload(config_dir, tmp_path, capsys):
    code = main(
        ["bounds", _cfg(config_dir, "example5_case1_sin"), "--out", str(tmp_path)]
    )
    assert code == 0
    d = json.loads((tmp_path / "bounds.json").read_text())
    assert d["best_lower"] == pytest.approx(1.16882, abs=1e-3)
    uppers = sorted(
        e["value"] for e in d["entries"] if e["theorem"] == "oscillation_upper"
    )
    assert uppers[0] == pytest.approx(1.41328, abs=1e-3)
    assert uppers[1] == pytest.approx(1.44251, abs=1e-3)
    assert all("hypotheses" in e for e in d["entries"])
    assert d["empirical"] is None


def test_boxdim_json_payload(config_dir, tmp_path, capsys):
    code = main(
        ["boxdim", _cfg(config_dir, "degenerate_interval"),
         "--kmin", "4", "--kmax", "8", "--out", str(tmp_path)]
    )
    assert code == 0
    d = json.loads((tmp_path / "boxdim.json").read_text())
    assert d["slope"] == pytest.approx(1.0, abs=0.05)
    assert [e["k"] for e in d["entries"]] == [4, 5, 6, 7, 8]


def test_report_artifacts(config_dir, tmp_path, capsys):
    code = main(
        ["report", _cfg(config_dir, "degenerate_interval"), "--out",
         str(tmp_path), "--kmin", "4", "--kmax", "7"]
    )
    assert code == 0
    for fname in ("report.json", "graph.svg", "loglog.svg"):
        assert (tmp_path / fname).exists()
    svg = (tmp_path / "graph.svg").read_text()
    assert 'width="1000"' in svg and 'height="700"' in svg
    assert "<polyline" in svg


def test_report_gasket_scatter(config_dir, tmp_path, capsys):
    code = main(
        ["report", _cfg(config_dir, "sg_exact"), "--out", str(tmp_path),
         "--kmin", "3", "--kmax", "5", "--depth", "4"]
    )
    assert code == 0
    assert "<circle" in (tmp_path / "graph.svg").read_text()


def test_report_inconsistent_exit_4(config_dir, tmp_path, capsys):
    raw = json.loads((config_dir / "example5_case2.json").read_text())
    raw["analysis"] = {"gamma_pin": "1/5", "k_min": 4, "k_max": 7}
    p = tmp_path / "pinned.json"
    p.write_text(json.dumps(raw))
    assert main(["report", str(p), "--out", str(tmp_path)]) == 4
    assert "INCONSISTENT" in capsys.readouterr().out


def test_deterministic_outputs(config_dir, tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(
            ["bounds", _cfg(config_dir, "example5_case1_one"), "--out", str(out)]
        ) == 0
    assert (a / "bounds.json").read_bytes() == (b / "bounds.json").read_bytes()


def test_cli_rejects_unknown_command(config_dir):
    with pytest.raises(SystemExit):
        main(["frobnicate", _cfg(config_dir, "example5_case2")])
