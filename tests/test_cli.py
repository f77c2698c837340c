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


def test_one_version_source(config_dir):
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    import fifdim

    meta = tomllib.loads((config_dir.parent / "pyproject.toml").read_text())
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "fifdim.__version__" and fifdim.__version__


@pytest.mark.parametrize("command, field, value, path", [
    pytest.param("validate", "displacements", {"solve": "quadratic"},
                 "displacements.solve", id="solve-unknown-family"),
    pytest.param("validate", "displacements", {"solve": "solve"},
                 "displacements.solve", id="solve-string-solve"),
    pytest.param("validate", "displacements", {"solve": False},
                 "displacements.solve", id="solve-false"),
    pytest.param("validate", "displacements", {"solve": 1},
                 "displacements.solve", id="solve-number"),
    pytest.param("report", "analysis", {"k_min": "abc"}, "analysis.k_min",
                 id="k_min-string"),
    pytest.param("report", "analysis", {"k_max": 7.0}, "analysis.k_max",
                 id="k_max-float"),
    pytest.param("report", "analysis", {"k_min": True}, "analysis.k_min",
                 id="k_min-boolean"),
    pytest.param("report", "analysis", {"sample_depth": [1]},
                 "analysis.sample_depth", id="sample_depth-list"),
    pytest.param("sample", "analysis", {"sample_depth": "8"},
                 "analysis.sample_depth", id="sample_depth-string"),
    pytest.param("report", "analysis", {"kmin": 4}, "analysis.kmin",
                 id="unknown-analysis-field"),
    pytest.param("bounds", "analysis", {"gamma_pin": "3//2"},
                 "analysis.gamma_pin", id="gamma_pin-garbage"),
])
def test_config_field_errors_exit_1(config_dir, tmp_path, capsys, command,
                                    field, value, path):
    # each fails at config time with its field path, before any model work
    raw = json.loads((config_dir / "degenerate_interval.json").read_text())
    raw[field] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert main([command, str(p), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {path}: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_config_error_has_no_traceback(config_dir, tmp_path):
    import subprocess
    import sys

    raw = json.loads((config_dir / "degenerate_interval.json").read_text())
    raw["analysis"] = {"k_min": "abc"}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    run = subprocess.run(
        [sys.executable, "-m", "fifdim.cli", "report", str(p),
         "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=config_dir.parent,
        env={"PYTHONPATH": str(config_dir.parent / "src")},
    )
    assert run.returncode == 1
    assert run.stderr == 'config error at analysis.k_min: must be an integer, got "abc"\n'


@pytest.mark.parametrize("analysis, path", [
    pytest.param({"k_min": 1}, "analysis.k_min", id="k_min-1"),
    pytest.param({"k_max": 1}, "analysis.k_max", id="k_max-1"),
    pytest.param({"sample_depth": -1}, "analysis.sample_depth",
                 id="sample_depth-negative"),
    pytest.param({"k_min": 6, "k_max": 5}, "analysis.k_max",
                 id="k_max-below-k_min"),
])
def test_analysis_out_of_range_exit_1_before_any_file(config_dir, tmp_path,
                                                     capsys, analysis, path):
    # these used to end `fif report` with exit 2 and no field path, the
    # sample depth only after report.json was written
    raw = json.loads((config_dir / "degenerate_interval.json").read_text())
    raw["analysis"] = analysis
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["report", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {path}: must be >= ")
    assert err.count("\n") == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("analysis, flags, error", [
    pytest.param({}, ["--depth", "-1"], "--depth: must be >= 0, got -1",
                 id="depth-negative"),
    pytest.param({}, ["--kmin", "1"], "--kmin: must be >= 2, got 1",
                 id="kmin-1"),
    pytest.param({}, ["--kmin", "6", "--kmax", "5"],
                 "--kmax: must be >= --kmin = 6, got 5", id="kmax-below-kmin"),
    pytest.param({"k_min": 12}, [],
                 "analysis.k_min: must be <= the default k_max = 10, got 12",
                 id="k_min-above-default-k_max"),
])
def test_effective_window_checked_before_any_file(config_dir, tmp_path, capsys,
                                                  analysis, flags, error):
    # the flag, else the config, else the domain default; each of these
    # used to pass the config checks and end `fif report` with exit 2 and
    # no path, the negative depth only after report.json was written
    raw = json.loads((config_dir / "degenerate_interval.json").read_text())
    raw["analysis"] = analysis
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["report", str(p), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"config error at {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, name, domain, error", [
    pytest.param("validate", "sg_exact", {"level": 1.5},
                 "domain.level: must be an integer >= 1, got 1.5",
                 id="level-float"),
    pytest.param("validate", "sg_exact", {"level": True},
                 "domain.level: must be an integer >= 1, got true",
                 id="level-boolean"),
    pytest.param("report", "sg_exact", {"level": 0},
                 "domain.level: must be an integer >= 1, got 0", id="level-0"),
    pytest.param("report", "example5_case1_one", {"signature": [0, True, 0]},
                 "domain.signature: must be a list of integers 0 or 1, "
                 "got [0, true, 0]", id="bit-boolean"),
    pytest.param("report", "example5_case1_one", {"signature": [0, 1.0, 0]},
                 "domain.signature: must be a list of integers 0 or 1, "
                 "got [0, 1.0, 0]", id="bit-float"),
    pytest.param("report", "degenerate_interval", {"signature": [0, 2, 0]},
                 "domain.signature: must be a list of integers 0 or 1, "
                 "got [0, 2, 0]", id="bit-2"),
    pytest.param("report", "degenerate_cube", {"axes": [
        {"knots": ["0", "1/2", "1"], "signature": [0, 1]},
        {"knots": ["0", "1/2", "1"], "signature": [0, True]}]},
        "domain.axes[1].signature: must be a list of integers 0 or 1, "
        "got [0, true]", id="cube-bit-boolean"),
])
def test_domain_integers_checked_before_any_file(config_dir, tmp_path, capsys,
                                                 command, name, domain, error):
    # a JSON integer that is not a boolean, as the analysis integers; these
    # used to build a level-1 gasket, read true as 1, or fail at "domain"
    raw = json.loads((config_dir / f"{name}.json").read_text())
    raw["domain"].update(domain)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error at {error}\n"
    assert not out.exists()


def test_analysis_least_values_accepted(config_dir, tmp_path, capsys):
    # sample_depth 0 writes the interpolation nodes
    raw = json.loads((config_dir / "example5_case2.json").read_text())
    raw["analysis"] = {"k_min": 2, "k_max": 2, "sample_depth": 0}
    p = tmp_path / "edge.json"
    p.write_text(json.dumps(raw))
    assert main(["sample", str(p), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sample.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
