"""CLI: exit codes, artifact files, deterministic output."""

import contextlib
import copy
import io
import json

import pytest

from fifdim.cli import main
from fifdim.domains import gasket_domain, product_domain, vertex_set


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


def test_spacing_below_the_resolution_exit_2(tmp_path, config_dir, capsys):
    # V_4 of these knots is 1e-12 apart, below the point resolution; the
    # key dedup refused it with exit 2, addresses give V_5 its 3^5 + 1 rows
    raw = json.loads((config_dir / "degenerate_interval.json").read_text())
    raw["domain"]["knots"] = ["0", "1/1000", "1/2", "1"]
    for entry, x in zip(raw["data"], raw["domain"]["knots"]):
        entry["point"] = [x]
    raw["analysis"] = {"sample_depth": 5}
    p = tmp_path / "fine.json"
    p.write_text(json.dumps(raw))
    assert main(["sample", str(p), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sample.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3**5 + 1


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


def _at_the_defaults(config_dir, tmp_path, n, m=0):
    """A config with no analysis block on a gasket of level n (m = 0), or
    on m axes of n equal pieces of alternating signature, and its domain.
    Its data is 1 at the origin and 0 elsewhere on V_1, its scales 1/2 (0
    on a cube, whose faces join up only so)."""
    if m == 0:
        raw = json.loads((config_dir / "sg_exact.json").read_text())
        d = gasket_domain(raw["domain"]["vertices"], n)
        raw["domain"]["level"] = n
        del raw["analysis"]
    else:
        axis = {"knots": [f"{i}/{n}" for i in range(n + 1)],
                "signature": [j % 2 for j in range(n)]}
        d = product_domain([([i / n for i in range(n + 1)], axis["signature"])] * m)
        raw = {"domain": {"kind": "interval", **axis} if m == 1
               else {"kind": "cube", "axes": [axis] * m},
               "displacements": {"solve": "multilinear"}, "eta": 1}
    raw["data"] = [{"point": p.tolist(), "value": float(not p.any())}
                   for p in vertex_set(d, 1)]
    raw["scales"] = ["0" if m > 1 else "1/2"] * d.N
    p = tmp_path / "generated.json"
    p.write_text(json.dumps(raw))
    return str(p), d


def test_report_gasket_level_2_at_the_defaults(config_dir, tmp_path, capsys):
    # the defaults were level 1's (window 4..8, kmax 12) at every level:
    # with N = 9 the graph sample at depth 8 passed the cell budget (exit 3);
    # then the constant sample_depth 6 wrote 9^6 x 3 slots to graph.svg
    p, d = _at_the_defaults(config_dir, tmp_path, 2)
    assert main(["report", p, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["k"] for e in report["empirical"]["entries"]] == [2, 3, 4]
    assert main(["sample", p, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sample.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == len(vertex_set(d, 3))  # sample_depth 3


@pytest.mark.parametrize("n, m, window", [
    pytest.param(2, 1, (6, 16), id="interval-2"),
    pytest.param(3, 1, (4, 10), id="interval-3"),
    pytest.param(4, 1, (3, 8), id="interval-4"),
    pytest.param(5, 1, (3, 7), id="interval-5"),
    pytest.param(2, 2, (3, 7), id="cube-2x2"),
    pytest.param(3, 2, (2, 4), id="cube-3x3"),
    pytest.param(4, 2, (2, 3), id="cube-4x4"),
    pytest.param(2, 3, (2, 4), id="cube-2x2x2"),
    pytest.param(1, 0, (4, 9), id="gasket-1"),
    pytest.param(3, 0, (2, 3), id="gasket-3"),
    pytest.param(4, 0, (2, 3), id="gasket-4"),
])
def test_report_at_the_defaults(config_dir, tmp_path, capsys, n, m, window):
    # the fixed defaults, window (4, 10) or (3, 7) with sample_depth 6 on
    # every interval or cube, exited 3 on the 5-piece interval and on the
    # 3 x 3, 4 x 4 and 2 x 2 x 2 cubes, and sample_depth 6 on gaskets of
    # level 3 and 4; the defaults now follow N and |V_0|
    p, d = _at_the_defaults(config_dir, tmp_path, n, m)
    assert main(["report", p, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["k"] for e in report["empirical"]["entries"]] == list(
        range(window[0], window[1] + 1))


def test_report_gasket_level_5_no_window_fits(config_dir, tmp_path, capsys):
    # the least window 2..3 needs 243^3 x 3 slots: exit 3 at config time
    # (it was exit 3 from the witness search, with no field path)
    p, _ = _at_the_defaults(config_dir, tmp_path, 5)
    out = tmp_path / "out"
    for flags in ([], ["--kmin", "2"]):
        assert main(["report", p, "--out", str(out), *flags]) == 3
        assert capsys.readouterr().err == (
            "error: the default k_max: window 2..3 needs 243^3 x 3 = 43,046,721 "
            "vertex slots, over the budget 10,000,000\n")
        assert not out.exists()
    # a given k_max meets the run-time budget, which FIF_CELL_BUDGET sets
    assert main(["report", p, "--out", str(out), "--kmax", "3"]) == 3
    assert "the default k_max" not in capsys.readouterr().err


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
    pytest.param("bounds", "analysis", {"gamma_pin": -1},
                 "analysis.gamma_pin", id="gamma_pin-negative"),
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
                 "--kmax: must be >= --kmin + 1 = 7, got 5", id="kmax-below-kmin"),
    # a window of one level fitted one point, a made-up slope (exit 4 on
    # sg_exact at 4..4)
    pytest.param({}, ["--kmin", "4", "--kmax", "4"],
                 "--kmax: must be >= --kmin + 1 = 5, got 4", id="kmax-equal-kmin"),
    pytest.param({"k_min": 10}, [],
                 "analysis.k_min: must be <= the default k_max - 1 = 9, got 10",
                 id="k_min-at-default-k_max"),
    pytest.param({"k_min": 12}, [],
                 "analysis.k_min: must be <= the default k_max - 1 = 9, got 12",
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


@pytest.mark.parametrize("flags", [["--kmax", "13"], ["--kmin", "4"]],
                         ids=["kmax-13", "kmin-4"])
def test_a_flag_makes_the_config_window_valid(config_dir, tmp_path, capsys,
                                              flags):
    # k_min 11 is over the default k_max 10, but either flag gives a valid
    # window: the config is checked with the flags, not alone at load time
    raw = json.loads((config_dir / "degenerate_interval.json").read_text())
    raw["analysis"] = {"k_min": 11, "sample_depth": 4}
    p = tmp_path / "window.json"
    p.write_text(json.dumps(raw))
    assert main(["boxdim", str(p), "--out", str(tmp_path), *flags]) == 0
    assert capsys.readouterr().err == ""


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
    raw["analysis"] = {"k_min": 2, "k_max": 3, "sample_depth": 0}
    p = tmp_path / "edge.json"
    p.write_text(json.dumps(raw))
    assert main(["sample", str(p), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sample.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4


def _edited(config_dir, tmp_path, name, edit):
    """A bundled config with ``edit`` applied to its JSON, as a file."""
    raw = json.loads((config_dir / f"{name}.json").read_text())
    edit(raw)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(raw))
    return str(p)


def _assert_config_error_at(path, args, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {path}: "), err
    assert "Traceback" not in err and not out.exists()


def _set(*keys_value):
    """An edit that sets raw[k1][k2]... to the last argument."""
    *keys, value = keys_value

    def edit(raw):
        for k in keys[:-1]:
            raw = raw[k]
        raw[keys[-1]] = value
    return edit


def _drop(*keys):
    """An edit that deletes raw[k1][k2]..."""
    def edit(raw):
        for k in keys[:-1]:
            raw = raw[k]
        del raw[keys[-1]]
    return edit


Q0 = ("displacements", 0)  # {"expr": "x1^0.8/2", "facts": {...}} in example5_case2


@pytest.mark.parametrize("edit, path", [
    pytest.param(_set("scales", 0, "x1/4"), "scales[0].facts.eta", id="no-facts"),
    pytest.param(_drop(*Q0, "facts", "H"), "displacements[0].facts.H", id="no-H"),
    pytest.param(_drop(*Q0, "facts", "eta"), "displacements[0].facts.eta",
                 id="no-eta"),
    pytest.param(_set(*Q0, "expr", 0), "displacements[0].expr", id="expr-0"),
    pytest.param(_set(*Q0, "expr", [1]), "displacements[0].expr", id="expr-list"),
    pytest.param(_set(*Q0, "expr", {"a": 1}), "displacements[0].expr",
                 id="expr-object"),
    pytest.param(_set(*Q0, "expr", "x2/2"), "displacements[0].expr",
                 id="variable-beyond-m"),
    pytest.param(_set("scales", 0, "1e400"), "scales[0].expr",
                 id="literal-overflow"),
    pytest.param(_set(*Q0, "expr", "x1^."), "displacements[0].expr",
                 id="literal-dot"),
    pytest.param(_set("scales", 0, ".e3"), "scales[0].expr",
                 id="literal-dot-exponent"),
    pytest.param(_set("scales", 1, "x1\u00b2"), "scales[1].expr",
                 id="superscript-digit"),
    pytest.param(_set("scales", 0, "(" * 250 + "1/4" + ")" * 250), "scales[0].expr",
                 id="parentheses-too-deep"),
    pytest.param(_set("scales", 0, "-" * 1000 + "1/4"), "scales[0].expr",
                 id="minus-signs-too-deep"),
    pytest.param(_set("scales", 0, " + ".join(["x1/10000"] * 1000)),
                 "scales[0].expr", id="sum-too-deep"),
    pytest.param(_set("scales", 0, "x1/1e200^2"), "scales[0].expr",
                 id="divisor-overflow"),
    pytest.param(_set(*Q0, "facts", "concave", [5]),
                 "displacements[0].facts.concave", id="axis-beyond-m"),
    pytest.param(_set(*Q0, "facts", "concave", [1.0]),
                 "displacements[0].facts.concave", id="axis-float"),
    pytest.param(_set(*Q0, "facts", "concave", "1"),
                 "displacements[0].facts.concave", id="axes-string"),
    pytest.param(_set(*Q0, "facts", "concave", [0]),
                 "displacements[0].facts.concave", id="axis-0"),
    pytest.param(_set(*Q0, "facts", "concave", [True]),
                 "displacements[0].facts.concave", id="axis-boolean"),
    pytest.param(_set(*Q0, "facts", "constant", "no"),
                 "displacements[0].facts.constant", id="constant-string"),
    pytest.param(_set(*Q0, "facts", "H", "-1/2"), "displacements[0].facts.H",
                 id="H-negative"),
])
def test_expression_and_fact_errors_exit_1(config_dir, tmp_path, capsys, edit,
                                           path):
    # each of these ended in a traceback or passed silently
    p = _edited(config_dir, tmp_path, "example5_case2", edit)
    _assert_config_error_at(path, ["report", p], tmp_path, capsys)


@pytest.mark.parametrize("name, family", [("degenerate_cube", "affine"),
                                          ("sg_exact", "multilinear")])
def test_a_family_that_does_not_fit_v0_exits_1(config_dir, tmp_path, capsys, name,
                                               family):
    # build_model refused it with exit 2 and no field path
    p = _edited(config_dir, tmp_path, name, _set("displacements", {"solve": family}))
    assert main(["validate", p]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error at displacements.solve: family {family!r} has ")


def test_declared_constant_needs_no_holder_facts(config_dir, tmp_path):
    # bounds and report read the constant's value, which a declared
    # constant with variables did not have (a TypeError traceback)
    p = _edited(config_dir, tmp_path, "example5_case2", _set(
        "scales", 0, {"expr": "x1/4 - x1/4 + 1/4", "facts": {"constant": True}}))
    assert main(["validate", p]) == 0
    for command in ("bounds", "report"):
        assert main([command, p, "--out", str(tmp_path / command)]) == 0
    assert main(["bounds", _cfg(config_dir, "example5_case2"),
                 "--out", str(tmp_path / "bundled")]) == 0
    bounds = [json.loads((tmp_path / at / "bounds.json").read_text())
              for at in ("bounds", "bundled")]
    assert bounds[0] == bounds[1]  # as the bundled scale "1/4"


def _close_knots(axis):
    """An edit that makes the second knot of ``axis`` (None: the interval)
    1e-11 and moves the data on the old knot there."""
    def edit(raw):
        at = raw["domain"] if axis is None else raw["domain"]["axes"][axis]
        old, at["knots"][1] = at["knots"][1], "1/100000000000"
        coord = axis or 0
        for entry in raw["data"]:
            if entry["point"][coord] == old:
                entry["point"][coord] = at["knots"][1]
    return edit


@pytest.mark.parametrize("name, axis, path", [
    ("degenerate_interval", None, "domain.knots"),
    ("degenerate_cube", 1, "domain.axes[1].knots"),
])
def test_knots_closer_than_the_resolution_exit_1(config_dir, tmp_path, capsys,
                                                 name, axis, path):
    # V_1 merged the two close knots, and the error read "data[1].point:
    # repeats the point of data[0]"
    p = _edited(config_dir, tmp_path, name, _close_knots(axis))
    _assert_config_error_at(path, ["report", p], tmp_path, capsys)


def _validates(tmp_path, knots, signature):
    """Whether ``fif validate`` passes the interval with data on its knots."""
    raw = {"domain": {"kind": "interval", "knots": knots, "signature": signature},
           "data": [{"point": [x], "value": v}
                    for x, v in zip(knots, ["0", "1/2", "1/3", "0"])],
           "scales": ["3/10"] * 3, "displacements": {"solve": True}, "eta": 1}
    p = tmp_path / "far.json"
    p.write_text(json.dumps(raw))
    return main(["validate", str(p)]) == 0


def test_far_interval_validates(tmp_path, capsys):
    # the last knot's copy in V_1 is 1 ulp off it, across a point key's
    # edge: "config error at data[3].point: not a node of V"
    assert _validates(tmp_path, ["-43707.71713613646", "-43707.24349083011",
                                 "-43707.00294955704", "-43706.04385109855"],
                      [1, 1, 1])


def test_far_interval_keeps_one_copy_of_each_knot(tmp_path, capsys):
    # the key dedup kept a second copy of a knot, 1 ulp off it, in V_1:
    # "config error at data: no value at (-121343.26965801668,)"
    assert _validates(tmp_path, ["-121344.30409115051", "-121344.04183236376",
                                 "-121343.26965801667", "-121342.49265694013"],
                      [1, 0, 1])


@pytest.mark.parametrize("edit, path", [
    pytest.param(_set("data", 1, "point", ["1/2"]), "data[1].point",
                 id="point-off-V"),
    pytest.param(_set("data", 2, "point", ["1/3"]), "data[2].point",
                 id="point-twice"),
    pytest.param(_set("data", 1, "point", ["1/3", "0"]), "data[1].point",
                 id="point-wrong-length"),
    pytest.param(_drop("data", 1), "data", id="node-without-value"),
    pytest.param(_set("data", 1, "value", float("nan")), "data[1].value",
                 id="value-NaN"),
    pytest.param(_set("data", 1, "value", "1e400"), "data[1].value",
                 id="value-overflow"),
    pytest.param(_set("eta", "1e400"), "eta", id="eta-overflow"),
])
def test_data_errors_exit_1(config_dir, tmp_path, capsys, edit, path):
    # data off V was ignored and a repeated point's last value won; a
    # missing node ended in exit 2 with no path, "1e400" in a traceback
    p = _edited(config_dir, tmp_path, "example5_case2", edit)
    _assert_config_error_at(path, ["report", p], tmp_path, capsys)


@pytest.mark.parametrize("name, edit, path", [
    pytest.param("degenerate_interval", _set("domain", "signature", [0, 0]),
                 "domain.signature", id="signature-length"),
    pytest.param("degenerate_interval",
                 _set("domain", "knots", ["0", "2/3", "1/3", "1"]),
                 "domain.knots", id="knots-not-increasing"),
    pytest.param("degenerate_interval", _set("domain", "knots", ["0"]),
                 "domain.knots", id="one-knot"),
    pytest.param("degenerate_cube",
                 _set("domain", "axes", 1, "knots", ["0", "1", "1/2"]),
                 "domain.axes[1].knots", id="cube-knots"),
    pytest.param("degenerate_cube",
                 _set("domain", "axes", 0, "signature", [0, 1, 0]),
                 "domain.axes[0].signature", id="cube-signature-length"),
    pytest.param("sg_exact", _set("domain", "vertices", 2, [0.5, 0.5]),
                 "domain.vertices", id="not-equilateral"),
    pytest.param("sg_exact", _drop("domain", "vertices", 2),
                 "domain.vertices", id="two-vertices"),
])
def test_domain_errors_at_their_field(config_dir, tmp_path, capsys, name, edit,
                                      path):
    # these were all reported at the bare path "domain"
    p = _edited(config_dir, tmp_path, name, edit)
    _assert_config_error_at(path, ["report", p], tmp_path, capsys)


JUNK = [None, True, 1.5, -1, 0, "abc", "1/0", "1e400", ".e3", "x1\u00b2", [], {},
        [1], ["x"], {"a": 1}, "(" * 250 + "1" + ")" * 250, "-" * 1000 + "1",
        " + ".join(["x1/10000"] * 1000), "x1/1e-310"]


def _field_paths(obj, prefix=()):
    """Every key and index path of a JSON value, containers included."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


@pytest.mark.parametrize("name", ["example5_case1_sin", "sg_exact",
                                  "degenerate_cube"])
def test_validate_survives_every_junk_field(config_dir, tmp_path, name):
    # one field of a bundled config (one per domain kind) set to junk: the
    # parent of this test reached 9 distinct uncaught exceptions this way
    raw = json.loads((config_dir / f"{name}.json").read_text())
    p = tmp_path / "junk.json"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for keys in list(_field_paths(raw)):
            for junk in JUNK:
                edited = copy.deepcopy(raw)
                _set(*keys, junk)(edited)
                p.write_text(json.dumps(edited))
                assert main(["validate", str(p)]) in (0, 1, 2), (keys, junk)


# a valid 2-piece interval whose level-k cells are too coarse for the
# box count at its default window: the long piece has ratio 9/10
COARSE = {"domain": {"kind": "interval", "knots": ["0", "9/10", "1"]},
          "data": [{"point": ["0"], "value": "0"},
                   {"point": ["9/10"], "value": "1/2"},
                   {"point": ["1"], "value": "0"}],
          "scales": ["1/2", "1/2"], "displacements": {"solve": True}, "eta": 1}


@pytest.mark.parametrize("command", ["boxdim", "report"])
def test_cells_too_coarse_exit_2(tmp_path, capsys, command):
    # it ended in a ValueError traceback, with the config-error exit code
    p = tmp_path / "coarse.json"
    p.write_text(json.dumps(COARSE))
    assert main(["validate", str(p)]) == 0
    capsys.readouterr()
    assert main([command, str(p), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: cells too coarse for this delta; refine the sample\n")


NAN = " + 0*(1e200*1e200)"  # 1e200 * 1e200 overflows to inf, 0 * inf is nan


@pytest.mark.parametrize("edit, where", [
    (_set("scales", 0, "1/4" + NAN), "s_1"),
    (_set("displacements", 2, "expr", "1/3 - x1/3" + NAN), "q_3")],
    ids=["s_1", "q_3"])
@pytest.mark.parametrize("command", ["validate", "bounds", "report"])
def test_non_finite_map_exit_2(config_dir, tmp_path, capsys, edit, where,
                               command):
    # validate passed with a nan residual or bracket, or dropped the nan
    # map from both; bounds and report ended in a traceback from box_count
    p = _edited(config_dir, tmp_path, "example5_case2", edit)
    assert main([command, p, "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    message = f"{where} is not finite on its bracket grid\n"
    assert (out.out if command == "validate" else out.err).endswith(message)
    assert "Traceback" not in out.err
