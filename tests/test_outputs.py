"""`fif report` on every bundled config against the benchmark's reference
fingerprints: the exit code and the report.json text, byte for byte."""

import json
import pathlib

import pytest

from conftest import CONFIG_NAMES
from fifdim.cli import main

REFS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"


@pytest.fixture(scope="module")
def report_refs():
    return json.loads(REFS.read_text())["report"]


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_report_json_matches_reference(name, report_refs, config_dir,
                                       tmp_path, monkeypatch, capsys):
    # the references were captured at the default cell budget
    monkeypatch.delenv("FIF_CELL_BUDGET", raising=False)
    code = main(["report", str(config_dir / f"{name}.json"),
                 "--out", str(tmp_path)])
    ref = report_refs[name]
    assert code == ref["exit"]
    assert (tmp_path / "report.json").read_text() == ref["report_json"]
