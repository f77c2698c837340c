"""CLI outputs of every bundled config against reference fingerprints:
`fif report`'s exit code and report.json text (the benchmark's
references), and the sha256 of its graph.svg and loglog.svg, of
`fif bounds`'s bounds.json and of `fif sample`'s sample.csv
(tests/output_sha256.json), byte for byte.  sample.csv guards the point
identity resolution and the order of V_k."""

import hashlib
import json
import pathlib

import pytest

from conftest import CONFIG_NAMES
from fifdim.cli import main

HERE = pathlib.Path(__file__).resolve().parent
REFS = HERE.parent / "perfbench" / "refs.json"
HASHES = HERE / "output_sha256.json"


@pytest.fixture(scope="module")
def report_refs():
    return json.loads(REFS.read_text())["report"]


@pytest.fixture(scope="module")
def output_hashes():
    return json.loads(HASHES.read_text())


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_report_json_matches_reference(name, report_refs, output_hashes,
                                       config_dir, tmp_path, monkeypatch,
                                       capsys):
    # the references were captured at the default cell budget
    monkeypatch.delenv("FIF_CELL_BUDGET", raising=False)
    code = main(["report", str(config_dir / f"{name}.json"),
                 "--out", str(tmp_path)])
    ref = report_refs[name]
    assert code == ref["exit"]
    assert (tmp_path / "report.json").read_text() == ref["report_json"]
    for chart in ("graph.svg", "loglog.svg"):
        assert _sha256(tmp_path / chart) == output_hashes[name][chart], chart


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_bounds_json_matches_reference(name, output_hashes, config_dir,
                                       tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FIF_CELL_BUDGET", raising=False)
    code = main(["bounds", str(config_dir / f"{name}.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert (_sha256(tmp_path / "bounds.json")
            == output_hashes[name]["bounds.json"])


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_sample_csv_matches_reference(name, output_hashes, config_dir,
                                      tmp_path, capsys):
    code = main(["sample", str(config_dir / f"{name}.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert (_sha256(tmp_path / "sample.csv")
            == output_hashes[name]["sample.csv"])
