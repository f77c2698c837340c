"""Self-test of the benchmark harness on the smallest config.

Runs ``run.py`` on the ``report`` workload limited to
``degenerate_interval`` (a fraction of a second per pass), untraced and
traced, and once against a deliberately corrupted reference.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(*extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "report",
         "--only", "degenerate_interval", "--seed", "0", "--seconds", "1",
         *extra],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    return lines, json.loads(last)


def _printed(lines, name):
    """(value, unit) of the human-readable line for metric ``name``."""
    for line in lines:
        if line.startswith("#"):
            continue
        workload, metric, value, unit = line.split()
        if (workload, metric) == ("report", name):
            return float(value), unit
    raise AssertionError(f"{name} not printed")


def test_end_to_end_metrics_printed_with_units():
    lines, result = _run("--trace", "0")
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert _printed(lines, m["name"])[1] == m["unit"]
    assert _printed(lines, "fail_rate") == (0.0, "fraction")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2


def test_corrupted_reference_gives_failures(tmp_path):
    refs = json.loads((BENCH / "refs.json").read_text())
    refs["report"]["degenerate_interval"]["report_json"] += " "
    corrupted = tmp_path / "refs.json"
    corrupted.write_text(json.dumps(refs))
    lines, result = _run("--trace", "0", "--refs", str(corrupted))
    assert _printed(lines, "fail_rate")[0] > 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_traced_run_prints_every_layer_metric():
    lines, result = _run("--trace", "1")
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.self_s"] > 0
    assert metrics["dimension.empirical_dimension.cells"] == 3 ** 12 * 2
