"""Record one benchmark run of this checkout as BENCH_<pr>.json.

    python3 scripts/bench_record.py <pr>

Runs ``python3 perfbench/run.py --workload all --seconds 10`` at the root
of the checkout and writes the run's last line, its JSON result, to
BENCH_<pr>.json there, with three fields added: ``src_lines`` (the line
count of src/fifdim/*.py, as ``wc -l`` totals it), ``git_describe``
(``git describe --always --dirty``) and ``note``, the known bias of
``run_s``.  Exits with the benchmark's exit code if it fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ["python3", "perfbench/run.py", "--workload", "all", "--seconds", "10"]
NOTE = ("run_s is rescaled by a probe kernel timed in the same process, and "
        "the probe runs faster when the measured code allocates less, so a "
        "change that allocates less reads about 2% slower in run_s")


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        sys.stderr.write(__doc__)
        return 2
    run = subprocess.run(BENCH, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if run.returncode:
        return run.returncode
    record = json.loads(run.stdout.strip().splitlines()[-1])
    record["src_lines"] = sum(p.read_bytes().count(b"\n")
                              for p in (ROOT / "src" / "fifdim").glob("*.py"))
    record["git_describe"] = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
        text=True, check=True).stdout.strip()
    record["note"] = NOTE
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
