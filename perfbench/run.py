"""fifdim benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload report|deep|oscillation|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a
fresh worker process (worker.py), one at a time; passes repeat until the
next one would end after ``--seconds``.  Pass i starts its set-up and
its operations at index ``seed + i`` of the workload's lists and goes
round, so successive passes cover every rotation of the order.

The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it give the same
metrics as ``<workload> <name> <value> <unit>`` plus the environment.
``setup_s`` and ``run_s`` are each pass's times rescaled to the speed of
a reference probe kernel sampled through the pass (see worker.Probe), so
that the shared host's drifting throughput cancels out.
With ``--trace 1`` passes alternate untraced and traced, and the metrics
are the per-layer ones (medians of the traced passes) plus the tracing
overhead.  Exits 2 without a result when the checkout has no fifdim
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("report", "deep", "oscillation")
DEADLINE_S = 170  # every run must have exited within 180 s
# mean time of one worker.Probe repetition on the reference machine (see
# README); setup_s and run_s are reported at this probe speed
PROBE_REF_S = 0.02


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "fifdim").rglob("*.py")))


def run_worker(workload, rotate, traced, result, deadline, only, refs):
    """One pass in a fresh process; a crash counts all its ops as failed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--rotate", str(rotate), "--trace", str(int(traced)),
           "--result", str(result)]
    if only:
        cmd += ["--only", only]
    if refs:
        cmd += ["--refs", str(refs)]
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        err = (f"exit code {proc.returncode}\n{proc.stderr}"
               if proc.returncode else "")
    except subprocess.TimeoutExpired:
        err = "pass timed out"
    if not err and result.exists():
        return json.loads(result.read_text())
    sys.stderr.write(f"{workload} pass failed:\n{err[-2000:]}\n")
    return {"crashed": True}


def run_workload(workload, seed, seconds, trace, only=None, refs=None):
    """Run passes for ``seconds``; return (passes, traced passes)."""
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else 2  # a median of two passes at least
    plain, traced, rounds = [], [], []
    while True:
        t0 = time.monotonic()
        for mode in modes:
            kind = "traced" if mode else "plain"
            result = OUT / f"{workload}-{kind}-{len(rounds)}.json"
            res = run_worker(workload, seed + len(rounds), mode, result,
                             deadline, only, refs)
            (traced if mode else plain).append(res)
        rounds.append(time.monotonic() - t0)
        if (len(rounds) >= min_rounds
                and time.monotonic() - start + statistics.median(rounds)
                > seconds):
            return plain, traced


def summarize(workload, plain, traced):
    """(metrics, extra lines, attempted, failed) of a workload's passes."""
    good = [r for r in plain if "crashed" not in r]
    if not good:
        return None, {}, 0, 0
    attempted = failed = 0
    for res in plain + traced:
        if "crashed" in res:  # every op of the pass counts as failed
            res["attempted"] = res["failed"] = good[0]["attempted"]
        attempted += res["attempted"]
        failed += res["failed"]
        for msg in res.get("failures", []):
            sys.stderr.write(f"{workload}: {msg}\n")

    def med(key, passes=good):
        return statistics.median(r[key] for r in passes)

    def med_scaled(key):
        """Median over passes of a time rescaled to the reference probe."""
        return statistics.median(
            r[key] * PROBE_REF_S / statistics.fmean(r["probe_s"])
            for r in good)

    if not traced:
        metrics = {
            "setup_s": (med_scaled("setup_s"), "s"),
            "run_s": (med_scaled("run_s"), "s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
            "pass_rate": ((attempted - failed) / attempted, "fraction"),
        }
        extra = {
            "fail_rate": (failed / attempted, "fraction"),
            "setup_s_unscaled": (med("setup_s"), "s"),
            "run_s_unscaled": (med("run_s"), "s"),
            "probe_ms": (1e3 * statistics.median(
                statistics.fmean(r["probe_s"]) for r in good), "ms"),
            "passes": (len(good), "count"),
        }
        return metrics, extra, attempted, failed

    import tracer

    layered = [r for r in traced if "crashed" not in r]
    if not layered:
        return None, {}, attempted, failed
    metrics = {}
    for name, (stat, _) in tracer.LAYER_METRICS.items():
        value = statistics.median(r["layers"][name] for r in layered)
        metrics[name] = (value, tracer.UNITS[stat])
    metrics["src.lines"] = (src_lines(), "lines")
    plain_run, traced_run = med("run_s"), med("run_s", layered)
    metrics["trace.untraced_run_s"] = (plain_run, "s")
    metrics["trace.run_s"] = (traced_run, "s")
    metrics["trace.overhead_s"] = (traced_run - plain_run, "s")
    metrics["trace.run_self_s"] = (
        statistics.median(r["layers"]["run_self_s"] for r in layered), "s")
    return metrics, {}, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--only", help="limit the workload to one config")
    ap.add_argument("--refs", type=Path, help="reference file to check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fifdim" / "__init__.py").is_file() or not (
            ROOT / "configs").is_dir():
        sys.stderr.write(f"no fifdim sources or configs under {ROOT}\n")
        return 2

    sys.path.insert(0, str(BENCH))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    everything, attempted, failed, env = {}, 0, 0, None
    for name in names:
        plain, traced = run_workload(name, args.seed, args.seconds,
                                     args.trace, args.only, args.refs)
        metrics, extra, n, bad = summarize(name, plain, traced)
        attempted += n
        failed += bad
        if metrics is None:
            sys.stderr.write(f"{name}: no pass completed\n")
            return 1
        if env is None:
            env = next(r for r in plain if "crashed" not in r)
            print(f"# env python={env['python']} numpy={env['numpy']} "
                  f"nproc={os.cpu_count()} src.lines={src_lines()}")
        for metric, (value, unit) in {**metrics, **extra}.items():
            print(f"{name} {metric} {value} {unit}")
        prefix = f"{name}." if len(names) > 1 else ""
        everything.update({prefix + m: {"value": v, "unit": u}
                           for m, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": everything}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
