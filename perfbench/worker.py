"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --rotate N --trace 0|1 \
        --result PATH [--only CONFIG] [--refs PATH]
    python3 perfbench/worker.py --capture PATH

A pass sets up the workload's models (``config.load_config`` plus
``engine.build_model``) and runs its operations one after another,
starting at the one ``--rotate`` picks and going round the list.  It
checks every output against the reference fingerprints and writes its
timings to ``--result`` as JSON.  With ``--trace 1`` every public fifdim
function is wrapped (see tracer.py) and the spans go to
``<result>.spans.json``.  ``--capture`` writes the fingerprints of every
workload instead, which is how ``refs.json`` was made.
"""

from __future__ import annotations

import os

# pinned before numpy is imported: one thread for every BLAS and OpenMP pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fifdim import cli, config, dimension, engine, oscillation  # noqa: E402

CONFIGS = ROOT / "configs"
OUT = BENCH / "out"

# FIF_CELL_BUDGET per workload; None leaves the library default (10^7).
# The deep references hold only at this budget: a different one changes
# the refinement depth empirical_dimension can afford.
BUDGET = {"report": None, "deep": 30_000_000, "oscillation": None}

REPORT_CONFIGS = ["example5_case1_one", "example5_case1_sin", "example5_case2",
                  "sg_exact", "degenerate_interval", "degenerate_cube"]
DEEP_CONFIGS = ["example5_case2", "example5_case1_one", "sg_exact"]
OSC_CONFIGS = ["example5_case2", "example5_case1_sin", "degenerate_cube"]


# --------------------------------------------------------------------------
# fingerprints: what the reference check compares, computed outside timing


def _estimate_print(est) -> dict:
    return {"entries": [[k, repr(d), c] for k, d, c in est.entries],
            "slope": repr(est.slope)}


def _vk_print(result) -> dict:
    pts, vals = result
    digest = hashlib.sha256(np.ascontiguousarray(pts).tobytes())
    digest.update(np.ascontiguousarray(vals).tobytes())
    return {"count": int(len(vals)), "sha256": digest.hexdigest()}


# --------------------------------------------------------------------------
# workloads: each op is (config it needs, label, call(models), fingerprint)


def _report_op(name):
    out = OUT / "report" / name

    def call(_models):
        shutil.rmtree(out, ignore_errors=True)
        return cli.main(["report", str(CONFIGS / f"{name}.json"),
                         "--out", str(out)])

    def fingerprint(code):
        path = out / "report.json"
        text = path.read_text() if path.exists() else None
        return {"exit": code, "report_json": text}

    return name, name, call, fingerprint


def _seminorm_op(name):
    def call(models):
        model = models[name]
        return oscillation.seminorm(model, min(1, model.eta))

    return name, f"seminorm:{name}", call, lambda v: {"repr": repr(v)}


# (configs built during setup, ops); `fif report` builds inside cli.main
WORKLOADS = {
    "report": ([], [_report_op(n) for n in REPORT_CONFIGS]),
    "deep": (DEEP_CONFIGS, [
        ("example5_case2", "empirical_dimension:example5_case2:7:13",
         lambda ms: dimension.empirical_dimension(ms["example5_case2"], 7, 13),
         _estimate_print),
        ("example5_case1_one", "empirical_dimension:example5_case1_one:5:11",
         lambda ms: dimension.empirical_dimension(
             ms["example5_case1_one"], 5, 11),
         _estimate_print),
        ("sg_exact", "evaluate_on_vk:sg_exact:12",
         lambda ms: engine.evaluate_on_vk(ms["sg_exact"], 12),
         _vk_print),
    ]),
    "oscillation": (OSC_CONFIGS, [_seminorm_op(n) for n in OSC_CONFIGS]),
}


def workload_ops(workload: str, only: str | None = None):
    """Setup configs and ops of a workload, optionally of one config only."""
    setup, ops = WORKLOADS[workload]
    if only is not None:
        ops = [op for op in ops if op[0] == only]
        if not ops:
            raise SystemExit(f"{only!r} is not a config of {workload!r}")
        setup = [n for n in setup if n == only]
    return setup, ops


def _pin_budget(workload: str) -> None:
    budget = BUDGET[workload]
    if budget is None:
        os.environ.pop("FIF_CELL_BUDGET", None)
    else:
        os.environ["FIF_CELL_BUDGET"] = str(budget)


# --------------------------------------------------------------------------
# one pass


class Probe:
    """A fixed reference kernel, sampled all through an untraced pass.

    A wall-clock timer interrupts the pass every ``INTERVAL_S`` and runs
    one repetition of the kernel, about 25 ms of the kinds of work the
    workloads do: a pure-Python loop, small-array numpy arithmetic and a
    list of small arrays (as in the bracket sampling), a streaming pass
    over 8 MB, a sort, a random gather from 16 MB, and first touches of
    4 MB of fresh pages (page faults take up to a third of some passes).
    It runs no fifdim code, so no change to the library moves its time;
    only the machine does.  ``clock`` leaves out the time spent in the kernel, and run.py
    divides the pass's times by the kernel's mean time, which takes out
    most of the drift of a shared host's throughput.

    The handler runs between Python bytecodes, so a long numpy call
    delays the next sample until it returns.
    """

    INTERVAL_S = 0.35

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random(1_000_000)
        self._b = rng.random(2_000_000)
        self._idx = rng.permutation(2_000_000)[:200_000].astype(np.int32)
        self._v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254]])
        self.times: list[float] = []
        self.total = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(30_000):
            s += i * i
        v = self._v
        for i in range(500):
            (i * v[0] + 2 * v[1] + 3 * v[2]) / 7
        np.asarray([i * v[0] + v[1] for i in range(2000)])
        (self._a * 1.0001).sum()
        np.sort(self._a[:100_000])
        self._b[self._idx].sum()
        page = mmap.mmap(-1, 4 << 20)  # fresh pages: 1024 first-touch faults
        np.frombuffer(page, np.uint8)[::4096] = 1
        page.close()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.total += dt

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def clock(self) -> float:
        """perf_counter minus the time spent sampling so far."""
        while True:
            before = self.total
            now = time.perf_counter()
            if self.total == before:  # no sample ran in between
                return now - before


class SetupTimer:
    """Accumulates time spent in load_config and build_model.

    ``fif report`` loads and builds inside ``cli.main``, so the cli's
    names are wrapped to split its time into setup and run.
    """

    def __init__(self, clock):
        self.clock = clock
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += self.clock() - t0

        return timed


def _rotated(items: list, n: int) -> list:
    n %= len(items) or 1
    return items[n:] + items[:n]


def run_pass(workload, rotate, trace, refs, only=None) -> dict:
    _pin_budget(workload)
    setup_names, ops = workload_ops(workload, only)
    setup_names, ops = _rotated(setup_names, rotate), _rotated(ops, rotate)

    tracer = probe = None
    clock = time.perf_counter
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        probe = Probe()
        clock = probe.clock
        probe.start()
    timer = SetupTimer(clock)
    # after install, so that traced runs time the traced calls
    cli.load_config = timer.wrap(cli.load_config)
    cli.build_model = timer.wrap(cli.build_model)

    models, setup_errors = {}, []
    t_setup = 0.0
    for name in setup_names:
        if tracer:
            tracer.op = f"setup:{name}"
        t0 = clock()
        try:
            cfg = config.load_config(str(CONFIGS / f"{name}.json"))
            models[name] = engine.build_model(cfg.spec)
        except Exception as exc:  # the ops that need this model then fail
            setup_errors.append(f"{name}: {exc!r}")
        t_setup += clock() - t0

    t_run = 0.0
    failures = []
    expected = refs.get(workload, {})
    for _, label, call, fingerprint in ops:
        if tracer:
            tracer.op = label
        inner = timer.seconds
        t0 = clock()
        try:
            result = call(models)
            error = None
        except Exception as exc:
            error = f"raised {exc!r}"
        t_run += clock() - t0 - (timer.seconds - inner)
        if error is None:
            got = fingerprint(result)
            if got.get("exit", 0) != 0:
                error = f"exit code {got['exit']}"
            elif got != expected.get(label):
                error = "output differs from the reference"
        if error:
            failures.append(f"{label}: {error}")
    if probe:
        probe.stop()

    out = {
        "setup_s": t_setup + timer.seconds,
        "run_s": t_run,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "probe_s": probe.times if probe else [],
        "attempted": len(ops),
        "failed": len(failures),
        "failures": setup_errors + failures,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer:
        out["spans"] = tracer.spans
    return out


def capture(path: Path) -> None:
    """Write the fingerprints of every workload's outputs to ``path``."""
    refs = {"note": "captured at the seed commit; deep holds only at "
                    f"FIF_CELL_BUDGET={BUDGET['deep']}"}
    for workload, (setup, ops) in WORKLOADS.items():
        _pin_budget(workload)
        models = {n: engine.build_model(
            config.load_config(str(CONFIGS / f"{n}.json")).spec)
            for n in setup}
        refs[workload] = {label: fingerprint(call(models))
                          for _, label, call, fingerprint in ops}
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--rotate", type=int, default=0,
                    help="index of the operation that runs first")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--only", help="run one config of the workload")
    ap.add_argument("--refs", type=Path, default=BENCH / "refs.json")
    ap.add_argument("--capture", type=Path,
                    help="write reference fingerprints here and exit")
    args = ap.parse_args(argv)
    if args.capture:
        capture(args.capture)
        return 0
    if not args.workload or not args.result:
        ap.error("--workload and --result are required")
    refs = json.loads(args.refs.read_text())
    res = run_pass(args.workload, args.rotate, args.trace, refs, args.only)
    spans = res.pop("spans", None)
    if spans is not None:
        import tracer as tracing

        res["layers"] = tracing.layer_metrics(spans)
        spans_path = args.result.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "attrs"],
             "spans": spans}))
    args.result.write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
