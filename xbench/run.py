"""xtangle benchmark: one workload, one run, one JSON result on the last line.

    python3 xbench/run.py --workload convert --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the run sets up (import of xtangle, input generation, warm-up),
then cycles through the workload's pool of calls in a closed loop for
--seconds, finishing the last cycle, and reports the end-to-end metrics.
It sets up SETUP_REPS times in all, spread evenly over the run. With --trace 1 it makes a fixed number of calls
untraced, then the same calls under the tracer, and reports the per-layer
metrics; the spans go to .bench_trace/. The line before the result
records the environment and the details of the run.

The speed of a shared machine can swing by 2x within seconds. Each pool
entry is therefore timed on every cycle, and its fastest time is its cost.
items_per_s, call_p50_us and call_tail_us all come from those costs. A
slow spell can outlast a run, so the costs are also scaled by the
reference kernel of calibrate.py, timed after each cycle in blocks about
as long as one call, to read as on the reference machine at full speed.
setup_s is the median set-up, each scaled by a kernel block of about its
length timed right after it.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 15
CAL_WARMUP = 20
SETUP_CAL_REPS = 50
MAX_ERRORS = 5


def import_package():
    """Fresh import of xtangle from ./src (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "xtangle" or n.startswith("xtangle.")]:
        del sys.modules[name]
    return importlib.import_module("xtangle"), importlib.import_module("xtangle.cli")


def set_up(cls, seed: int):
    xt, cli = import_package()
    wl = cls(xt, cli, seed)
    for i in range(cls.warmup_calls):
        try:
            wl.call(wl.spec(i))
        except Exception:  # the timed loop counts and reports a raising call
            pass
    return wl


class Tally:
    """Call count and time, fastest time per pool entry, verification counts.

    attempted and failed count the distinct items of the pool: an entry's
    items count once, and as failed if any of its calls failed. A run's
    calls cycle through the pool a number of times that depends on the
    machine's speed, so counting every call would make the counts depend
    on it too; counted per entry, they depend only on the seed. Every call
    is still verified, and `inconsistent` counts entries whose calls did
    not all get the same verdict.

    Latencies are not kept one by one, and only the first few errors are,
    so memory does not grow with the number of calls a run makes.
    """

    def __init__(self, pool: int) -> None:
        self.calls = self.call_ns = 0
        self.best_ns = [0] * pool
        self.items = [0] * pool
        self.entry_failed: list[int | None] = [None] * pool
        self.call_items = self.inconsistent = self.unexpected = 0
        self.errors: list[str] = []

    def add(self, k: int, dt_ns: int, check: Check) -> None:
        self.calls += 1
        self.call_ns += dt_ns
        best = self.best_ns[k]
        self.best_ns[k] = dt_ns if best == 0 else min(best, dt_ns)
        self.call_items += check.items
        self.items[k] = max(self.items[k], check.items)
        seen = self.entry_failed[k]
        if seen is None:
            self.entry_failed[k] = check.failed
        elif seen != check.failed:
            self.inconsistent += 1
            self.entry_failed[k] = max(seen, check.failed)
        self.unexpected += check.unexpected

    @property
    def attempted(self) -> int:
        return sum(self.items)

    @property
    def failed(self) -> int:
        return sum(f for f in self.entry_failed if f is not None)

    def error(self, text: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(text)


def run_call(wl, i: int, tally: Tally, tracer: Tracer | None = None) -> None:
    """Time call i (pool entry i mod pool), then verify its output untimed."""
    k = i % wl.pool
    spec = wl.spec(k)
    if tracer is not None:
        tracer.item, tracer.on = i, True
    t0 = time.perf_counter_ns()
    try:
        out = wl.call(spec)
    except Exception as exc:  # a raising call is a failed item; keep running
        out = exc
    t1 = time.perf_counter_ns()
    if tracer is not None:
        tracer.on = False
    n = wl.items_per_call
    if isinstance(out, Exception):
        if not tally.errors:
            traceback.print_exception(out, file=sys.stderr)
        check = Check(n, n, n)
        tally.error(f"call {i}: {out!r}")
    else:
        try:
            check = wl.verify(spec, out)
        except Exception as exc:  # a verifier that cannot read the output fails it
            check = Check(n, n, n)
            tally.error(f"verify {i}: {exc!r}")
    tally.add(k, t1 - t0, check)


def tail(cost_ns: list[int]) -> tuple[float, float]:
    """(cost, percentile): p99, or the highest percentile with ten entries
    beyond it; the largest cost when there are fewer than eleven entries."""
    n = len(cost_ns)
    pct = min(99.0, 100.0 * (n - 11) / (n - 1)) if n >= 11 else 100.0
    return float(np.percentile(cost_ns, pct)), pct


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((SRC / "xtangle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def untraced_run(cls, args) -> tuple[dict, Tally, dict]:
    setup_s, setup_cal_ns, cal_ns = [], [], []

    def timed_set_up():
        t0 = time.perf_counter()
        wl = set_up(cls, args.seed)
        setup_s.append(time.perf_counter() - t0)
        setup_cal_ns.append(calibrate.time_kernel(SETUP_CAL_REPS) / SETUP_CAL_REPS)
        return wl

    for _ in range(CAL_WARMUP):
        calibrate.kernel()
    wl = timed_set_up()
    tally = Tally(cls.pool)
    start = time.perf_counter()
    i = 0
    while i < cls.pool or i % cls.pool or time.perf_counter() < start + args.seconds:
        run_call(wl, i, tally)
        i += 1
        if i % cls.pool == 0:
            cal_ns.append(calibrate.time_kernel(cls.cal_reps) / cls.cal_reps)
        # later set-ups go between cycles; the calls keep the first one
        if (i % cls.pool == 0 and len(setup_s) < SETUP_REPS and time.perf_counter()
                >= start + len(setup_s) * args.seconds / SETUP_REPS):
            timed_set_up()
    # times scaled to the reference machine at full speed (see calibrate.py)
    scale = calibrate.REF_NS / min(cal_ns)
    best_ns = [ns * scale for ns in tally.best_ns]
    tail_ns, pct = tail(best_ns)
    metrics = {
        "items_per_s": (cls.items_per_call * cls.pool / (sum(best_ns) / 1e9), "1/s"),
        "call_p50_us": (statistics.median(best_ns) / 1e3, "us"),
        "call_tail_us": (tail_ns / 1e3, "us"),
        "setup_s": (statistics.median(
            s * calibrate.REF_NS / c for s, c in zip(setup_s, setup_cal_ns)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_tail_ns, _ = tail(tally.best_ns)
    detail = {"calls": tally.calls, "cycles": tally.calls // cls.pool,
              "tail_percentile": pct, "tail_samples": cls.pool,
              "mean_call_us": tally.call_ns / tally.calls / 1e3,
              "setup_s_reps": setup_s, "setup_cal_ns": setup_cal_ns,
              "calibration_ns": {"fastest": min(cal_ns), "median": statistics.median(cal_ns),
                                 "samples": len(cal_ns), "reps": cls.cal_reps,
                                 "reference": calibrate.REF_NS},
              "unscaled": {"items_per_s": metrics["items_per_s"][0] * scale,
                           "call_p50_us": statistics.median(tally.best_ns) / 1e3,
                           "call_tail_us": raw_tail_ns / 1e3,
                           "setup_s": statistics.median(setup_s)}}
    return metrics, tally, detail


def traced_run(cls, args) -> tuple[dict, Tally, dict]:
    wl = set_up(cls, args.seed)
    tracer = Tracer()
    plain, tally = Tally(cls.pool), Tally(cls.pool)
    # each call runs untraced, then traced, so a drift in machine speed
    # does not bias the overhead ratio
    for i in range(cls.trace_calls):
        run_call(wl, i, plain)
        with tracer.installed():
            run_call(wl, i, tally, tracer)
    summary = tracer.summary()
    metrics = layer_metrics(summary, tally.call_items)
    metrics["universality.max_measure_residual"] = (
        getattr(wl, "max_measure_residual", 0.0), "abs")
    metrics["universality.max_spectrum_residual"] = (
        getattr(wl, "max_spectrum_residual", 0.0), "abs")
    metrics["trace.overhead_ratio"] = (tally.call_ns / plain.call_ns, "ratio")
    metrics["verify.fail_ratio"] = (tally.failed / tally.attempted, "ratio")
    self_ns = sum(r["self_ns"] for r in summary["by_name"].values())
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    detail = {"calls": tally.calls, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "self_ns_total": self_ns, "traced_call_ns": tally.call_ns,
              "untraced_call_ns": plain.call_ns,
              "self_within_wall": self_ns <= tally.call_ns}
    if not detail["self_within_wall"]:
        tally.unexpected += 1
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        xt, _ = import_package()
    except ImportError as exc:
        print(f"xbench: cannot import xtangle from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(xt.__file__).resolve().parent != SRC / "xtangle":
        print(f"xbench: xtangle imported from {xt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    metrics, tally, detail = run(cls, args)
    detail.update(attempted=tally.attempted, failed=tally.failed,
                  items_verified=tally.call_items,
                  inconsistent_entries=tally.inconsistent,
                  unexpected_failures=tally.unexpected,
                  fail_ratio=tally.failed / tally.attempted, errors=tally.errors)
    print("detail " + json.dumps({"env": environment(args), "run": detail}))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
