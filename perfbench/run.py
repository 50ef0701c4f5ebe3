"""Benchmark for grlin: the ``laws``, ``corpus`` and ``pullpush`` workloads.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; grlin is imported from ``src/``. The
workload runs in this one process as a closed loop: each op starts when the
previous one ends. The loop runs whole passes of the workload's op sequence
as long as another pass is expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics, with op times scaled to a
reference machine speed (see ``REFERENCE_CALIBRATION_S``). ``--trace 1``
runs each op twice from the same state, untraced and traced, and reports
the per-layer metrics of the traced runs. The second-to-last line of stdout
is a JSON report with the environment and details; the last line is the
result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("grades", "syntax", "parser", "typecheck", "deriving", "evaluator",
           "lawcheck", "cli")
WORKLOADS = ("laws", "corpus", "pullpush")
SETUP_SAMPLES = 20
TAIL_BEYOND = 10
LADDER_BUDGET_S = 60.0
# Share of the traced op time that may lie outside every span: the
# workload's own work around the entry point, such as capturing stdout.
OUTSIDE_LIMIT = 0.01
# Other load on the machine swings its speed by up to 2x within seconds and
# by a third over minutes. The timed loop runs ``calibrate`` at the start of
# each pass and then after the first op that ends CALIBRATE_EVERY_S or more
# after the previous calibration. Each pass's op times are scaled by
# REFERENCE_CALIBRATION_S over the pass's median calibration time, i.e. to
# the speed at which the calibration loop takes REFERENCE_CALIBRATION_S,
# about its median time (13.6-14.7 ms per workload) over six runs of 40 s of
# each workload on a 2-vCPU Intel Xeon VM (2.1 GHz, Python 3.11.7).
CALIBRATE_EVERY_S = 0.5
REFERENCE_CALIBRATION_S = 0.014


def _grlin_modules() -> list[str]:
    return [m for m in sys.modules if m == "grlin" or m.startswith("grlin.")]


def load_grlin() -> SimpleNamespace:
    """Import grlin afresh from the checkout's sources."""
    src = ROOT / "src"
    if not (src / "grlin" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no grlin sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in _grlin_modules():
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"grlin.{m}") for m in MODULES})


def make_workload(name: str, g, seed: int):
    if name == "laws":
        return workloads.Laws(g, seed)
    if name == "pullpush":
        return workloads.PullPush(g, seed)
    return workloads.Corpus(g, seed, ROOT, WORKDIR)


def setup(name: str, seed: int):
    """Import, input generation and one-time derivations. Returns their time,
    the modules and the workload."""
    t0 = perf_counter()
    g = load_grlin()
    wl = make_workload(name, g, seed)
    return perf_counter() - t0, g, wl


class SetupSampler:
    """Times a further set-up every ``seconds / SETUP_SAMPLES`` of the timed
    loop, so that the median set-up time spans the machine's changes of
    speed over the run. Each set-up time is scaled to the reference speed by
    a calibration right after it. Each set-up's modules are dropped again:
    the running workload keeps calling the modules it was built from."""

    def __init__(self, name: str, seed: int, seconds: float, first: float):
        self.name, self.seed = name, seed
        self.times = [first * REFERENCE_CALIBRATION_S / calibrate()]
        self.step = seconds / SETUP_SAMPLES
        self.next = perf_counter() + self.step

    def __call__(self) -> None:
        if perf_counter() < self.next:
            return
        saved = {m: sys.modules[m] for m in _grlin_modules()}
        gc.collect()
        try:
            t = setup(self.name, self.seed)[0]
            self.times.append(t * REFERENCE_CALIBRATION_S / calibrate())
        finally:
            for m in _grlin_modules():
                del sys.modules[m]
            sys.modules.update(saved)
            gc.collect()
        self.next = perf_counter() + self.step


def run_op(wl, item) -> tuple[float, str | None]:
    """One timed op. Returns its time and, if it failed, why."""
    t0 = perf_counter()
    try:
        out = wl.run(item)
    except Exception as e:  # a failed op is counted, not fatal
        return perf_counter() - t0, f"{item!r}: {type(e).__name__}: {e}"
    t = perf_counter() - t0
    return t, None if wl.check(item, out) else wl.describe_failure(item, out)


def another_pass(start: float, passes: int, seconds: float) -> bool:
    """Whether a further pass, as long as the mean one so far, ends within
    ``seconds`` of ``start``. The first pass always runs."""
    return not passes or (perf_counter() - start) * (passes + 1) / passes <= seconds


def calibrate() -> float:
    """The time of a fixed loop of integer arithmetic that runs no grlin
    code: the machine's current speed for pure-Python work."""
    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return perf_counter() - t0


def measure(wl, seconds: float, between=None):
    """Whole passes while ``another_pass`` allows; ``between()`` runs after
    each op, untimed. Returns each pass's op times, each pass's median
    calibration time and a description of each failed op."""
    passes: list[list[float]] = []
    speeds: list[float] = []
    failures: list[str] = []
    start = perf_counter()
    while another_pass(start, len(passes), seconds):
        wl.begin_pass()
        times = []
        cals = [calibrate()]
        last = perf_counter()
        for item in wl.items:
            t, failure = run_op(wl, item)
            times.append(t)
            if failure:
                failures.append(failure)
            if perf_counter() - last >= CALIBRATE_EVERY_S:
                cals.append(calibrate())
                last = perf_counter()
            if between:
                between()
        passes.append(times)
        speeds.append(statistics.median(cals))
    return passes, speeds, failures


def tail(times: list[float]) -> tuple[float, float]:
    """The op time of one pass with TAIL_BEYOND ops of the pass above it,
    and its percentile. With too few ops, the smallest time."""
    ordered = sorted(times)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class _Timeout(BaseException):
    """The ladder's time budget ran out during a rung."""


def _on_alarm(signum, frame):
    raise _Timeout


def ladder(wl, seed: int, budget: float):
    """The largest rung of workloads.LADDER that completes and is right.
    Returns (largest, rungs, wrong) where ``wrong`` means a rung completed
    with a wrong result."""
    rng = random.Random(seed)
    best, rungs, wrong = 0, [], False
    deadline = perf_counter() + budget
    old = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for n in workloads.LADDER:
            left = deadline - perf_counter()
            if left <= 0:
                rungs.append([n, "budget", 0.0])
                break
            t0 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                outcome = "ok" if wl.ladder_rung(n, rng) else "wrong"
            except _Timeout:
                outcome = "timeout"
            except Exception as e:  # the rung did not complete
                outcome = type(e).__name__
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            rungs.append([n, outcome, perf_counter() - t0])
            if outcome != "ok":
                wrong = outcome == "wrong"
                break
            best = n
    finally:
        signal.signal(signal.SIGALRM, old)
    return best, rungs, wrong


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    """The checked-out commit; None without git or outside a repository.
    Git does not look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": git_commit(),
            "seed": seed}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "share"
    return "count"


def timings(passes: list[list[float]], speeds: list[float]):
    """ops_per_s, the median and the tail op time (in s) and the tail's
    percentile, with each pass's op times scaled to the reference speed by
    its calibration time in ``speeds``. The rate and the tail are medians
    over the passes; the median is over all ops."""
    scaled = [[t * REFERENCE_CALIBRATION_S / c for t in p] for p, c in zip(passes, speeds)]
    rate = statistics.median(len(p) / sum(p) for p in scaled)
    p50 = statistics.median(t for p in scaled for t in p)
    tails = [tail(p) for p in scaled]
    return rate, p50, statistics.median(v for v, _ in tails), tails[0][1]


def end_to_end(name: str, seed: int, seconds: float):
    first, g, wl = setup(name, seed)
    sampler = SetupSampler(name, seed, seconds, first)
    passes, speeds, failures = measure(wl, seconds, sampler)
    rss = peak_rss_mb()
    longest, rungs, wrong = ladder(wl, seed, LADDER_BUDGET_S)
    ops = sum(len(p) for p in passes)
    rate, p50, op_tail, percentile = timings(passes, speeds)
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (op_tail * 1e3, "ms"),
        "ok_share": ((ops - len(failures)) / ops, "share"),
        "setup_s": (statistics.median(sampler.times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "max_list_len": (longest, "elements"),
    }
    raw_rate, raw_p50, raw_tail, _ = timings(passes, [REFERENCE_CALIBRATION_S] * len(passes))
    pass_ops = len(passes[0])
    details = {"passes": len(passes), "ops": ops,
               "op_tail": {"percentile": percentile, "pass_ops": pass_ops,
                           "beyond": min(TAIL_BEYOND, pass_ops - 1)},
               "calibration_ms": [min(speeds) * 1e3, statistics.median(speeds) * 1e3,
                                  max(speeds) * 1e3],
               "unscaled": {"ops_per_s": raw_rate, "op_p50_ms": raw_p50 * 1e3,
                            "op_tail_ms": raw_tail * 1e3},
               "setup_samples": len(sampler.times),
               "ladder": rungs, "failures": failures[:5]}
    correct = not failures and not wrong
    return correct, ops, len(failures), metrics, details


def paired_pass(wl, g, tracer: tracing.Tracer):
    """One pass in which each op runs twice from the same state, untraced
    and traced, in turns first. Returns the untraced and the traced op
    times and the failures."""
    plain: list[float] = []
    times: list[float] = []
    failures: list[str] = []
    wl.begin_pass()
    for i, item in enumerate(wl.items):
        state = wl.save()
        for k, on in enumerate((i % 2 == 1, i % 2 == 0)):
            if k:
                wl.restore(state)
            if on:
                tracer.op = len(tracer.op_times)
                undo = tracing.install(tracer, g)
                try:
                    t, failure = run_op(wl, item)
                finally:
                    tracing.uninstall(undo)
                tracer.op_times.append(t)
                times.append(t)
            else:
                t, failure = run_op(wl, item)
                plain.append(t)
            if failure:
                failures.append(failure)
    return plain, times, failures


def traced(name: str, seed: int, seconds: float):
    """Paired passes while ``another_pass`` allows. Running each op both
    ways back to back lets the tracing overhead be measured on the same ops
    at the same speed of the machine."""
    _, g, wl = setup(name, seed)
    tracer = tracing.Tracer()
    plain: list[float] = []
    times: list[float] = []
    failures: list[str] = []
    passes = 0
    start = perf_counter()
    while another_pass(start, passes, seconds):
        p, t, f = paired_pass(wl, g, tracer)
        plain += p
        times += t
        failures += f
        passes += 1
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    gaps = tracing.op_gaps(spans, selfs, tracer.op_times)
    if min(gaps) < -1e-9:
        raise RuntimeError(f"a span of op {gaps.index(min(gaps))} reaches outside the op")
    outside = sum(gaps) / sum(times)
    if outside > OUTSIDE_LIMIT:
        raise RuntimeError(f"{outside:.2%} of the traced op time lies outside every span")
    values = tracing.layer_metrics(spans, len(times), passes, g.lawcheck.SUITES)
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(times) / sum(times)
    details = {"passes": passes, "ops": len(times), "spans": len(spans),
               "untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate,
               "trace_overhead": plain_rate / traced_rate,
               "layer_self_ms_per_op": {k: v / len(times) for k, v in
                                        tracing.layer_self_ms(spans, selfs).items()},
               "outside_ms_per_op": sum(gaps) * 1e3 / len(times),
               "outside_share": outside,
               "failures": failures[:5]}
    return not failures, len(plain) + len(times), len(failures), metrics, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run = traced if args.trace else end_to_end
    correct, attempted, failed, metrics, details = run(args.workload, args.seed, args.seconds)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(args.seed), **details}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
