"""Shared pieces of the benchmark: metric names, timing helpers, environment record."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracer import TRACED

SUITES = (
    "known-values",
    "valuation-oracle",
    "segre-degree",
    "chow-laws",
    "bound-valuation",
    "karpenko-certificates",
    "brauer-model",
)

# Reported with --trace 0, on every workload.  An "operation" is one
# verify pass (verify-all), one library call (library-mix), one CLI
# process (cli-session) or one pass over the probe set (oversized).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Tail percentile per workload, fixed so that runs of different speed stay
# comparable.  library-mix (~9000 calls in a 30 s run) has ten or more
# samples beyond its p99.  verify-all and oversized make too few passes for
# any tail.  cli-session's p90 moved by 0.36 and 0.84 of its median (IQR
# over ten seeds) on a shared 2-vCPU host, past the largest allowed bound,
# because minutes-long slow spells of the host inflate the upper part of
# the process-latency distribution; its p90 and p95 are recorded in the
# run's detail line instead.  Where there is no tail, the tail is the median.
TAIL_PERCENTILE = {"verify-all": 50, "library-mix": 99, "cli-session": 50, "oversized": 50}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for module, attr, counters in TRACED:
        units[f"{module}.{attr}.calls"] = "count"
        for key in counters:
            units[f"{module}.{attr}.{key}"] = "count"
        units[f"{module}.{attr}.self_s"] = "s"
    for suite in SUITES:
        units[f"verify.{suite}.s"] = "s"
    for key in ("interpreter_ms", "import_ms", "build_parser_ms", "run_ms"):
        units[f"cli.{key}"] = "ms"
    units["trace.overhead_pct"] = "%"
    units["trace.spans"] = "count"
    return units


# Reported with --trace 1, on every workload; a layer a workload does not
# reach reads 0.
PER_LAYER = _per_layer_units()


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    attempted: int = 0
    failed: int = 0  # wrong answers, unexpected exit codes, exceptions, timeouts
    metrics: dict = field(default_factory=dict)
    extra_units: dict = field(default_factory=dict)  # units of workload-only metrics
    detail: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # first few failure messages

    def fail(self, message: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the median for q = 50."""
    if q == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(workload: str, seconds_per_op: list[float]) -> dict:
    """op_p50_ms, op_tail_ms and ops_per_s from per-operation wall times."""
    return {
        "op_p50_ms": percentile(seconds_per_op, 50) * 1e3,
        "op_tail_ms": percentile(seconds_per_op, TAIL_PERCENTILE[workload]) * 1e3,
        "ops_per_s": len(seconds_per_op) / sum(seconds_per_op),
    }


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def timed_run(argv, env, timeout=None):
    """Run one child to completion; returns (wall seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - start, proc


def fresh_import_seconds(src: Path, module: str, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import `module` (nothing if empty) and exit."""
    env = child_env(src)
    argv = [sys.executable, "-c", f"import {module}"] if module else [sys.executable, "-c", "pass"]
    times = []
    for _ in range(repeats):
        elapsed, proc = timed_run(argv, env, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} failed: {proc.stderr.strip()}")
        times.append(elapsed)
    return times


SETUP_REPEATS = 21


class SetupSampler:
    """setup_s: median time from a fresh interpreter until `module` is imported.

    The samples are spread over the measured time (call `tick()` between
    operations), because the host's speed drifts over tens of seconds and
    a contiguous burst of samples would see only one state of it.
    """

    def __init__(self, src: Path, module: str, seconds: float):
        self._src, self._module = src, module
        self._interval = seconds / SETUP_REPEATS
        self._next = time.perf_counter()
        self.times: list[float] = []

    def _sample(self):
        self.times += fresh_import_seconds(self._src, self._module, 1)
        self._next += self._interval

    def tick(self):
        while len(self.times) < SETUP_REPEATS and time.perf_counter() >= self._next:
            self._sample()

    def value(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._sample()
        return statistics.median(self.times)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "limits": "shared host; no CPU pinning; file cache not dropped; one caller, no threads",
    }


def _no_span(name):
    return nullcontext()


def traced_units(run_unit, check, seconds: float, tracer) -> dict:
    """Per-layer metrics for one unit of work, from a separate traced run.

    Runs the same unit untraced and then traced, repeating the pair until
    `seconds` have passed (at least once).  `run_unit(span)` must open
    `span(name)` around the operations it wants named; whatever it returns
    goes to `check`, outside the timed region.  Calls and counts
    come from the first traced unit (they repeat exactly when the unit
    does); self times are medians over the traced units.  Spans are kept
    for the first traced unit only, up to the tracer's limit.
    """
    untraced, traced, reps = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        result = run_unit(_no_span)
        untraced.append(time.perf_counter() - start)
        check(result)
        tracer.reset()
        tracer.install()
        try:
            start = time.perf_counter()
            result = run_unit(tracer.span)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        check(result)
        reps.append((tracer.stats, tracer.counts))
        if len(reps) == 1:
            span_count = len(tracer.spans) + tracer.spans_dropped
            tracer.keep_spans = False
        if time.perf_counter() >= deadline:
            break
    first_stats, first_counts = reps[0]
    metrics = {}
    for module, attr, counters in TRACED:
        name = f"{module}.{attr}"
        metrics[f"{name}.calls"] = first_stats.get(name, [0])[0]
        for key in counters:
            metrics[f"{name}.{key}"] = first_counts.get(f"{name}.{key}", 0)
        metrics[f"{name}.self_s"] = statistics.median(
            stats.get(name, [0, 0.0])[1] for stats, _ in reps
        )
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = statistics.median(
            stats.get(f"verify.{suite}", [0, 0.0, 0.0])[2] for stats, _ in reps
        )
    base = statistics.median(untraced)
    metrics["trace.overhead_pct"] = (statistics.median(traced) - base) / base * 100.0
    metrics["trace.spans"] = span_count
    return metrics
