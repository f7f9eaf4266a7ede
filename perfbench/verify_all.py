"""verify-all: in-process `verify.run_suites()` over all seven suites.

This is the smoke test every user and CI runs.  It is deterministic, so
the seed only gets recorded.  One operation is one full pass; each pass
must report every suite, in order, with no failing check.  A failed pass
is counted but not timed.
"""

from __future__ import annotations

import time

from harness import SUITES, SetupSampler, latency_metrics, peak_rss_mb, traced_units


def run(ctx, out):
    from csatools import verify

    def check(results) -> bool:
        out.attempted += 1
        names = tuple(res.name for res in results)
        if names != SUITES:
            out.fail(f"pass reported suites {names}")
            return False
        bad = [f"{res.name}: {res.failures[:3]}" for res in results if not res.ok]
        if bad:
            out.fail("; ".join(bad))
        return not bad

    if ctx.trace:
        def unit(span):
            results = []
            for name in SUITES:
                with span(f"verify.{name}"):
                    results.extend(verify.run_suites([name]))
            return results

        out.metrics.update(traced_units(unit, check, ctx.seconds, ctx.tracer))
        return

    setup = SetupSampler(ctx.src, "csatools", ctx.seconds)
    times = []
    deadline = time.perf_counter() + ctx.seconds
    while out.attempted == 0 or time.perf_counter() < deadline:
        setup.tick()
        start = time.perf_counter()
        try:
            results = verify.run_suites()
        except Exception as exc:  # an internal failure is a failed operation, not a crash
            out.attempted += 1
            out.fail(f"run_suites raised {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        if check(results):
            times.append(elapsed)
    out.metrics["setup_s"] = setup.value()
    out.detail["passes"] = len(times)
    if times:
        out.metrics.update(latency_metrics("verify-all", times))
    out.metrics["peak_rss_mb"] = peak_rss_mb()
