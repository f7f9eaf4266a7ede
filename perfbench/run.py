"""Benchmark for csatools: one workload per run, one JSON result on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

With --trace 0 the result holds the end-to-end metrics, measured with no
tracing.  With --trace 1 it holds the per-layer metrics from a separate
traced run, and the spans are written to .bench_out/.  The line before
the result records the environment, the seed, the failure counts and
workload-specific detail.  The exit status is 1 when any operation failed
(a wrong answer, an unexpected exit code, an exception or a timeout) and 2
when the csatools sources are not under ./src.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import cli_session
import library_mix
import oversized
import verify_all
from harness import END_TO_END, PER_LAYER, Outcome, environment
from tracer import Tracer

WORKLOADS = {
    "verify-all": verify_all.run,
    "library-mix": library_mix.run,
    "cli-session": cli_session.run,
    "oversized": oversized.run,
}


def _import_from(src: Path) -> bool:
    """Import csatools from `src` only; False if the sources are not there."""
    if not (src / "csatools" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import csatools

    return Path(csatools.__file__).resolve().is_relative_to(src.resolve())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not _import_from(src):
        print(f"perfbench: no csatools package under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    ctx = SimpleNamespace(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                          src=src, tracer=Tracer() if args.trace else None)
    out = Outcome()
    WORKLOADS[args.workload](ctx, out)

    units = dict(PER_LAYER if ctx.trace else END_TO_END)
    units.update(out.extra_units)
    missing = [name for name in END_TO_END if name not in out.metrics] if not ctx.trace else []
    if out.attempted < 1 or missing:
        print(f"perfbench: {args.workload} produced no measurement "
              f"(attempted {out.attempted}, missing {missing}); {out.problems[:3]}", file=sys.stderr)
        return 1
    if ctx.trace:
        spans_file = Path(".bench_out") / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        ctx.tracer.write_spans(root / spans_file)
        out.detail.update(spans_file=str(spans_file), spans_dropped=ctx.tracer.spans_dropped)

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "fail_ratio": {"failed": out.failed, "attempted": out.attempted,
                       "value": out.failed / out.attempted},
        "problems": out.problems,
        **out.detail,
    }
    metrics = {name: {"value": out.metrics.get(name, 0), "unit": unit} for name, unit in units.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 1 if out.failed else 0


if __name__ == "__main__":
    sys.exit(main())
