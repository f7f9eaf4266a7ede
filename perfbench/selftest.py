"""Quick self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload once at reduced length, untraced and traced, and
checks that:

* the run exits 0 and its last line is a result with exactly the keys
  correct, attempted, failed and metrics;
* the metric names are exactly BENCHMARK.json's end_to_end names (untraced)
  or per_layer names (traced), each with the unit given there and a finite
  value; end-to-end values are positive;
* each per-layer metric a workload is meant to move (LAYER_OWNERS) is
  non-zero on that workload;
* from a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

The oversized workload (not in BENCHMARK.json, see README.md) is run once
too; its probes may fail, and then it exits 1, but it must still report
every end-to-end metric.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

SECONDS = "1"

# Per-layer metrics that must be non-zero on a traced run of the workload.
LAYER_OWNERS = {
    "verify-all": (
        "verify.", "karpenko.karpenko_lower_bound.", "karpenko.corestriction_certificate.",
        "chowring.", "valuation.is_prime_64bit.", "valuation.Prime.", "valuation.vp_factorial_oracle.",
        "brauer.combine.", "brauer.model_index.", "brauer.prop", "trace.spans",
    ),
    "library-mix": (
        "valuation.vp.", "valuation.multinomial.", "chowring.", "karpenko.karpenko_lower_bound.",
        "karpenko.proof_inequalities.", "brauer.index_reduction.", "bounds.", "trace.spans",
    ),
    "cli-session": ("cli.", "trace.spans"),
}


def run_bench(cwd: Path, workload: str, trace: str):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", SECONDS, "--trace", trace]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, names: dict, label: str, positive: bool, may_fail: bool = False) -> list[str]:
    """names: metric name -> unit.  may_fail: exit 1 with failed operations is expected."""
    if proc.returncode != 0 and not (may_fail and proc.returncode == 1 and proc.stdout.strip()):
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("correct") != (result.get("failed") == 0) or (proc.returncode == 0) != result.get("correct"):
        return [f"{label}: exit {proc.returncode} with correct {result.get('correct')} "
                f"and failed {result.get('failed')}"]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        errors.append(f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(names):
        errors.append(f"{label}: missing {sorted(set(names) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(names))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != names.get(name):
            errors.append(f"{label}: {name} has unit {entry.get('unit')!r}, want {names.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} = {value!r} is not a finite number")
        elif positive and value <= 0:
            errors.append(f"{label}: {name} = {value!r} is not positive")
    return errors


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        errors += check_result(run_bench(root, workload, "0"), end_to_end, f"{workload} untraced", True)
        proc = run_bench(root, workload, "1")
        errors += check_result(proc, per_layer, f"{workload} traced", False)
        if proc.returncode == 0:
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            owned = [n for n in per_layer if n.startswith(LAYER_OWNERS.get(workload, ()))]
            errors += [f"{workload} traced: {n} is 0" for n in owned if metrics[n]["value"] == 0]
        print(f"{workload}: checked", flush=True)

    proc = run_bench(root, "oversized", "0")
    errors += check_result(proc, end_to_end, "oversized untraced", True, may_fail=True)
    print("oversized: checked", flush=True)

    bare = root / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, spec["workloads"][0]["name"], "0")
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)
    print("bare directory: checked", flush=True)

    for error in errors:
        print("FAIL", error)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
