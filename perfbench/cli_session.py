"""cli-session: one child process per README example command, in both output formats.

Each call pays interpreter start-up, import and parser building, which
dwarf the math (well under 1 ms per example), so this workload shows
import and CLI work and should not move with library-route work.  One
operation is one process; processes run one at a time, in an order the
seed shuffles on every pass.  Each record's outputs are checked, after
the process has been timed, against values computed in-process by the
library; a process that fails the check is counted but not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
import statistics
import subprocess
import sys
import time

from harness import (
    SetupSampler,
    child_env,
    fresh_import_seconds,
    latency_metrics,
    peak_rss_mb,
    percentile,
    timed_run,
    traced_units,
)

RECORD_FORMAT = "json-like-stable-schema"
FORMATS = ("text", RECORD_FORMAT)
# What the installed `csatools` console script runs.
ENTRY = "import sys; from csatools.cli import main; sys.exit(main())"
PROCESS_TIMEOUT_S = 60
LAYER_REPEATS = 11


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def expected_cases(cs):
    """The 17 README examples with the outputs the library gives for them, in record order."""
    v, b, c, k, br = cs.valuation, cs.bounds, cs.chowring, cs.karpenko, cs.brauer

    def segre(shape):
        top = c.power(c.hyperplane_sum(shape), sum(shape) - len(shape))
        return {"expansion": c.segre_degree_expansion(shape),
                "closed_form": c.segre_degree_closed_form(shape),
                "agree": True, "top_power_class": top.to_text()}

    def general(shape, index, period):
        report = b.general_bound(b.AlgebraShape(shape, index, period))
        return {"multinomial_factor": report.multinomial_factor, "r": report.remainder,
                "period_power": report.period_power, "total": report.total}

    def prime_power(p, kk, n):
        report = b.prime_power_bound(p, kk, n)
        return {"p_part": report.p_part, "m": report.cofactor, "total": report.total}

    def cert(p, r):
        c_ = k.corestriction_certificate(p, r)
        return {"codim": c_.codim, "observed_valuation": c_.observed_valuation,
                "lower_bound": c_.lower_bound, "violated": c_.violated}

    def proof(p, r):
        aux = k.auxiliary_inequalities(p, r)
        return {"holds": k.proof_inequalities(p, r), "pr_ge_r_plus_2": aux.pr_ge_r_plus_2,
                "pr_ge_rp": aux.pr_ge_rp}

    def scenario(report):
        return {"exponents_of_A_prime": report["exponents_of_A_prime"],
                "index_of_A": report["index_of_A"], "index_of_A_prime": report["index_of_A_prime"]}

    def table(p):
        rows = br.prop1_case_table(p)
        out = {"rows": len(rows)}
        for row in rows:
            out[f"term[{row['i']}]"] = row["term"]
            out[f"case[{row['i']}]"] = row["case"]
        return out

    improvement = b.bound_improvement(3, 1, 1)
    cases = [
        ("vp --p 3 --n 18", {"vp": v.vp(3, 18)}),
        ("vp-factorial --p 3 --method oracle --n 9", {"vp": v.vp_factorial_oracle(3, 9)}),
        ("vp-factorial --p 3 --method misc --k 2 --n 1", {"vp": v.vp_factorial_misc(3, 2, 1)}),
        ("multinomial --top 6 --parts 2,2,2", {"multinomial": v.multinomial(6, [2, 2, 2])}),
        ("segre-degree --shape 3,3,3", segre((3, 3, 3))),
        ("bound general --shape 3,3,3 --index 3 --period 3", general((3, 3, 3), 3, 3)),
        ("bound prime-power --p 3 --k 1 --n 1", prime_power(3, 1, 1)),
        ("bound baseline --point 2:1 --point 2:1", {"total": b.baseline_bound([(2, 1), (2, 1)])}),
        ("bound improvement --p 3 --k 1 --n 1",
         {"baseline": improvement.baseline, "improved_p_part": improvement.improved_p_part}),
        ("cofactor-m --p 3 --k 1 --n 2", {"m": b.cofactor_m(3, 1, 2)}),
        ("karpenko-bound --p 3 --n 3 --codim 20", {"lower_bound": k.karpenko_lower_bound(3, 3, 20)}),
        ("corestriction-cert --p 3 --r 1", cert(3, 1)),
        ("proof-inequalities --p 7 --r 5", proof(7, 5)),
        ("index-reduction --p 3 --target 1,1,2 --fiber 1,1,1 --d 2",
         {"index": br.index_reduction(br.BrauerVector(3, (1, 1, 2)), br.BrauerVector(3, (1, 1, 1)), 2)}),
        ("prop1 --p 5", scenario(br.prop1_scenario(5))),
        ("prop1-table --p 3", table(3)),
        ("prop2 --p 5 --d 2 --n 3", scenario(br.prop2_scenario(5, 2, 3))),
    ]
    return [(shlex.split(cmd), {key: _fmt(val) for key, val in want.items()}) for cmd, want in cases]


def _parse_text(argv, stdout):
    """Output key -> value from the aligned text rendering (or the prop1 table)."""
    lines = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    if argv[0] == "prop1-table":
        got = {"rows": str(len(lines) - 1)}
        for line in lines[1:]:
            i, _factor, _index, term, case = line.split(None, 4)
            got[f"term[{i}]"] = term
            got[f"case[{i}]"] = case
        return got
    return dict(line.split(None, 1) for line in lines)


def check_output(argv, fmt, want, code, stdout, stderr):
    """None if the process answered as the library does, else what is wrong."""
    if code != 0 or stderr:
        return f"exit {code}, stderr {stderr.strip()[:200]!r}"
    try:
        if fmt == RECORD_FORMAT:
            record = json.loads(stdout)
            got = record["outputs"]
            if list(record) != ["command", "inputs", "outputs", "provenance"] or list(got) != list(want):
                return "record fields out of order"
        else:
            got = _parse_text(argv, stdout)
    except (ValueError, KeyError) as exc:
        return f"unparseable output: {exc!r}"
    bad = [key for key, val in want.items() if got.get(key) != val]
    return f"outputs differ from the library on {bad[:5]}" if bad else None


def _format_args(fmt):
    return [] if fmt == "text" else ["--format", fmt]


def run(ctx, out):
    import csatools as cs
    import csatools.cli as cli

    cases = expected_cases(cs)
    calls = [(argv, fmt, want) for argv, want in cases for fmt in FORMATS]

    def judge(argv, fmt, want, code, stdout, stderr) -> bool:
        out.attempted += 1
        problem = check_output(argv, fmt, want, code, stdout, stderr)
        if problem:
            out.fail(f"{shlex.join(argv)} [{fmt}]: {problem}")
        return problem is None

    if ctx.trace:
        interpreter = statistics.median(fresh_import_seconds(ctx.src, "", LAYER_REPEATS))
        with_cli = statistics.median(fresh_import_seconds(ctx.src, "csatools.cli", LAYER_REPEATS))
        build = []
        for _ in range(LAYER_REPEATS * 10):
            start = time.perf_counter()
            cli.build_parser()
            build.append(time.perf_counter() - start)
        run_times = []

        def in_process(span, timed=None):
            results = []
            for argv, fmt, want in calls:
                stdout, stderr = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with span("op.cli.run"), contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.run(argv + _format_args(fmt))
                if timed is not None:
                    timed.append(time.perf_counter() - start)
                results.append((argv, fmt, want, code, stdout.getvalue(), stderr.getvalue()))
            return results

        def judge_all(results):
            for result in results:
                judge(*result)

        for _ in range(LAYER_REPEATS):
            judge_all(in_process(lambda name: contextlib.nullcontext(), run_times))
        out.metrics.update(traced_units(in_process, judge_all, ctx.seconds, ctx.tracer))
        out.metrics.update({
            "cli.interpreter_ms": interpreter * 1e3,
            "cli.import_ms": (with_cli - interpreter) * 1e3,
            "cli.build_parser_ms": statistics.median(build) * 1e3,
            "cli.run_ms": statistics.median(run_times) * 1e3,
        })
        return

    setup = SetupSampler(ctx.src, "csatools.cli", ctx.seconds)
    env = child_env(ctx.src)
    rng = random.Random(ctx.seed)
    times = []
    deadline = time.perf_counter() + ctx.seconds
    while out.attempted == 0 or time.perf_counter() < deadline:
        rng.shuffle(calls)
        for argv, fmt, want in calls:
            if out.attempted and time.perf_counter() >= deadline:
                break
            setup.tick()
            try:
                elapsed, proc = timed_run([sys.executable, "-c", ENTRY, *argv, *_format_args(fmt)],
                                          env, timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                out.attempted += 1
                out.fail(f"{shlex.join(argv)} [{fmt}]: no exit within {PROCESS_TIMEOUT_S} s")
                continue
            if judge(argv, fmt, want, proc.returncode, proc.stdout, proc.stderr):
                times.append(elapsed)
    out.metrics["setup_s"] = setup.value()
    out.detail["samples"] = len(times)
    if times:
        out.metrics.update(latency_metrics("cli-session", times))
        out.detail.update(p90_ms=percentile(times, 90) * 1e3, p95_ms=percentile(times, 95) * 1e3)
    out.metrics["peak_rss_mb"] = peak_rss_mb(children=True)
