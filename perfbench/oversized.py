"""oversized: ten CLI probes on inputs far beyond desk scale.

Each probe runs in its own child, in its own process group, under a
wall-clock cap and an address-space limit that are set on the child only.
At the cap the whole group is killed and reaped.  A probe is resolved if
it exits 0 with an answer that passes its check, or exits 1 with a
one-line `error:` message, within the cap; a timeout, a traceback or any
other exit is a failed operation.  The probes are fixed, so the seed only
gets recorded.

Unlike the other workloads, the timed operation is one whole pass over
the probe set, failed probes included: the metric is the wall time of the
set, and a probe that runs to the cap costs the cap.  A failed probe still
makes the run exit 1, so in the current code, where seven probes hang,
every oversized run prints its result and then exits 1.
"""

from __future__ import annotations

import json
import os
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import time

from cli_session import ENTRY
from harness import SetupSampler, child_env, latency_metrics, peak_rss_mb
from library_mix import index_reduction_reference

CAP_S = 2.0
ADDRESS_SPACE_BYTES = 1 << 30
BIG_PRIME = 18446744073709551629  # the smallest prime above 2^64


def _grouped(cs, p, n, codim):
    return cs.verify.karpenko_lower_bound_grouped(p, n, codim)


def _probes(cs):
    """name -> (argv, check of the outputs of an answer).

    Each check is an independent route that stays cheap at these sizes.
    """
    def proof(o, p=3, r=18):
        k = p ** (r * p) - p**r - p - 1
        return o["holds"] == ("true" if r * p - r < _grouped(cs, p, r * p, k) else "false")

    def prop1(o, p=10007):
        return int(o["index_of_A"]) == p**2 and int(o["index_of_A_prime"]) == p**p

    def cofactor(o, p=13, k=3, n=3):
        return int(o["m"]) % p != 0  # the full identity needs (p^k (p^n - 1))!, far too large

    def vp_factorial(o, p=3, n=10**9, q=1_000_000_007):
        # (p^n - 1)/(p - 1) mod q, with the exact division done modulo (p - 1) q
        return int(o["vp"]) % q == (pow(p, n, (p - 1) * q) - 1) // (p - 1) % q

    def segre(o):
        shape = (9, 9, 9, 9, 9)
        return o["agree"] == "true" and int(o["expansion"]) == cs.chowring.segre_degree_closed_form(shape)

    def baseline(o, q=1_000_000_007):
        return int(o["total"]) % q == pow(1000, 10**9, q)

    def cert(o, p=5, r=3):
        codim = p ** (r * p) - p**r - p - 1
        lower = _grouped(cs, p, r * p, codim)
        return int(o["lower_bound"]) == lower and o["violated"] == ("true" if r * p - r < lower else "false")

    return {
        "proof-inequalities": ("proof-inequalities --p 3 --r 18", proof),
        "index-reduction": ("index-reduction --p 3 --target 1,1,2 --fiber 1,1,1 --d 25",
                            lambda o: int(o["index"]) == index_reduction_reference(3, (1, 1, 2), (1, 1, 1), 25)),
        "prop1": ("prop1 --p 10007", prop1),
        "cofactor-m": ("cofactor-m --p 13 --k 3 --n 3", cofactor),
        "vp-factorial": ("vp-factorial --p 3 --method prime-power --n 1000000000", vp_factorial),
        "segre-degree": ("segre-degree --shape 9,9,9,9,9", segre),
        "bound-baseline": ("bound baseline --point 1000:1000000000", baseline),
        "karpenko-bound": ("karpenko-bound --p 3 --n 3 --codim 100000000",
                           lambda o: int(o["lower_bound"]) == _grouped(cs, 3, 3, 10**8)),
        "vp": (f"vp --p {BIG_PRIME} --n 5", lambda o: o["vp"] == "0"),
        "corestriction-cert": ("corestriction-cert --p 5 --r 3", cert),
    }


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_capped(argv, env, cap_s):
    """(seconds, exit code or None at the cap, stdout, stderr) of one capped child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, preexec_fn=_limit_child)
    try:
        stdout, stderr = proc.communicate(timeout=cap_s)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    if code is None:
        stdout, stderr = proc.communicate()
    return time.perf_counter() - start, code, stdout, stderr


def judge(check, code, stdout, stderr):
    """None if the probe was resolved, else why not."""
    if code is None:
        return f"still running at the {CAP_S} s cap"
    if code == 1:
        lines = stderr.strip().splitlines()
        if len(lines) == 1 and lines[0].startswith("error:"):
            return None
        return f"exit 1 without a one-line error: {stderr.strip()[-200:]!r}"
    if code != 0:
        return f"exit {code}: {stderr.strip()[-200:]!r}"
    try:
        ok = check(json.loads(stdout)["outputs"])
    except (ValueError, KeyError) as exc:
        return f"unparseable answer: {exc!r}"
    return None if ok else "wrong answer"


def run(ctx, out):
    import csatools as cs
    import csatools.verify  # noqa: F401  (the grouped Karpenko route used by the checks)

    sys.set_int_max_str_digits(0)  # answers to these probes may be very long numbers
    probes = _probes(cs)
    env = child_env(ctx.src)
    passes, per_probe = [], {name: [] for name in probes}
    outcomes = {}
    deadline = time.perf_counter() + ctx.seconds
    while not passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        for name, (command, check) in probes.items():
            argv = [sys.executable, "-c", ENTRY, *shlex.split(command), "--format", "json-like-stable-schema"]
            elapsed, code, stdout, stderr = run_capped(argv, env, CAP_S)
            per_probe[name].append(elapsed)
            out.attempted += 1
            problem = judge(check, code, stdout, stderr)
            outcomes[name] = problem or "resolved"
            if problem:
                out.fail(f"{command}: {problem}")
        passes.append(time.perf_counter() - start)
    out.detail["probe_outcomes"] = outcomes
    out.detail["cap_s"] = CAP_S
    if ctx.trace:
        for name, times in per_probe.items():
            out.metrics[f"oversized.{name}.s"] = statistics.median(times)
        out.extra_units = {f"oversized.{name}.s": "s" for name in probes}
        return
    out.metrics.update(latency_metrics("oversized", passes))
    out.metrics["setup_s"] = SetupSampler(ctx.src, "csatools", ctx.seconds).value()
    out.metrics["peak_rss_mb"] = peak_rss_mb(children=True)
