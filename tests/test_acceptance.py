"""Acceptance suite: one test per criterion, each with its stated budget.

Every check is exact (integer equality, zero tolerance).  Each test
prints a single PASS/FAIL line; run with `pytest -v -s
tests/test_acceptance.py` to see them inline.
"""

import itertools
import math
import time

from csatools import bounds, brauer, chowring, cli, karpenko, valuation, verify


def _report(number: int, description: str, started: float, budget: float) -> float:
    elapsed = time.monotonic() - started
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"{status} criterion {number}: {description} ({elapsed:.2f}s < {budget:.0f}s)")
    return elapsed


def test_criterion_1_value_regressions():
    started = time.monotonic()

    report = bounds.prime_power_bound(3, 1, 1)
    assert (report.total, report.p_part, report.cofactor) == (90, 9, 10)
    report = bounds.prime_power_bound(2, 1, 1)
    assert (report.total, report.cofactor) == (2, 1)

    for m in range(1, 7):
        assert chowring.segre_degree_expansion((2, 2 * m)) == 2 * m
        assert chowring.segre_degree_closed_form((2, 2 * m)) == 2 * m

    for p, k, n in ((2, 1, 1), (3, 1, 1)):
        got = bounds.baseline_bound([(p**n, p**k)])
        assert got == p ** (n * p**k)

    elapsed = _report(1, "known-value regressions", started, 1.0)
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence_suites():
    # closed forms vs the Legendre oracle, over the stated sweep ranges
    started = time.monotonic()
    primes = [2, 3, 5, 7, 11, 13]
    for p in primes:
        for n in range(0, 7):
            assert valuation.vp_factorial_prime_power(p, n) == valuation.vp_factorial_oracle(
                p, p**n
            )
    for p in primes:
        for k in range(1, p):
            for n in range(0, 5):
                if k * p**n > 10**6:
                    continue
                assert valuation.vp_factorial_k_times_prime_power(
                    p, k, n
                ) == valuation.vp_factorial_oracle(p, k * p**n)
    for p in (2, 3, 5, 7):
        for k in range(0, 4):
            for n in range(0, 4):
                arg = p**k * (p**n - 1)
                if arg > 10**6:
                    continue
                assert valuation.vp_factorial_misc(p, k, n) == valuation.vp_factorial_oracle(
                    p, arg
                )
    elapsed = _report(2, "valuation closed forms vs Legendre oracle", started, 10.0)
    assert elapsed < 10.0

    # ring expansion vs closed form, exhaustively for m <= 4 and d_i <= 5
    started = time.monotonic()
    for m in range(1, 5):
        for shape in itertools.product(range(1, 6), repeat=m):
            assert chowring.segre_degree_expansion(shape) == chowring.segre_degree_closed_form(
                shape
            )
    elapsed = _report(2, "Segre degree expansion vs closed form", started, 30.0)
    assert elapsed < 30.0

    # valuation identity of the prime-power bound
    started = time.monotonic()
    for p in (2, 3, 5):
        for k in (0, 1, 2):
            for n in (1, 2):
                if p**k * (p**n - 1) > 10**4:
                    continue
                report = bounds.prime_power_bound(p, k, n)
                assert valuation.vp(p, report.total) == n * (p**k - 1)
                assert math.gcd(report.cofactor, p) == 1
    elapsed = _report(2, "prime-power bound valuation identity", started, 10.0)
    assert elapsed < 10.0


def test_criterion_3_corestriction_certificates():
    started = time.monotonic()
    for p, r in ((3, 1), (3, 2), (5, 1), (7, 1)):
        cert = karpenko.corestriction_certificate(p, r)
        symbolic = karpenko.proof_inequalities(p, r)
        assert cert.violated is True
        assert symbolic is True
        assert cert.violated == symbolic
        assert verify.proof_inequalities_by_window(p, r) is True
    elapsed = _report(3, "corestriction certificates, proved and by window", started, 60.0)
    assert elapsed < 60.0


def test_criterion_4_counterexample_reproduction():
    started = time.monotonic()
    for p in (3, 5, 7):
        report = brauer.prop1_scenario(p)
        assert (report["index_of_A"], report["index_of_A_prime"]) == (p**2, p**p)
    for p in (3, 5):
        rows = brauer.prop1_case_table(p)  # raises on any bucket mismatch
        assert len(rows) == p * p
        for row in rows:
            if row["i"] % p == p - 1:
                assert row["term"] == p**2 * p ** (p - 2)
            elif row["i"] % p != 0:
                assert row["term"] == p**2 * p ** (p - 1)
            else:
                assert row["term"] in (p * p**p, p**p)
    report = brauer.prop2_scenario(5, 2, 3)
    assert (report["index_of_A"], report["index_of_A_prime"]) == (25, 125)
    report = brauer.prop2_scenario(5, 1, 2)
    assert (report["index_of_A"], report["index_of_A_prime"]) == (5, 25)
    elapsed = _report(4, "counterexample scenarios and case tables", started, 5.0)
    assert elapsed < 5.0


def test_criterion_5_verify_all(capsys):
    started = time.monotonic()
    code = cli.run(["verify", "--all"])
    captured = capsys.readouterr()
    elapsed = time.monotonic() - started
    assert code == 0, captured.err
    assert "result: ok (7/7 suites)" in captured.out
    with capsys.disabled():
        status = "PASS" if elapsed < 120.0 else "FAIL"
        print(
            f"\n{status} criterion 5: verify --all exit 0 with all suites "
            f"({elapsed:.2f}s < 120s)"
        )
    assert elapsed < 120.0
