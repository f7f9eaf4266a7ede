"""One-shot verification suites behind `csatools verify`.

Each suite replays a family of exact identities: frozen regression
values, closed forms against their brute-force oracles, and the
structural invariants of every module.  Suites are deterministic (any
randomness is seeded) and sized for desk-scale runtimes, so `verify
--all` doubles as a smoke test of the whole package.

This module also hosts five oracles, kept here rather than in the
library proper so each stays independent of the route it checks:
karpenko_lower_bound_grouped, a structurally different
re-implementation of the cycle-bound minimum (the largest term of each
valuation class instead of the library's walk over the p-adic digits of
the codimension); segre_degree_walk, a ring expansion of the Segre
degree over packed monomials that uses neither the multinomial nor
chowring's ChowClass or multiply (it borrows only chowring's check of
its factor bounds); index_reduction_by_min_form, the index-reduction gcd
as a minimum over p - 1 shifts, on raw residues; and
proof_inequalities_by_window, the symbolic certificate's window of
valuations checked term by term, where the library route returns the
proved answer; and prime_power_total_by_factorials, the prime-power total
as a ratio of factorials, which no library route builds.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Iterator
from typing import NamedTuple

from . import bounds, brauer, chowring, karpenko, valuation
from .errors import ConsistencyError


class SuiteResult(NamedTuple):
    """One suite's name, its number of checks, and a message per failed check."""

    name: str
    checks: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


# (got, want, label): one check a suite yields, passed when got == want
Check = tuple[object, object, str]


def karpenko_lower_bound_grouped(p: int, n: int, codim: int) -> int:
    """The cycle-bound minimum, grouped by valuation class.

    For fixed v, the candidates i + n - v with v_p(codim - i) = v are
    minimized by the largest j = codim - i in that class, and that j is
    computable directly: take floor(codim / p^v) and step down once if p
    still divides it.  O(log codim) instead of O(codim).
    """
    p = valuation.Prime(p)
    if n < 1 or codim < 1:
        raise ValueError("need n >= 1 and codim >= 1")
    best = codim
    pv = 1
    v = 0
    while pv <= codim:
        q = codim // pv
        if q % p == 0:
            q -= 1
        if q >= 1:
            j = q * pv  # largest j <= codim with v_p(j) exactly v
            cand = (codim - j) + n - v
            if cand < best:
                best = cand
        pv *= p
        v += 1
    return best


def segre_degree_walk(bounds) -> tuple[int, bool]:
    """The Segre-image degree by expanding h = l_1 + ... + l_m one factor at a time.

    Returns (coefficient of the point class in h^D, whether h^(D+1) = 0)
    for D = sum(d_i - 1).  Only the current degree is kept, as a dict from
    packed monomials to coefficients: a monomial is one mixed-radix int
    with digit i = e_i and stride_i = d_1 * ... * d_(i-1), so multiplying
    by l_i adds stride_i while digit i is below d_i - 1, and the point
    class is the code prod(d_i) - 1.  Each step touches every monomial of
    its degree once per factor, O(m * prod(d_i)) dict updates in all.
    """
    bounds = chowring._bounds(bounds)
    steps = []
    stride = 1
    for d in bounds:
        steps.append((stride, d, d - 1))
        stride *= d

    def times_h(layer: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for code, coeff in layer.items():
            for step, d, top in steps:
                if code // step % d < top:
                    key = code + step
                    out[key] = out.get(key, 0) + coeff
        return out

    layer = {0: 1}
    for _ in range(sum(bounds) - len(bounds)):
        layer = times_h(layer)
    return layer.get(stride - 1, 0), not times_h(layer)


def index_reduction_by_min_form(p: int, target, fiber, d: int) -> int:
    """min(index(B), p^d * min over c = 1..p-1 of index(B + c*A)), B = target, A = fiber.

    Every term of the index-reduction gcd is a power of p, so the gcd is
    its least term: terms with p | i are at least index(B), the one at
    i = p^d equals it, and one with p coprime to i is p^d * index(B + c*A)
    for c = i mod p.  index(x) = p^(number of x's coordinates not
    divisible by p), evaluated on raw residues in O(p * n).
    """
    def index(coords) -> int:
        return p ** sum(1 for x in coords if x % p)

    shifted = min(index([b + c * a for a, b in zip(fiber, target)]) for c in range(1, p))
    return min(index(target), p**d * shifted)


def proof_inequalities_by_window(p: int, r: int) -> bool:
    """v_p(k - i) < r + i on the window, k = p^{rp} - p^r - p - 1, one valuation a term.

    The window is i = p - 1, 2p - 1, ... below rp - r: outside it
    v_p(k - i) < r + i holds for every i (see karpenko.proof_inequalities).
    On it k - i has the valuation of the small number p + 1 + i, so this
    takes at most ceil((rp - r)/p) valuations of numbers below rp + p + 1
    and builds no p^{rp}.
    """
    return all(valuation.vp(p, p + 1 + i) < r + i for i in range(p - 1, r * p - r, p))


def prime_power_total_by_factorials(p: int, k: int, n: int) -> int:
    """(p^k (p^n - 1))! / ((p^n - 1)!)^{p^k}, the total the library builds as a multinomial."""
    pk, pn = p**k, p**n
    return math.factorial(pk * (pn - 1)) // math.factorial(pn - 1) ** pk


def _read(read, run, *args):
    """read(run(*args)), or the ConsistencyError run raised, which equals no expected value."""
    try:
        report = run(*args)
    except ConsistencyError as exc:
        return exc
    return read(report)


def _partitions(total: int, maximum: int | None = None):
    """Yield all partitions of `total` as nonincreasing tuples."""
    if maximum is None:
        maximum = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, maximum), 0, -1):
        for tail in _partitions(total - head, head):
            yield (head,) + tail


def _random_chow_class(rng: random.Random, shape: tuple[int, ...]) -> chowring.ChowClass:
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        exps = tuple(rng.randrange(0, d) for d in shape)
        terms[exps] = rng.randrange(-3, 4)
    return chowring.ChowClass(shape, terms)


def suite_known_values() -> Iterator[Check]:
    """Frozen regression values for every headline quantity."""
    b = bounds.prime_power_bound(3, 1, 1)
    yield ((b.total, b.p_part, b.cofactor), (90, 9, 10), "prime_power_bound(3,1,1)")
    b = bounds.prime_power_bound(2, 1, 1)
    yield ((b.total, b.cofactor), (2, 1), "prime_power_bound(2,1,1)")

    for m in range(1, 7):
        shape = (2, 2 * m)
        yield (chowring.segre_degree_expansion(shape), 2 * m, f"segre expansion {shape}")
        yield (chowring.segre_degree_closed_form(shape), 2 * m, f"segre closed form {shape}")
    yield (chowring.segre_degree_expansion((2, 2)), 2, "segre (2,2)")
    yield (chowring.segre_degree_expansion((3, 3, 3)), 90, "segre (3,3,3)")
    yield (chowring.segre_degree_closed_form((5,)), 1, "segre single factor")

    for p, k, n in ((2, 1, 1), (3, 1, 1)):
        got = bounds.baseline_bound([(p**n, p**k)])
        yield (got, p ** (n * p**k), f"baseline p={p},k={k},n={n}")
    yield (bounds.baseline_bound([(2, 1), (2, 1)]), 4, "baseline two quaternions")
    yield (bounds.baseline_bound([(1, 5)]), 1, "baseline split algebra")

    g = bounds.general_bound(bounds.AlgebraShape((2, 2), 2, 2))
    yield ((g.remainder, g.total), (0, 2), "general_bound (2,2) I=2 P=2")
    g = bounds.general_bound(bounds.AlgebraShape((3, 3, 3), 3, 3))
    yield ((g.remainder, g.total), (0, 90), "general_bound (3,3,3) I=3 P=3")
    g = bounds.general_bound(bounds.AlgebraShape((4,), 4, 4))
    yield ((g.remainder, g.total), (3, 64), "general_bound (4,) I=4 P=4")

    yield (bounds.cofactor_m(2, 1, 1), 1, "cofactor_m(2,1,1)")
    yield (bounds.cofactor_m(3, 1, 1), 10, "cofactor_m(3,1,1)")
    yield (bounds.bound_improvement(2, 1, 1), (4, 2), "bound_improvement(2,1,1)")
    yield (bounds.bound_improvement(3, 1, 1), (27, 9), "bound_improvement(3,1,1)")

    yield (karpenko.karpenko_lower_bound(2, 1, 1), 1, "karpenko bound (2,1,1)")
    yield (karpenko.karpenko_lower_bound(3, 2, 3), 1, "karpenko bound (3,2,3)")

    v = brauer.BrauerVector
    yield (brauer.index_reduction(v(3, (1, 1, 2)), v(3, (1, 1, 1)), 2), 27, "index_reduction p=3")
    yield (brauer.index_reduction(v(5, (1, 2, 3)), v(5, (1, 1, 1)), 2), 125, "index_reduction p=5")
    yield (brauer.index_reduction(v(3, (1, 1, 1)), v(3, (1, 1, 1)), 2), 9, "index_reduction base class")


def suite_valuation_oracle() -> Iterator[Check]:
    """Closed-form counting identities against the Legendre oracle."""
    primes = [2, 3, 5, 7, 11, 13]

    for p in primes:
        for n in range(0, 7):
            yield (
                valuation.vp_factorial_prime_power(p, n),
                valuation.vp_factorial_oracle(p, p**n),
                f"v_{p}(({p}^{n})!)",
            )

    for p in primes:
        for k in range(1, p):
            for n in range(0, 5):
                yield (
                    valuation.vp_factorial_k_times_prime_power(p, k, n),
                    valuation.vp_factorial_oracle(p, k * p**n),
                    f"v_{p}(({k}*{p}^{n})!)",
                )

    for p in (2, 3, 5, 7):
        for k in range(0, 4):
            for n in range(0, 4):
                yield (
                    valuation.vp_factorial_misc(p, k, n),
                    valuation.vp_factorial_oracle(p, p**k * (p**n - 1)),
                    f"v_{p}(({p}^{k}({p}^{n}-1))!)",
                )

    for top in range(0, 21):
        for parts in _partitions(top):
            prod = 1
            for part in parts:
                prod *= math.factorial(part)
            yield (
                valuation.multinomial(top, parts) * prod,
                math.factorial(top),
                f"multinomial identity {top} {parts}",
            )

    rng = random.Random(1201)
    for _ in range(60):
        top = rng.randrange(0, 40)
        parts = []
        left = top
        while left > 0:
            c = rng.randrange(1, left + 1)
            parts.append(c)
            left -= c
        coeff = valuation.multinomial(top, parts)
        for p in (2, 3, 5):
            want = valuation.vp_factorial_oracle(p, top) - sum(
                valuation.vp_factorial_oracle(p, part) for part in parts
            )
            yield (valuation.vp(p, coeff), want, f"v_{p} of multinomial({top},{parts})")


def suite_segre_degree() -> Iterator[Check]:
    """Ring expansion vs closed form, exhaustively for m <= 4, d_i <= 5."""
    for m in range(1, 5):
        for bounds_tuple in itertools.product(range(1, 6), repeat=m):
            expansion, vanishes = segre_degree_walk(bounds_tuple)
            closed = chowring.segre_degree_closed_form(bounds_tuple)
            yield (expansion, closed, f"segre degree {bounds_tuple}")
            yield (expansion > 0, True, f"point degree positive {bounds_tuple}")
            yield (bool(vanishes), True, f"power beyond dimension vanishes {bounds_tuple}")


def suite_chow_laws() -> Iterator[Check]:
    """Commutativity, associativity and unit laws on seeded random classes."""
    rng = random.Random(91)
    for shape in ((2, 2), (3, 2), (2, 2, 2), (4, 3)):
        one = chowring.unit(shape)
        for _ in range(12):
            a = _random_chow_class(rng, shape)
            b = _random_chow_class(rng, shape)
            c = _random_chow_class(rng, shape)
            yield (
                chowring.multiply(a, b),
                chowring.multiply(b, a),
                f"commutativity on {shape}",
            )
            yield (
                chowring.multiply(chowring.multiply(a, b), c),
                chowring.multiply(a, chowring.multiply(b, c)),
                f"associativity on {shape}",
            )
            yield (chowring.multiply(a, one), a, f"unit on {shape}")


def suite_bound_valuation() -> Iterator[Check]:
    """v_p(total) = n(p^k - 1), coprimality, and the prime-power total against factorials."""
    for p in (2, 3, 5):
        for k in (0, 1, 2):
            for n in (1, 2):
                report = bounds.prime_power_bound(p, k, n)
                pk, pn = p**k, p**n
                want = n * (pk - 1)
                yield (valuation.vp(p, report.total), want, f"v_{p}(total) p={p},k={k},n={n}")
                yield (math.gcd(report.cofactor, p), 1, f"gcd(m,p) p={p},k={k},n={n}")
                general = bounds.general_bound(bounds.AlgebraShape((pn,) * pk, pk, pk))
                yield (general.remainder, 0, f"r=0 p={p},k={k},n={n}")
                yield (
                    report.total,
                    prime_power_total_by_factorials(p, k, n),
                    f"prime-power total vs factorial ratio p={p},k={k},n={n}",
                )
    for d in range(1, 6):
        for period in (1, d):
            g = bounds.general_bound(bounds.AlgebraShape((d,), d, period))
            yield (g.multinomial_factor, 1, f"single-component multinomial d={d}")
            yield (g.total, period ** ((d - 1) % d), f"single-component total d={d},P={period}")


def suite_karpenko_certificates() -> Iterator[Check]:
    """Closed-form certificates, the proved route vs its window oracle, and the grouped oracle."""
    sweep_cap = 10**7
    for p in (3, 5, 7):
        rr = 1
        while p ** (rr * p) <= sweep_cap:
            cert = karpenko.corestriction_certificate(p, rr)
            yield (bool(cert.violated), True, f"certificate violated p={p},r={rr}")
            yield (
                karpenko.proof_inequalities(p, rr),
                proof_inequalities_by_window(p, rr),
                f"proved vs window p={p},r={rr}",
            )
            yield (cert.codim, p ** (rr * p) - p**rr - p - 1, f"codimension formula p={p},r={rr}")
            yield (cert.observed_valuation, rr * p - rr, f"observed valuation p={p},r={rr}")
            rr += 1

    # the symbolic route against its window, past the sweep above
    for p, rr in ((3, 5), (5, 3), (7, 5), (11, 2), (13, 1)):
        label = f"proved vs window only p={p},r={rr}"
        yield (karpenko.proof_inequalities(p, rr), proof_inequalities_by_window(p, rr), label)

    rng = random.Random(422)
    grid = [(p, n, k) for p in (2, 3, 5, 7) for n in (1, 2, 3) for k in (1, 2, 3, 7, 26, 120)]
    grid += [(rng.choice((2, 3, 5)), rng.randrange(1, 6), rng.randrange(1, 4000)) for _ in range(40)]
    grid += [(3, 3, 20), (5, 5, 3114), (3, 6, 716)]
    for p, n, k in grid:
        closed = karpenko.karpenko_lower_bound(p, n, k)
        grouped = karpenko_lower_bound_grouped(p, n, k)
        yield (closed, grouped, f"closed form vs grouped p={p},n={n},k={k}")
        yield (closed <= k, True, f"bound <= codim p={p},n={n},k={k}")

    aux = karpenko.auxiliary_inequalities
    yield (tuple(aux(3, 1)), (True, True), "auxiliary (3,1)")
    yield (aux(2, 1).pr_ge_r_plus_2, False, "auxiliary (2,1) first fails")
    yield (tuple(aux(3, 4)), (True, True), "auxiliary (3,4)")


def suite_brauer_model() -> Iterator[Check]:
    """Index reduction against its min form, then the scenarios and case tables.

    The min-form sweep runs first, so a wrong index_reduction shows up as
    labelled failures before the scenarios' ConsistencyErrors.
    """
    rng = random.Random(77)
    for p in (3, 5):
        for _ in range(10):
            n = rng.randrange(1, 5)
            target, fiber = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))
            a = brauer.BrauerVector(p, fiber)
            for b in (target, (0,) * n):
                for d in (1, 2):
                    got = brauer.index_reduction(brauer.BrauerVector(p, b), a, d)
                    label = f"index reduction vs min form p={p},d={d},B={b},A={fiber}"
                    yield (got, index_reduction_by_min_form(p, b, fiber, d), label)

    pair = operator.itemgetter("index_of_A", "index_of_A_prime")
    for p in (3, 5, 7):
        yield (_read(pair, brauer.prop1_scenario, p), (p**2, p**p), f"prop1 scenario p={p}")
        yield (_read(len, brauer.prop1_case_table, p), p * p, f"prop1 table length p={p}")
        for n in range(2, p):
            for d in range(1, n):
                got = _read(pair, brauer.prop2_scenario, p, d, n)
                yield (got, (p**d, p**n), f"prop2 scenario p={p},d={d},n={n}")


# suite name -> suite, in the order `verify --all` runs them
_SUITES = {
    "known-values": suite_known_values,
    "valuation-oracle": suite_valuation_oracle,
    "segre-degree": suite_segre_degree,
    "chow-laws": suite_chow_laws,
    "bound-valuation": suite_bound_valuation,
    "karpenko-certificates": suite_karpenko_certificates,
    "brauer-model": suite_brauer_model,
}


def run_suites(names: list[str] | None = None) -> list[SuiteResult]:
    """Run the named suites in the order given (all of them by default).

    An unknown name raises ValueError before any suite runs.  Each check
    a suite yields is counted, and a mismatch is recorded under its
    label.  An exception inside a suite is recorded as that suite's one
    failure, with no checks, so the remaining suites still run and the
    caller sees an internal failure rather than a domain error.
    """
    names = list(_SUITES) if names is None else names
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}")
    results = []
    for name in names:
        checks, failures = 0, []
        try:
            for got, want, label in _SUITES[name]():
                checks += 1
                if got != want:
                    failures.append(f"{label}: got {got!r}, want {want!r}")
        except Exception as exc:
            checks, failures = 0, [f"{type(exc).__name__}: {exc}"]
        results.append(SuiteResult(name, checks, failures))
    return results
