"""library-mix: a seeded stream of production-route calls across the five math modules.

Inputs are moderate to large and mostly distinct, so a cache that helps
verify-all gains little here, while making a route closed-form shows even
if the oracles stay slow.  One operation is one library call, including
the construction of its argument objects.  The stream is drawn from
`random.Random(seed)`; a run consumes as much of it as fits in the
measured time.  Every result is checked afterwards, outside the timed
region, against a route independent of the one that produced it; a call
that raises or answers wrongly is counted as failed and its time is
dropped from the latency samples.

The mix is not measured user traffic: there is no traffic data for this
library.  Each call kind gets the same share of the stream, so no weight
is invented; sizes follow the ranges the benchmark's design names, and
the ones it does not name are chosen here and stated below.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from harness import SetupSampler, latency_metrics, peak_rss_mb, traced_units

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
LARGE_PRIMES = (998244353, 1000000007, 4294967291, 2305843009213693951, 18446744073709551557)
ORACLE_ARG_MAX = 10**8  # keeps every vp_factorial_* argument within the oracle's limit
TRACED_CALLS = 1000  # the unit of work of a traced run: the first calls of the stream


# Heavy-tailed parameters are stratified: a kind's n-th call takes the
# (n mod len)-th stratum, so every run of a few thousand calls has nearly
# the same cost profile whatever the seed, and the seed varies the rest.
KARPENKO_CODIM_MAX = 2 * 10**5
KARPENKO_STRATA = 12  # equal slices of log(codim)
INDEX_CASES = tuple((p, d) for p in (3, 5, 7) for d in range(1, 6))
PROOF_CASES = tuple([(3, r) for r in range(1, 11)]
                    + [(p, r) for p, r_max in ((5, 6), (7, 5), (11, 4), (13, 3)) for r in range(1, r_max + 1)])
PRIME_POWER_CASES = tuple((p, k, n) for p in (2, 3, 5, 7, 11, 13) for k in range(4) for n in range(1, 4)
                          if p**k * (p**n - 1) <= 3000)
SEGRE_SHAPES = tuple(shape for m in (3, 4, 5) for shape in itertools.combinations_with_replacement(range(2, 6), m)
                     if math.prod(shape) <= 600)


def _composition(rng, top, most):
    cuts = sorted(rng.randrange(0, top + 1) for _ in range(rng.randrange(0, most)))
    edges = [0, *cuts, top]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def _exponent_below(rng, p, limit, times=1):
    """A uniform n >= 0 with times * p^n <= limit."""
    n_max = 0
    while times * p ** (n_max + 1) <= limit:
        n_max += 1
    return rng.randint(0, n_max)


def _gen_vp(rng, slot):
    p = rng.choice(LARGE_PRIMES if slot % 2 else SMALL_PRIMES)  # small and large primes in equal shares
    return (p, p ** rng.randint(0, 60 if p < 100 else 3) * rng.randint(1, 2**64))


def _gen_multinomial(rng, slot):
    top = rng.randint(0, 300)
    return (top, _composition(rng, top, 6))


def _gen_vpf_prime_power(rng, slot):
    p = rng.choice(SMALL_PRIMES)
    return (p, _exponent_below(rng, p, ORACLE_ARG_MAX))


def _gen_vpf_k_times(rng, slot):
    p = rng.choice(SMALL_PRIMES)
    k = rng.randint(1, p - 1)
    return (p, k, _exponent_below(rng, p, ORACLE_ARG_MAX, k))


def _gen_vpf_misc(rng, slot):
    p = rng.choice(SMALL_PRIMES[:8])
    while True:
        k, n = rng.randint(0, 12), rng.randint(0, 12)
        if p**k * (p**n - 1) <= ORACLE_ARG_MAX:
            return (p, k, n)


def _gen_general_bound(rng, slot):
    degrees = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
    index = rng.randint(1, 30)
    period = rng.choice([d for d in range(1, index + 1) if index % d == 0])
    return (degrees, index, period)


def _gen_prime_power_args(rng, slot):
    return PRIME_POWER_CASES[slot % len(PRIME_POWER_CASES)]


def _gen_segre(rng, slot):
    shape = list(SEGRE_SHAPES[slot % len(SEGRE_SHAPES)])
    rng.shuffle(shape)
    return (tuple(shape),)


def _gen_karpenko(rng, slot):
    stratum = slot % KARPENKO_STRATA + rng.random()
    codim = max(1, int(KARPENKO_CODIM_MAX ** (stratum / KARPENKO_STRATA)))
    return (rng.choice((2, 3, 5, 7)), rng.randint(1, 6), codim)


def _gen_index_reduction(rng, slot):
    p, d = INDEX_CASES[slot % len(INDEX_CASES)]
    n = rng.randint(1, 8)
    target = tuple(rng.randrange(p) for _ in range(n))
    fiber = tuple(rng.randrange(p) for _ in range(n))
    return (p, target, fiber, d)


def _gen_proof_inequalities(rng, slot):
    return PROOF_CASES[slot % len(PROOF_CASES)]


# kind -> (input generator, call into csatools)
def _calls(cs):
    v, b, c, k, br = cs.valuation, cs.bounds, cs.chowring, cs.karpenko, cs.brauer
    # Attributes are looked up at call time, so a traced run sees its wrappers.
    return {
        "vp": (_gen_vp, lambda a: v.vp(*a)),
        "multinomial": (_gen_multinomial, lambda a: v.multinomial(a[0], list(a[1]))),
        "vp_factorial_prime_power": (_gen_vpf_prime_power, lambda a: v.vp_factorial_prime_power(*a)),
        "vp_factorial_k_times_prime_power": (_gen_vpf_k_times, lambda a: v.vp_factorial_k_times_prime_power(*a)),
        "vp_factorial_misc": (_gen_vpf_misc, lambda a: v.vp_factorial_misc(*a)),
        "general_bound": (_gen_general_bound, lambda a: b.general_bound(b.AlgebraShape(*a))),
        "cofactor_m": (_gen_prime_power_args, lambda a: b.cofactor_m(*a)),
        "prime_power_bound": (_gen_prime_power_args, lambda a: b.prime_power_bound(*a)),
        "segre_degree_expansion": (_gen_segre, lambda a: c.segre_degree_expansion(*a)),
        "karpenko_lower_bound": (_gen_karpenko, lambda a: k.karpenko_lower_bound(*a)),
        "index_reduction": (_gen_index_reduction, lambda a: br.index_reduction(
            br.BrauerVector(a[0], a[1]), br.BrauerVector(a[0], a[2]), a[3])),
        "proof_inequalities": (_gen_proof_inequalities, lambda a: k.proof_inequalities(*a)),
    }


def stream(seed: int, calls: dict):
    """Endless seeded sequence of (kind, args): every kind once per round, in shuffled order."""
    rng = random.Random(seed)
    deck = list(calls)
    slots = dict.fromkeys(calls, 0)
    while True:
        rng.shuffle(deck)
        for kind in deck:
            yield kind, calls[kind][0](rng, slots[kind])
            slots[kind] += 1


# --- correctness gate: each check uses a route independent of the one timed ---


def _vp_ok(a, got):
    p, n = a
    return n % p**got == 0 and (n // p**got) % p != 0


def _multinomial_ref(top, parts):
    out = math.factorial(top)
    for part in parts:
        out //= math.factorial(part)
    return out


def _cofactor_ref(p, k, n):
    """m from the multinomial identity: m * p^(n(p^k-1)) = ((p^k(p^n-1)); p^n-1, ..., p^n-1)."""
    pk, pn = p**k, p**n
    whole = _multinomial_ref(pk * (pn - 1), [pn - 1] * pk)
    m, residue = divmod(whole, p ** (n * (pk - 1)))
    return m if residue == 0 and m % p != 0 else None


def index_reduction_reference(p, target, fiber, d):
    """min(index(B), p^d * min_{c=1..p-1} index(B + c*A)) in the p-power model.

    Each gcd term is a power of p, so the gcd over i = 1..p^d is a minimum:
    i with p | i contributes at least index(B) (and i = p^d exactly that),
    and i prime to p contributes p^d * index(B + (i mod p) * A).
    """

    def index(coords):
        return p ** sum(1 for x in coords if x % p)

    shifted = min(index([b + c * a for a, b in zip(fiber, target)]) for c in range(1, p))
    return min(index(target), p**d * shifted)


def _proof_ref(cs, p, r):
    """The corestriction presentation fails iff the observed valuation undershoots
    the cycle bound, evaluated by the grouped O(log codim) route."""
    k = p ** (r * p) - p**r - p - 1
    return r * p - r < cs.verify.karpenko_lower_bound_grouped(p, r * p, k)


def _checks(cs):
    legendre = cs.valuation.vp_factorial_oracle
    return {
        "vp": _vp_ok,
        "multinomial": lambda a, got: got == _multinomial_ref(a[0], a[1]),
        "vp_factorial_prime_power": lambda a, got: got == legendre(a[0], a[0] ** a[1]),
        "vp_factorial_k_times_prime_power": lambda a, got: got == legendre(a[0], a[1] * a[0] ** a[2]),
        "vp_factorial_misc": lambda a, got: got == legendre(a[0], a[0] ** a[1] * (a[0] ** a[2] - 1)),
        "general_bound": lambda a, got: (
            got.multinomial_factor == _multinomial_ref(sum(a[0]) - len(a[0]), [d - 1 for d in a[0]])
            and got.total == got.multinomial_factor * a[2] ** ((sum(a[0]) - len(a[0])) % a[1])
        ),
        "cofactor_m": lambda a, got: got == _cofactor_ref(*a),
        "prime_power_bound": lambda a, got: (
            got.cofactor == _cofactor_ref(*a)
            and got.total == a[0] ** (a[2] * (a[0] ** a[1] - 1)) * got.cofactor
        ),
        "segre_degree_expansion": lambda a, got: got == cs.chowring.segre_degree_closed_form(*a),
        "karpenko_lower_bound": lambda a, got: got == cs.verify.karpenko_lower_bound_grouped(*a),
        "index_reduction": lambda a, got: got == index_reduction_reference(*a),
        "proof_inequalities": lambda a, got: got == _proof_ref(cs, *a),
    }


def run(ctx, out):
    import csatools.verify  # noqa: F401  (the grouped Karpenko route used by the gate)
    import csatools as cs

    calls = _calls(cs)
    checks = _checks(cs)
    kind_counts: dict[str, int] = {}

    def check(records) -> list[bool]:
        passed = []
        for kind, args, got in records:
            out.attempted += 1
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            if isinstance(got, Exception):
                problem = f"raised {got!r}"
            else:
                problem = None if checks[kind](args, got) else "gave a wrong answer"
            if problem:
                out.fail(f"{kind}{args} {problem}")
            passed.append(problem is None)
        return passed

    def call(kind, args):
        try:
            return calls[kind][1](args)
        except Exception as exc:  # counted as a failed operation by check()
            return exc

    if ctx.trace:
        source = stream(ctx.seed, calls)
        unit_inputs = [next(source) for _ in range(TRACED_CALLS)]

        def unit(span):
            records = []
            for kind, args in unit_inputs:
                with span(f"op.{kind}"):
                    records.append((kind, args, call(kind, args)))
            return records

        out.metrics.update(traced_units(unit, check, ctx.seconds, ctx.tracer))
        out.detail["calls_per_traced_unit"] = TRACED_CALLS
        return

    setup = SetupSampler(ctx.src, "csatools", ctx.seconds)
    times, records = [], []
    now = time.perf_counter
    deadline = now() + ctx.seconds
    for kind, args in stream(ctx.seed, calls):
        if times and now() >= deadline:
            break
        setup.tick()
        start = now()
        got = call(kind, args)
        times.append(now() - start)
        records.append((kind, args, got))
    out.metrics["peak_rss_mb"] = peak_rss_mb()  # before the gate, which holds more memory
    out.metrics["setup_s"] = setup.value()
    times = [t for t, ok in zip(times, check(records)) if ok]
    if times:
        out.metrics.update(latency_metrics("library-mix", times))
    out.detail["samples"] = len(times)
    out.detail["distinct_input_share"] = len({(kind, args) for kind, args, _ in records}) / len(records)
    out.detail["calls_by_kind"] = dict(sorted(kind_counts.items()))
