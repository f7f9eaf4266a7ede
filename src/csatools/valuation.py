"""Exact p-adic valuation arithmetic.

Everything here is plain Python integers (arbitrary precision); no floats
are used anywhere in the package.  The module provides a Legendre-style
oracle v_p(n!) = sum floor(n/p^i), three closed-form counting identities
for factorials of special shapes, and exact multinomial coefficients.
product, multiplying in pairs, is the package's one product of many
factors.  The closed forms never call the oracle and vice versa, so
each side can be used to check the other.  refuse_oversized is the
package's one size limit: every route that builds a big number checks
its estimate first.  refuse_overlong is its one loop-step limit, for a
route whose loop runs longer than its output's size suggests.
Frozen is the base of the package's validated value types.

Prime validates every p the package takes with is_prime_64bit, at a
cost that grows with p: one gcd with 2 * 3 * ... * 37 decides every
n < 41^2, and above that Miller-Rabin runs on the first of four
published base sets that is deterministic below a bound past n, so on
at most seven bases.  The 2^64 bound is one of correctness, not of
cost, so it is not a refuse_oversized estimate.
"""

from __future__ import annotations

import itertools
import math
import operator

# The twelve primes up to 37, the trial divisors.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)  # 7420738134810, for trial division by one gcd
_TRIAL_CUTOFF = 41 * 41  # below it, an n with no factor up to 37 is prime
_PRIME_CHECK_LIMIT = 2**64
# (bound, bases): Miller-Rabin to these bases decides every n below bound.
# The first two rows are OEIS A014233's, the third is Jaeschke's (Math.
# Comp. 61, 1993) and the last Sinclair's (2011).  Every n that reaches a
# row is past its largest base.
_WITNESS_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (4_759_123_141, (2, 7, 61)),
    (_PRIME_CHECK_LIMIT, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)

# No route builds a number estimated past this many bits: that bounds
# memory and the time to print any answer.
SIZE_LIMIT_BITS = 2**21


def refuse_oversized(what: str, bits: int) -> None:
    """Raise ValueError if `what`, estimated at `bits` bits, is past SIZE_LIMIT_BITS.

    An estimate of 2^64 bits or more is named by the power of two above it,
    since str() of a huge int is quadratic before Python 3.12.
    """
    if bits > SIZE_LIMIT_BITS:
        shown = bits if bits < 2**64 else f"2^{bits.bit_length()}"
        raise ValueError(f"{what} would have up to {shown} bits, beyond the size limit "
                         f"of {SIZE_LIMIT_BITS} bits")


# No loop runs past this many steps.  index_reduction, the loop it bounds,
# needs 7^5 * 8 = 134,456 steps for its largest benchmark input.  On a
# 2-vCPU Xeon under Python 3.11 it takes about 0.1 s for 2^18 steps of 61
# coordinates a term and 1.3 s for 2^18 one-coordinate terms, where each
# term's own cost dominates.
STEP_LIMIT = 2**18


def refuse_overlong(what: str, base: int, exponent: int, factor: int) -> None:
    """Raise ValueError if `what`, base^exponent * factor loop steps, is past STEP_LIMIT.

    Both callers pass a Prime base and a factor of at least 1, so an
    exponent of STEP_LIMIT.bit_length() or more is past the limit, and
    the power is built only for a smaller exponent.
    """
    if exponent >= STEP_LIMIT.bit_length() or base**exponent * factor > STEP_LIMIT:
        raise ValueError(f"{what} would take {base}^{exponent} * {factor} loop steps, "
                         f"beyond the step limit of {STEP_LIMIT} steps")


class Frozen:
    """Base of an immutable value type with structural equality and hashing.

    A subclass names its fields in __slots__ and sets them, once validated,
    with object.__setattr__ in __init__.  Two instances of one class are
    equal when their fields are.  It stands in for a frozen dataclass:
    importing dataclasses would cost each CLI process about 10 ms.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """True if the odd n > max(bases) passes the strong (Miller-Rabin) test to every base."""
    d = n - 1
    s = (d & -d).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_64bit(n: int) -> bool:
    """Deterministic primality check for 0 <= n < 2**64.

    One gcd with 2 * 3 * ... * 37 does the trial division, which settles
    every n < 41^2.  Above that, Miller-Rabin runs on {2} below 2047,
    {2, 3} below 1373653, {2, 7, 61} below 4759123141, and on Sinclair's
    seven bases up to 2^64: at most seven rounds.
    """
    if n >= _PRIME_CHECK_LIMIT:
        raise ValueError(f"primality check is deterministic only below 2**64, got {n}")
    if n < 2:
        return False
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return n in _TRIAL_PRIMES
    if n < _TRIAL_CUTOFF:
        return True
    for bound, bases in _WITNESS_TIERS:
        if n < bound:
            return _strong_probable_prime(n, bases)


class Prime(int):
    """An integer validated to be prime at construction.

    Construction of a composite (or of anything below 2) raises ValueError,
    so a Prime instance is a trusted precondition everywhere downstream:
    passing a Prime returns it unchanged and skips the check.  Behaves as
    a plain int in all arithmetic.
    """

    def __new__(cls, value) -> "Prime":
        if isinstance(value, cls):
            return value
        v = operator.index(value)
        if not is_prime_64bit(v):
            raise ValueError(f"{v} is not a prime")
        return super().__new__(cls, v)


def vp(p: int, n: int) -> int:
    """Largest e such that p^e divides n, for n >= 1.

    v_p(0) would be infinite, so n = 0 is rejected.  Each run divides by
    p, p, p^2, p^4, ... while that divides: O(log^2 v) divisions, not v.
    """
    p = Prime(p)
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"v_p is only defined for n >= 1, got n={n}")
    v = 0
    while n % p == 0:
        n //= p
        q, e = p, 1  # q = p^e, what this run has divided out so far
        while n % q == 0:
            n //= q
            q, e = q * q, e + e
        v += e
        if e == 1:  # p itself no longer divides
            break
    return v


def vp_factorial_oracle(p: int, n: int) -> int:
    """v_p(n!) by direct summation of floor(n/p^i) (Legendre).

    Independent of every closed form in this module.  It loops log_p(n)
    times and its answer is smaller than n, so it needs no size limit.
    """
    p, n = Prime(p), operator.index(n)
    if n < 0:
        raise ValueError(f"factorial argument must be nonnegative, got {n}")
    total = 0
    q = n
    while q:
        q //= p
        total += q
    return total


def vp_factorial_prime_power(p: int, n: int) -> int:
    """v_p(p^n!) = (p^n - 1)/(p - 1), exactly.

    The division is exact: p^n - 1 = (p - 1)(p^{n-1} + ... + 1).
    """
    p, n = Prime(p), operator.index(n)
    if n < 0:
        raise ValueError(f"exponent must be nonnegative, got {n}")
    refuse_oversized("p^n", n * p.bit_length())
    return (p**n - 1) // (p - 1)


def vp_factorial_k_times_prime_power(p: int, k: int, n: int) -> int:
    """v_p((k p^n)!) = k * v_p(p^n!) for 1 <= k < p."""
    p, k, n = Prime(p), operator.index(k), operator.index(n)
    if not 1 <= k < p:
        raise ValueError(f"k must satisfy 1 <= k < p, got k={k} for p={p}")
    return k * vp_factorial_prime_power(p, n)


def vp_factorial_misc(p: int, k: int, n: int) -> int:
    """v_p((p^k (p^n - 1))!) = v_p(p^{k+n}!) - v_p(p^k!) - n.

    Expanded through vp_factorial_prime_power, this is
    p^k (p^n - 1)/(p - 1) - n.
    """
    p, k, n = Prime(p), operator.index(k), operator.index(n)
    if k < 0 or n < 0:
        raise ValueError(f"exponents must be nonnegative, got k={k}, n={n}")
    return vp_factorial_prime_power(p, k + n) - vp_factorial_prime_power(p, k) - n


def multinomial_bits(top: int, parts: list[int] | tuple[int, ...]) -> int:
    """The size estimate of multinomial(top, parts): (top - largest part) * bit_length(top).

    The coefficient is at most top^(top - largest part), so a single part costs nothing.
    """
    return (top - (max(parts) if parts else 0)) * top.bit_length()


def product(factors) -> int:
    """The product of the integers `factors` (1 for none), multiplied in pairs.

    Neighbours are multiplied in pairs, round after round, so each round
    costs about one multiplication of the answer's size (Borwein, J.
    Algorithms 6, 1985), where a running product costs one per factor.
    math.prod takes the last eight or fewer, which is all of a small call.
    """
    factors = list(factors)
    while len(factors) > 8:
        pairs = iter(factors)  # zipped with itself; an odd last factor waits a round
        factors = list(map(operator.mul, pairs, pairs)) + factors[len(factors) & ~1:]
    return math.prod(factors)


def multinomial(top: int, parts: list[int] | tuple[int, ...]) -> int:
    """Exact multinomial coefficient top! / prod(part_i!).

    The balanced product of the binomials over the running partial sums,
    so the full factorials are never materialized.  Requires
    sum(parts) == top.
    """
    top = operator.index(top)
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    parts = list(map(operator.index, parts))
    for part in parts:
        if part < 0:
            raise ValueError(f"parts must be nonnegative, got {part}")
    if sum(parts) != top:
        raise ValueError(f"parts {parts} sum to {sum(parts)}, expected top={top}")
    refuse_oversized("the multinomial", multinomial_bits(top, parts))
    return product(map(math.comb, itertools.accumulate(parts), parts))
