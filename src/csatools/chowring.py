"""Arithmetic in Z[l1,...,lm]/(l_i^{d_i}) and Segre-image degrees.

This is the Chow ring of a product of projective spaces
P^{d_1 - 1} x ... x P^{d_m - 1}, with l_i the hyperplane pullback from
the i-th factor.  Classes are kept sparse and canonical: a monomial with
some exponent e_i >= d_i is identically zero and is dropped eagerly, as
are zero coefficients, so equality of classes is structural equality.

The degree of the Segre image is computed here by expanding the top
power of the hyperplane sum in the ring, and by a single multinomial
coefficient.  `verify` checks the closed form against a third, linear
expansion of its own (segre_degree_walk); agreement of the routes is one
of the package's standing cross-checks.
"""

from __future__ import annotations

from operator import add, ge, index

from .valuation import Frozen, multinomial


class RingShape(Frozen):
    """Exponent bounds (d_1, ..., d_m), all >= 1, enforcing l_i^{d_i} = 0."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: tuple[int, ...]):
        bounds = tuple(map(index, bounds))
        if len(bounds) < 1:
            raise ValueError("a ring shape needs at least one factor")
        if any(d < 1 for d in bounds):
            raise ValueError(f"all exponent bounds must be >= 1, got {bounds}")
        object.__setattr__(self, "bounds", bounds)

    @property
    def factors(self) -> int:
        return len(self.bounds)

    @property
    def dimension(self) -> int:
        """sum(d_i - 1): the top total degree carrying a nonzero monomial."""
        return sum(self.bounds) - len(self.bounds)

    @property
    def top_monomial(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.bounds)


def _as_shape(shape) -> RingShape:
    return shape if isinstance(shape, RingShape) else RingShape(tuple(shape))


class ChowClass(Frozen):
    """A sparse element of Z[l1,...,lm]/(l_i^{d_i}).

    terms maps exponent vectors (tuples of length m) to nonzero integer
    coefficients.  Normalization happens at construction, the one home of
    l_i^{d_i} = 0 for outside input and multiply alike; instances are
    treated as immutable afterwards, so they are safe to share between
    threads.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape: RingShape, terms: dict):
        shape = _as_shape(shape)
        bounds = shape.bounds
        clean: dict[tuple[int, ...], int] = {}
        for exponents, coeff in terms.items():
            exponents = tuple(map(index, exponents))
            if len(exponents) != len(bounds):
                raise ValueError(
                    f"exponent vector {exponents} does not match shape {bounds}"
                )
            if min(exponents) < 0:
                raise ValueError(f"negative exponent in {exponents}")
            if any(map(ge, exponents, bounds)):
                continue  # l_i^{d_i} = 0
            coeff = clean.get(exponents, 0) + index(coeff)
            if coeff:
                clean[exponents] = coeff
            else:
                clean.pop(exponents, None)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", clean)

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def to_text(self) -> str:
        """Canonical rendering: terms in lexicographic exponent order.

        Example on shape (2, 2): "2·l1^1*l2^1".  The zero class renders
        as "0".  Every variable appears with its exponent, so the form is
        unambiguous and stable for golden tests.
        """
        if not self.terms:
            return "0"
        chunks = []
        for exponents in sorted(self.terms):
            coeff = self.terms[exponents]
            monomial = "*".join(
                f"l{i + 1}^{e}" for i, e in enumerate(exponents)
            )
            chunks.append(f"{coeff}·{monomial}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"ChowClass({self.shape.bounds}, {self.to_text()})"


def unit(shape) -> ChowClass:
    """The multiplicative identity 1."""
    shape = _as_shape(shape)
    return ChowClass(shape, {(0,) * shape.factors: 1})


def hyperplane_sum(shape) -> ChowClass:
    """l_1 + ... + l_m, the pullback of the ambient hyperplane class."""
    shape = _as_shape(shape)
    terms = {}
    for i in range(shape.factors):
        exponents = tuple(1 if j == i else 0 for j in range(shape.factors))
        terms[exponents] = 1
    return ChowClass(shape, terms)


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Ring product: distribute, add exponents; ChowClass truncates at the bounds."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape.bounds} vs {b.shape.bounds}")
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return ChowClass(a.shape, out)


def power(a: ChowClass, e: int) -> ChowClass:
    """a^e by binary exponentiation; a^0 is the unit class."""
    e = index(e)
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    result = unit(a.shape)
    base = a
    while e:
        if e & 1:
            result = multiply(result, base)
        e >>= 1
        if e:
            base = multiply(base, base)
    return result


def point_degree(a: ChowClass) -> int:
    """Coefficient of the top monomial prod l_i^{d_i - 1} (a point class)."""
    return a.terms.get(a.shape.top_monomial, 0)


def segre_degree_expansion(shape) -> int:
    """Segre-image degree by brute-force ring expansion.

    Expands (l_1 + ... + l_m)^(sum d_i - m) and reads off the coefficient
    of the point class.
    """
    shape = _as_shape(shape)
    return point_degree(power(hyperplane_sum(shape), shape.dimension))


def segre_degree_closed_form(shape) -> int:
    """Segre-image degree as the multinomial (sum d_i - m; d_1-1, ..., d_m-1)."""
    shape = _as_shape(shape)
    return multinomial(shape.dimension, [d - 1 for d in shape.bounds])
