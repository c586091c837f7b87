"""Exact scalar arithmetic and combinatorial primitives.

Every coefficient in the library is an exact rational; ``fractions.Fraction``
already provides the canonical reduced form (positive denominator, gcd 1,
zero as 0/1), so it is used directly as the rational scalar type.  This module
adds the Gaussian rational (exact complex) scalar and the small combinatorial and
integer-lattice helpers every coefficient formula is built from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

RationalLike = Union[int, Fraction]

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    The out-of-range convention keeps sum-over-m formulas free of explicit
    boundary cases.  Negative n is rejected.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def dyadic_ratio(num: int, den: int, e: int) -> Fraction:
    """num / den * 2^e as one reduced Fraction: the power of two is a shift, and one gcd reduces it."""
    return Fraction(num << e, den) if e >= 0 else Fraction(num, den << -e)


def lattice_sum(pairs) -> tuple[int, int]:
    """The sum of the fractions p / q over integer pairs, as (P, Q) over a running lcm Q, unreduced."""
    total, den = 0, 1
    for p, q in pairs:
        if den % q:
            lcm = math.lcm(den, q)
            total, den = total * (lcm // den), lcm
        total += den // q * p
    return total, den


def double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for n={n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def sqrt_pi_over_gamma(q: int, offset: RationalLike) -> Fraction:
    """Exact value of sqrt(pi) / Gamma(q + offset) for offset 1/2 or 3/2, built once per (q, offset).

    Gamma at half-integers is a double-factorial multiple of sqrt(pi):

        Gamma(q + 1/2) = (2q-1)!! sqrt(pi) / 2^q
        Gamma(q + 3/2) = (2q+1)!! sqrt(pi) / 2^(q+1)

    so the ratio is the rational 2^q/(2q-1)!! resp. 2^(q+1)/(2q+1)!!.  Working
    with the ratio instead of Gamma itself keeps the derivative identities
    entirely inside exact rationals; no irrational scalar exists anywhere in
    the library.
    """
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    offset = Fraction(offset)
    if offset == HALF:
        return Fraction(2**q, double_factorial(2 * q - 1))
    if offset == THREE_HALVES:
        return Fraction(2 ** (q + 1), double_factorial(2 * q + 1))
    raise ValueError(f"offset must be 1/2 or 3/2, got {offset}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Arithmetic is a field: add, subtract, multiply, divide, integer powers.
    A value with zero imaginary part compares (and hashes) equal to the plain
    rational it represents, so Gaussian and rational results can be checked
    against each other directly.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value=None):
        raise AttributeError("GaussianRational is immutable")

    __delattr__ = __setattr__

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value, 0)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        """(a + bi) / (c + di) = ((ac + bd) + (bc - ad) i) / (c^2 + d^2)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (a, b), (c, d) = (self.re, self.im), (other.re, other.im)
        n2 = c * c + d * d
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((a * c + b * d) / n2, (b * c - a * d) / n2)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return GaussianRational(1) / self ** (-exponent)
        out = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        """Serialize as "p/q+r/s*i" (real form "p/q" when the imaginary part is 0)."""
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))


I = GaussianRational(0, 1)


def lattice_parts(value) -> tuple[int, int, int]:
    """Integers (p, r, q), q > 0, with value = (p + r i) / q; r = 0 for a rational value.

    q is the lcm of the denominators of the two parts, so integer sums and
    products of these triples need one reduction only, at the end.
    """
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        q = math.lcm(re.denominator, im.denominator)
        return re.numerator * (q // re.denominator), im.numerator * (q // im.denominator), q
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, 0, value.denominator
