"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored in one form only, its integer lattice: a tuple of
integer numerators in ascending order (index i belongs to x^i) and one
positive common denominator.  The form is canonical: no trailing zero
numerator, gcd(den, *nums) = 1, and the zero polynomial is ((), 1) with
degree -1.  So equality is plain equality of the two fields, and the
``Fraction`` coefficients are derived only when they are read.

Sums, products, derivatives and evaluations (rational and Gaussian points
share one Horner loop) work on the integer numerators alone, and each result
is reduced to lowest terms once, at the end.  The family polynomials all have
denominator 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .scalars import GaussianRational, RationalLike, lattice_parts


class Polynomial:
    """Immutable dense polynomial over the exact rationals."""

    # coefficient i is _nums[i] / _den, in the canonical form above
    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value=None):
        raise AttributeError("Polynomial is immutable")

    __delattr__ = __setattr__

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_lattice(cls, nums: list[int], den: int) -> "Polynomial":
        """The polynomial with coefficients nums[i] / den (den > 0), one reduction in all."""
        self = cls.__new__(cls)
        self._store(nums, den)
        return self

    def _store(self, nums: list[int], den: int) -> None:
        """Fill the slots with nums / den (den > 0) in canonical form; consumes ``nums``."""
        while nums and nums[-1] == 0:
            nums.pop()
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [n // g for n in nums]
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(nums, den): coefficient i is nums[i] / den, den the least common denominator."""
        return self._nums, self._den

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in ascending order, each a reduced ``Fraction``."""
        return tuple(Fraction(n, self._den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self._nums

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        nums, den = self.integer_form()
        return Polynomial._from_lattice([-n for n in nums], den)

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, over the least common denominator of the two."""
        na, da = self.integer_form()
        nb, db = other.integer_form()
        den = math.lcm(da, db)
        out = [n * (den // da) for n in na]
        out.extend([0] * (len(nb) - len(out)))
        scale = sign * (den // db)
        for i, n in enumerate(nb):
            out[i] += scale * n
        return Polynomial._from_lattice(out, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            nums, den = self.integer_form()
            return Polynomial._from_lattice(
                [n * other.numerator for n in nums], den * other.denominator
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        na, da = self.integer_form()
        nb, db = other.integer_form()
        out = [0] * (len(na) + len(nb) - 1)
        for i, a in enumerate(na):
            if a:
                for k, b in enumerate(nb, i):
                    if b:
                        out[k] += a * b
        return Polynomial._from_lattice(out, da * db)

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "Polynomial":
        """The ``order``-th formal derivative; order 0 returns the polynomial."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        if order == 0:
            return self
        nums, den = self.integer_form()
        return Polynomial._from_lattice([math.perm(i, order) * nums[i] for i in range(order, len(nums))], den)

    def __call__(self, point):
        """Exact value at the rational or Gaussian point (p + r i) / q (r = 0 if rational).

        One integer Horner pass sums nums[i] (p + r i)^i q^(degree - i) as an
        integer pair, put over den q^degree and reduced once: a ``Fraction``,
        or a ``GaussianRational`` at a Gaussian point.
        """
        nums, den = self.integer_form()
        p, r, q = lattice_parts(point)
        acc_re, acc_im, q_power = 0, 0, 1
        for n in reversed(nums or (0,)):  # the zero polynomial as one zero term
            acc_re, acc_im = acc_re * p - acc_im * r + n * q_power, acc_re * r + acc_im * p
            q_power *= q
        den *= q_power // q
        value = Fraction(acc_re, den)
        if isinstance(point, GaussianRational):
            return GaussianRational(value, Fraction(acc_im, den))
        return value

    def eval_float_exact(self, x: float) -> float:
        """Value at the float point ``x``, exactly computed and rounded once.

        With x = p / 2^s, one integer Horner pass sums nums[i] p^i
        2^(s(degree - i)), and one correctly rounded division by den
        2^(s degree) makes it a float: immune to cancellation between large
        monomial coefficients, and exactly odd/even symmetric in x.
        """
        nums, den = self.integer_form()
        p, q = x.as_integer_ratio()
        s = q.bit_length() - 1  # float denominators are powers of 2
        acc, shift = 0, 0
        for n in reversed(nums or (0,)):  # the zero polynomial as one zero term
            acc = acc * p + (n << shift)
            shift += s
        return acc / (den << (shift - s))

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self):
        return hash((self._nums, self._den))

    def to_text(self) -> str:
        """Full ascending form "c0 + c1*x + c2*x^2 + ...", zero terms included."""
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)

    def __str__(self):
        # Compact human form: skip zero terms, highest power first.
        if self.is_zero:
            return "0"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial('{self}')"

    def __reduce__(self):
        return (Polynomial._from_lattice, (list(self._nums), self._den))
