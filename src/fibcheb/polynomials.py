"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored in an ascending tuple (index i holds the coefficient
of x^i) with trailing zeros stripped, so equality is plain coefficient-wise
equality and the zero polynomial is the empty tuple with degree -1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import GaussianRational, RationalLike, format_rational


class Polynomial:
    """Immutable dense polynomial over the exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            (self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            (self.coefficient(i) - other.coefficient(i) for i in range(n))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial((-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial((c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                out[i + k] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "Polynomial":
        """The ``order``-th formal derivative; order 0 returns the polynomial."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        cs: Sequence[Fraction] = self.coeffs
        for _ in range(order):
            cs = tuple(Fraction(i) * c for i, c in enumerate(cs))[1:]
            if not cs:
                break
        return Polynomial(cs)

    def __call__(self, point):
        """Horner evaluation; exact for rational or Gaussian rational points."""
        if isinstance(point, int):
            point = Fraction(point)
        acc = GaussianRational(0) if isinstance(point, GaussianRational) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def eval_float_exact(self, x: float) -> float:
        """Value at the float point ``x``, exactly computed and rounded once.

        A float is a dyadic rational, so the value is computed by integer
        Horner (coefficients cleared to a common denominator, powers of the
        node's 2^-s denominator as shifts) and converted to float at the end.
        This is immune to cancellation between large monomial coefficients,
        and it is exactly odd/even symmetric in x.
        """
        if not self.coeffs:
            return 0.0
        fx = Fraction(x)
        num = fx.numerator
        s = fx.denominator.bit_length() - 1  # float denominators are powers of 2
        denom = math.lcm(*(c.denominator for c in self.coeffs))
        degree = self.degree
        acc = 0
        for i in range(degree, -1, -1):
            acc = acc * num + (int(self.coeffs[i] * denom) << (s * (degree - i)))
        return float(Fraction(acc, denom << (s * degree)))

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_text(self) -> str:
        """Full ascending form "c0 + c1*x + c2*x^2 + ...", zero terms included."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(format_rational(c))
            elif i == 1:
                parts.append(f"{format_rational(c)}*x")
            else:
                parts.append(f"{format_rational(c)}*x^{i}")
        return " + ".join(parts)

    def __str__(self):
        # Compact human form: skip zero terms, highest power first.
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = format_rational(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{format_rational(mag)}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial('{self}')"

    def __reduce__(self):
        return (Polynomial, (self.coeffs,))
