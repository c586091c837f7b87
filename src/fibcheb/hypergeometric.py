"""Terminating Gauss hypergeometric series over exact rationals.

Only terminating series are supported: at least one upper parameter must be a
nonpositive integer, in which case the sum is finite and exactly computable.
When both upper parameters are nonpositive integers the series truncates at
the smaller of the two indices (the standard convention, and the one every
connection coefficient here relies on).

A series value is computed on the integer lattice: the term ratio
(a+k)(b+k)z / ((c+k)(k+1)) is cleared to one integer numerator and one
integer denominator per step, the sum is accumulated by backward Horner over
those integers, and the result is reduced to lowest terms once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .scalars import RationalLike


class NonTerminatingError(ValueError):
    """Neither upper parameter is a nonpositive integer."""


class ZeroDenominatorError(ValueError):
    """The lower parameter hits a nonpositive integer before the series terminates."""


def _as_nonpositive_int(value: RationalLike) -> int | None:
    if value.denominator == 1 and value <= 0:
        return -int(value)
    return None


class Hyp2F1(NamedTuple):
    """Parameter record (a, b; c; z) of a Gauss series intended to terminate.

    The parameters are kept as given, int or ``Fraction``; equal values hash
    alike, so ``-1`` and ``Fraction(-1)`` share one ``eval_2f1`` cache entry.
    """

    a: RationalLike
    b: RationalLike
    c: RationalLike
    z: RationalLike

    def termination_index(self) -> int:
        """The index K of the last nonvanishing term."""
        stops = [k for k in (_as_nonpositive_int(self.a), _as_nonpositive_int(self.b)) if k is not None]
        if not stops:
            raise NonTerminatingError(
                f"2F1({self.a}, {self.b}; {self.c}; {self.z}) does not terminate: "
                "neither upper parameter is a nonpositive integer"
            )
        return min(stops)


@lru_cache(maxsize=None)
def eval_2f1(series: Hyp2F1) -> Fraction:
    """Exact sum of the terminating series sum_k (a)_k (b)_k z^k / ((c)_k k!).

    Raises NonTerminatingError for series without a nonpositive-integer upper
    parameter, and ZeroDenominatorError if (c)_k vanishes at or before the
    termination index (which signals a misuse, never a term to skip).

    With t_{k+1} = t_k p_k / q_k, the sum is 1 + p_0/q_0 (1 + p_1/q_1 (1 + ...)),
    evaluated from the inside out as num/den with num <- q_k den + p_k num and
    den <- q_k den, so no intermediate value is reduced.
    """
    K = series.termination_index()
    a, b, c, z = series.a, series.b, series.c, series.z
    vanishing = _as_nonpositive_int(c)
    if vanishing is not None and vanishing < K:
        raise ZeroDenominatorError(
            f"2F1({a}, {b}; {c}; {z}): "
            f"lower parameter vanishes at term {vanishing + 1} of {K}"
        )
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    cn, cd = c.numerator, c.denominator
    # p_k = (an + k ad)(bn + k bd) zn cd and q_k = (cn + k cd)(k + 1) ad bd zd
    p_const = z.numerator * cd
    q_const = ad * bd * z.denominator
    num = den = 1
    for k in range(K - 1, -1, -1):
        q = (cn + k * cd) * (k + 1) * q_const
        num = q * den + (an + k * ad) * (bn + k * bd) * p_const * num
        den *= q
    return Fraction(num, den)


def hyp2f1(a: RationalLike, b: RationalLike, c: RationalLike, z: RationalLike) -> Fraction:
    """Convenience wrapper: build the parameter record and evaluate it."""
    return eval_2f1(Hyp2F1(a, b, c, z))


def fibonacci_as_2f1(n: int) -> tuple[Fraction, Fraction]:
    """F_n by its two terminating 2F1 representations, as the pair (argument -4, argument 5):

        F_n = 2F1((1-n)/2, (2-n)/2; 1-n; -4)
        F_n = (n / 2^(n-1)) 2F1((1-n)/2, (2-n)/2; 3/2; 5)

    One of the upper parameters is a nonpositive integer for every n >= 1, so
    both forms are exactly summable; by construction each must equal the
    integer-recurrence Fibonacci number.
    """
    if n < 1:
        raise ValueError(f"representation defined for n >= 1, got {n}")
    a = Fraction(1 - n, 2)
    b = Fraction(2 - n, 2)
    return hyp2f1(a, b, 1 - n, -4), Fraction(n, 2 ** (n - 1)) * hyp2f1(a, b, Fraction(3, 2), 5)


def pfaff_transform(series: Hyp2F1) -> tuple[Fraction, Hyp2F1]:
    """Linear transformation 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)).

    Returns the exact rational prefactor (1-z)^(-a) and the transformed
    parameter record; ``prefactor * eval_2f1(transformed)`` equals the value
    of the original series.  Requires ``a`` to be a nonpositive integer (so
    the prefactor is a plain rational power) and z != 1.
    """
    neg_a = _as_nonpositive_int(series.a)
    if neg_a is None:
        raise ValueError(
            f"transform requires a nonpositive integer first parameter, got a={series.a}"
        )
    if series.z == 1:
        raise ValueError("transform undefined at z = 1")
    prefactor = (1 - series.z) ** neg_a
    transformed = Hyp2F1(
        series.a,
        series.c - series.b,
        series.c,
        Fraction(series.z) / (series.z - 1),
    )
    return prefactor, transformed
