"""Fibonacci and Chebyshev polynomial families and their special values.

Each family is built by its three-term recurrence.  The explicit binomial
power forms, an independent construction, live in ``tests/test_sequences.py``
as its oracle, which holds the two equal over a long range of indices.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .polynomials import Polynomial


class Basis(Enum):
    """The three triangular polynomial families handled by the library, by table label.

    ``shift`` is index minus degree: the connection formulae pair F_{j+1}, of
    degree j, with T_j and U_j.  The members are singletons compared by
    identity, so they hash by identity too, in C: the integral sweep hashes
    them in a cache key per pair.
    """

    FIBONACCI = "F"
    CHEBYSHEV_T = "T"
    CHEBYSHEV_U = "U"

    __hash__ = object.__hash__

    def __init__(self, label: str):
        self.shift = 1 if label == "F" else 0

    def member(self, index: int) -> Polynomial:
        """F_index, T_index or U_index, by a constructor looked up when called (a replaced one is honored)."""
        if self is Basis.FIBONACCI:
            return fibonacci_poly(index)
        return chebyshev_t(index) if self is Basis.CHEBYSHEV_T else chebyshev_u(index)


def c_norm(n: int) -> int:
    """First-kind orthogonality normalizer: 2 at n = 0, otherwise 1."""
    return 2 if n == 0 else 1


_ZERO = Polynomial()
_ONE = Polynomial((1,))
_X = Polynomial((0, 1))
_TWO_X = Polynomial((0, 2))

_RECURSION_STRIDE = 64


def _three_term(family, n: int, initial: tuple[Polynomial, Polynomial], step) -> Polynomial:
    """Member n of a family with members 0 and 1 ``initial`` and P_n = step(P_{n-1}, P_{n-2}).

    ``family`` is the cached constructor itself.  The members at multiples
    of _RECURSION_STRIDE below n are built first, in ascending order, so a
    cold build of any index recurses at most _RECURSION_STRIDE levels; every
    new index still costs one ``step``.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n < 2:
        return initial[n]
    for lower in range(_RECURSION_STRIDE, n - 1, _RECURSION_STRIDE):
        family(lower)
    return step(family(n - 1), family(n - 2))


@lru_cache(maxsize=None)
def fibonacci_poly(n: int) -> Polynomial:
    """F_n by the recurrence F_{n+2} = x F_{n+1} + F_n, F_0 = 0, F_1 = 1.

    Degree n-1 and monic for n >= 1; F_0 is the zero polynomial.
    """
    return _three_term(fibonacci_poly, n, (_ZERO, _ONE), lambda p1, p2: _X * p1 + p2)


@lru_cache(maxsize=None)
def chebyshev_t(n: int) -> Polynomial:
    """First-kind Chebyshev polynomial via T_n = 2x T_{n-1} - T_{n-2}."""
    return _three_term(chebyshev_t, n, (_ONE, _X), lambda p1, p2: _TWO_X * p1 - p2)


@lru_cache(maxsize=None)
def chebyshev_u(n: int) -> Polynomial:
    """Second-kind Chebyshev polynomial via U_n = 2x U_{n-1} - U_{n-2}."""
    return _three_term(chebyshev_u, n, (_ONE, _TWO_X), lambda p1, p2: _TWO_X * p1 - p2)


def fibonacci_number(n: int) -> int:
    """The n-th Fibonacci number, equal to F_n evaluated at 1."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def fibonacci_deriv_at_1(q: int, n: int) -> int:
    """q-th derivative of F_n at x = 1, by formal differentiation, once per (q, n).

    F_n has integer coefficients, so the value is the sum of the derivative's
    integer numerators.  Each column of ``identities`` reads it once; the cache
    serves the derivative corollaries' oracle, which must not read the column it checks.
    """
    if q < 0 or n < 0:
        raise ValueError(f"q and n must be >= 0, got q={q}, n={n}")
    return sum(fibonacci_poly(n).derivative(q).integer_form()[0])  # its denominator is 1


def cheb_deriv_at_1(kind: Basis, q: int, n: int) -> Fraction:
    """q-th derivative of T_n or U_n at x = 1: one integer product over another, reduced once.

    Requires q >= 1 (the q = 0 values are the plain endpoint evaluations
    T_n(1) = 1 and U_n(1) = n + 1; evaluate the polynomial for those).
    """
    if q < 1:
        raise ValueError("closed form requires q >= 1; evaluate the polynomial for q = 0")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if kind is Basis.CHEBYSHEV_T:
        return Fraction(math.prod((n - i) * (n + i) for i in range(q)), math.prod(2 * i + 1 for i in range(q)))
    if kind is Basis.CHEBYSHEV_U:
        top = (n + 1) * math.prod((n - i) * (n + i + 2) for i in range(q))
        return Fraction(top, math.prod(2 * i + 3 for i in range(q)))
    raise ValueError(f"kind must be a Chebyshev family, got {kind}")
