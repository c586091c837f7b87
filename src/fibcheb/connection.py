"""Connection coefficients between the Fibonacci and Chebyshev families.

Four directions are generated directly from their closed-form coefficient
sums (kept verbatim, prefactors included, so a transcription slip cannot hide
behind algebraic simplification), and an independent triangular-elimination
oracle recovers the same expansion from the polynomials alone.  The two
routes must agree term by term.  Each row is cached once as ``terms`` and,
derived from it, as ``row``: integers over one common denominator, which the
corollary sums and the round trip read as integer dot products.

Tables take a third route: ``table_rows`` builds each whole row of
coefficients from the two rows before it by the family relations, in integer
additions only, and yields it as integers over one power of two, so
``table --jmax 900`` takes about a second without one ``Fraction``.  Only
tables use it; the tests hold it to the closed form.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .hypergeometric import hyp2f1
from .polynomials import Polynomial
from .scalars import binomial, dyadic_ratio, lattice_sum
from .sequences import Basis, c_norm


class Direction(Enum):
    """Which family (the value's first letter) is expanded in which basis (its last letter)."""

    T_IN_F = "t-in-f"
    U_IN_F = "u-in-f"
    F_IN_T = "f-in-t"
    F_IN_U = "f-in-u"

    def __init__(self, value: str):
        self.source_basis = Basis(value[0].upper())
        self.target_basis = Basis(value[-1].upper())

    @property
    def min_index(self) -> int:
        # The T/U-in-F formulas are stated for source index >= 1 only.
        return 0 if self.source_basis is Basis.FIBONACCI else 1

    def source_polynomial(self, j: int) -> Polynomial:
        """The degree-j member of the source family."""
        source = self.source_basis
        return source.member(j + source.shift)


class ExpansionTerm(NamedTuple):
    m: int
    target_index: int
    coefficient: Fraction


class Expansion(NamedTuple):
    """Expansion of one source polynomial over a target family.

    Terms are indexed both by the summation index m and by the target family
    index, since the closed forms are m-indexed while verification works by
    target index.
    """

    j: int
    direction: Direction
    terms: tuple[ExpansionTerm, ...]

    def coefficients_by_index(self) -> dict[int, Fraction]:
        return {t.target_index: t.coefficient for t in self.terms}

    def reconstruct(self) -> Polynomial:
        """Sum coefficient * basis element; must equal the source polynomial.

        One integer vector over the expansion's ``row``: nums[m] times each target member's integer
        numerators, over D times the lcm of the members' denominators, reduced once.
        """
        indices, nums, den = row(self.j, self.direction)
        members = [self.direction.target_basis.member(index).integer_form() for index in indices]
        scale = math.lcm(*(d for _, d in members))  # 1: the family members are integer polynomials
        out = [0] * max(len(elem) for elem, _ in members)
        for c, (elem, d) in zip(nums, members):
            c *= scale // d
            for i, e in enumerate(elem):
                if e:
                    out[i] += c * e
        return Polynomial._from_lattice(out, den * scale)


def _coefficient(j: int, m: int, direction: Direction) -> Fraction:
    """c(j, m) by its printed closed form, reduced once.

    The factors stay in the paper's order, multiplied as one integer numerator and one denominator:
    the 2F1 value split into its two integers, the power of two a shift.
    """
    if direction is Direction.T_IN_F:
        # j (-1)^m C(j-m, j-2m) 2^(j-2m-1) / (j-m) 2F1(-m, j-m; j-2m+2; -4)
        h = hyp2f1(-m, j - m, j - 2 * m + 2, -4)
        num = j * (-1) ** m * binomial(j - m, j - 2 * m) * h.numerator
        return dyadic_ratio(num, (j - m) * h.denominator, j - 2 * m - 1)
    if direction is Direction.U_IN_F:
        # 2^j (-1)^(m+1) C(j, m) (-j+2m-1)/(j-m+1) 2F1(-m, -j+m-1; -j; -1/4)
        h = hyp2f1(-m, -j + m - 1, -j, Fraction(-1, 4))
        num = (-1) ** (m + 1) * binomial(j, m) * (-j + 2 * m - 1) * h.numerator
        return dyadic_ratio(num, (j - m + 1) * h.denominator, j)
    if direction is Direction.F_IN_T:
        # 1/c_(j-2m) C(j-m, j-2m) 2^(-j+2m+1) 2F1(-m, j-m+1; j-2m+1; -1/4)
        h = hyp2f1(-m, j - m + 1, j - 2 * m + 1, Fraction(-1, 4))
        num = binomial(j - m, j - 2 * m) * h.numerator
        return dyadic_ratio(num, c_norm(j - 2 * m) * h.denominator, -j + 2 * m + 1)
    # 1/2^j C(j, m) (j-2m+1)/(j-m+1) d(j, m)
    d = d_coefficient(j, m)
    num = binomial(j, m) * (j - 2 * m + 1) * d.numerator
    return dyadic_ratio(num, (j - m + 1) * d.denominator, -j)


@lru_cache(maxsize=None)
def terms(j: int, direction: Direction) -> tuple[ExpansionTerm, ...]:
    """The terms (m, target index, coefficient) of the degree-j expansion, m = 0 .. floor(j/2).

    The coefficient is evaluated verbatim from the closed-form sum for the
    chosen direction; the target index is j-2m plus the target family's shift.
    This cached tuple is the one record of each expansion; ``expand`` wraps
    it, and the corollaries evaluate the same sums at supplied basis values,
    some at j = 0, below ``direction.min_index``.
    """
    shift = direction.target_basis.shift
    return tuple(
        ExpansionTerm(m, j - 2 * m + shift, _coefficient(j, m, direction))
        for m in range(j // 2 + 1)
    )


@lru_cache(maxsize=None)
def row(j: int, direction: Direction) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``terms(j, direction)`` on one denominator, (target indices, nums, D) with c(j, m) = nums[m] / D.

    D is the least common denominator, so gcd(D, *nums) = 1; the corollary sums and the round trip read it.
    """
    ts = terms(j, direction)
    den = math.lcm(*(t.coefficient.denominator for t in ts))
    nums = tuple(t.coefficient.numerator * (den // t.coefficient.denominator) for t in ts)
    return tuple(t.target_index for t in ts), nums, den


@lru_cache(maxsize=None)
def expand(j: int, direction: Direction) -> Expansion:
    """Connection coefficients of the degree-j source: ``terms`` behind the min_index guard."""
    if j < direction.min_index:
        raise ValueError(f"{direction.value} expansion requires j >= {direction.min_index}, got {j}")
    return Expansion(j, direction, terms(j, direction))


def table_rows(direction: Direction, jmax: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Yield (j, row, e) for j = direction.min_index .. jmax, a whole row per step.

    The coefficient c(j, m) of ``terms(j, direction)`` is row[m] / 2^e, with
    target index j - 2m plus the target family's shift: e = 0 for a Fibonacci
    target, whose coefficients are integers, and e = j for a Chebyshev one.

    The rows come from the family relations, not from the closed form.  For a
    Chebyshev target the row holds S(j, m) = 2^j c(j, m), and F_{j+2} =
    x F_{j+1} + F_j with x U_n = (U_{n+1} + U_{n-1}) / 2 gives S(j+1, n) =
    S(j, n-1) + S(j, n+1) + 4 S(j-1, n) (and x T_0 = T_1 adds S(j, 0) once
    more to n = 1).  For a Fibonacci target P_{j+1} = 2x P_j - P_{j-1} with
    x F_k = F_{k+1} - F_{k-1} and F_0 = 0, from T_1 = F_2 or U_1 = 2 F_2.
    Tests hold every row to ``terms``; nothing that verifies uses this route.
    """
    to_fibonacci = direction.target_basis is Basis.FIBONACCI
    prev, row = [], [1]  # rows j - 1 and j, from j = 0: F_0 = 0, and F_1 = T_0 = U_0 = 1
    for j in range(jmax + 1):
        if j >= direction.min_index:
            yield j, tuple(row), 0 if to_fibonacci else j
        if j == 0 and direction is Direction.T_IN_F:
            step = [1]  # T_1 = x T_0 = F_2
        elif to_fibonacci:
            step = [2 * row[0]] + [2 * (row[m] - row[m - 1]) - prev[m - 1] for m in range(1, len(row))]
            if j % 2:
                step.append(-2 * row[-1] - prev[-1])
        else:
            step = [row[0]] + [row[m] + row[m - 1] + 4 * prev[m - 1] for m in range(1, len(row))]
            if j % 2:
                step.append(row[-1] + 4 * prev[-1])
            elif direction is Direction.F_IN_T:
                step[-1] += row[-1]
        prev, row = row, step


_ZERO = Fraction(0)


def oracle_expand(p: Polynomial, basis: Basis) -> list[tuple[int, Fraction]]:
    """Expand ``p`` over a triangular family by leading-term elimination.

    Each family has exactly one member per degree, so repeatedly subtracting
    the leading-coefficient-scaled element of matching degree yields the
    unique expansion without solving a linear system.  Independent of the
    closed-form coefficient route.  Returns (index, coefficient) pairs from
    the top degree down to 0, zero coefficients included.

    The elimination runs in place on one integer vector: the remainder is
    rest / scale with ``rest`` integer, and whenever a leading coefficient
    does not divide the current top entry, ``rest`` and ``scale`` are both
    multiplied by the missing factor.
    """
    nums, scale = p.integer_form()
    rest = list(nums)
    out: list[tuple[int, Fraction]] = []
    for degree in range(p.degree, -1, -1):
        index = degree + basis.shift
        elem, elem_den = basis.member(index).integer_form()
        lead = elem[-1]
        top = rest[degree]
        missing = abs(lead) // math.gcd(top, lead)
        if missing != 1:
            rest = [r * missing for r in rest]
            scale *= missing
            top *= missing
        factor = top // lead
        # the coefficient times elem / elem_den is factor * elem / scale
        out.append((index, Fraction(factor * elem_den, scale) if factor else _ZERO))
        if factor:
            for i, e in enumerate(elem):
                if e:
                    rest[i] -= factor * e
    if any(rest):
        raise AssertionError("triangular elimination left a nonzero remainder")
    return out


def d_coefficient(j: int, m: int) -> Fraction:
    """The inner series value 2F1(-m, -j+m-1; -j; -4) of the F-in-U coefficients, d(j, m)."""
    return hyp2f1(-m, -j + m - 1, -j, -4)


def lemma_recurrence_holds(j: int, m: int) -> bool:
    """Check the four-term recurrence satisfied by the d(j, m) series values.

    Evaluates, exactly,

        4 C(j-2, m-1)(j-2m+1)(j-m+1) d(j-2, m-1)
          + C(j-1, m-1)(j-2m+2)(j-m) d(j-1, m-1)
          + C(j-1, m)(j-2m)(j-m+1) d(j-1, m)
          - C(j, m)(j-m)(j-2m+1) d(j, m)

    as four integer pairs over the lcm of their denominators, and reports whether it is zero.
    Terms whose binomial factor vanishes are dropped without evaluating their series value
    (whose indices would be out of range), so the m = 0 column holds trivially.
    """

    def term(bin_n: int, bin_k: int, scale: int, dj: int, dm: int) -> tuple[int, int]:
        b = binomial(bin_n, bin_k) if bin_n >= 0 else 0
        if b == 0:
            return 0, 1
        d = d_coefficient(dj, dm)
        return b * scale * d.numerator, d.denominator

    total, _ = lattice_sum((
        term(j - 2, m - 1, 4 * (j - 2 * m + 1) * (j - m + 1), j - 2, m - 1),
        term(j - 1, m - 1, (j - 2 * m + 2) * (j - m), j - 1, m - 1),
        term(j - 1, m, (j - 2 * m) * (j - m + 1), j - 1, m),
        term(j, m, -(j - m) * (j - 2 * m + 1), j, m),
    ))
    return total == 0
