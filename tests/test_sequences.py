"""Polynomial families: recurrences vs power forms, special values, derivatives."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibcheb import (
    Basis,
    Polynomial,
    binomial,
    c_norm,
    cheb_deriv_at_1,
    chebyshev_t,
    chebyshev_u,
    fibonacci_deriv_at_1,
    fibonacci_number,
    fibonacci_poly,
)


# The explicit binomial power forms: a construction independent of the
# recurrences in ``fibcheb.sequences``, and the oracle that audits them.


def fibonacci_poly_power_form(n: int) -> Polynomial:
    """F_n from the binomial sum over C(n-j-1, j) x^(n-2j-1)."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    coeffs = [Fraction(0)] * max(n, 1)
    for j in range((n - 1) // 2 + 1):
        coeffs[n - 2 * j - 1] = Fraction(binomial(n - j - 1, j))
    return Polynomial(coeffs)


def chebyshev_t_power_form(n: int) -> Polynomial:
    """T_n from its explicit power sum (n >= 1; T_0 = 1 directly)."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n == 0:
        return Polynomial((1,))
    coeffs = [Fraction(0)] * (n + 1)
    for r in range(n // 2 + 1):
        coeffs[n - 2 * r] = (
            Fraction(n, 2)
            * Fraction((-1) ** r, n - r)
            * binomial(n - r, r)
            * Fraction(2) ** (n - 2 * r)
        )
    return Polynomial(coeffs)


def chebyshev_u_power_form(n: int) -> Polynomial:
    """U_n from its explicit power sum."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    coeffs = [Fraction(0)] * (n + 1)
    for r in range(n // 2 + 1):
        coeffs[n - 2 * r] = Fraction((-1) ** r) * binomial(n - r, r) * Fraction(2) ** (n - 2 * r)
    return Polynomial(coeffs)


class TestFibonacciPolynomials:
    def test_initial_values(self):
        assert fibonacci_poly(0) == Polynomial()
        assert fibonacci_poly(1) == Polynomial((1,))
        assert fibonacci_poly(3) == Polynomial((1, 0, 1))
        assert fibonacci_poly(5) == Polynomial((1, 0, 3, 0, 1))

    def test_power_form_values(self):
        assert fibonacci_poly_power_form(1) == Polynomial((1,))
        assert fibonacci_poly_power_form(4) == Polynomial((0, 2, 0, 1))
        assert fibonacci_poly_power_form(7) == Polynomial((1, 0, 6, 0, 5, 0, 1))

    def test_recurrence_equals_power_form_up_to_200(self):
        for n in range(201):
            assert fibonacci_poly(n) == fibonacci_poly_power_form(n)

    def test_monic_of_expected_degree(self):
        for n in range(1, 40):
            p = fibonacci_poly(n)
            assert p.degree == n - 1
            assert p.coeffs[-1] == 1

    def test_parity_structure(self):
        for n in range(1, 80):
            p = fibonacci_poly(n)
            for power, c in enumerate(p.coeffs):
                if c != 0:
                    assert power % 2 == (n - 1) % 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fibonacci_poly(-1)
        with pytest.raises(ValueError):
            fibonacci_poly_power_form(-2)


class TestChebyshevPolynomials:
    def test_first_kind_values(self):
        assert chebyshev_t(0) == Polynomial((1,))
        assert chebyshev_t(1) == Polynomial((0, 1))
        assert chebyshev_t(2) == Polynomial((-1, 0, 2))
        assert chebyshev_t(3) == Polynomial((0, -3, 0, 4))

    def test_second_kind_values(self):
        assert chebyshev_u(0) == Polynomial((1,))
        assert chebyshev_u(1) == Polynomial((0, 2))
        assert chebyshev_u(2) == Polynomial((-1, 0, 4))
        assert chebyshev_u(3) == Polynomial((0, -4, 0, 8))

    def test_recurrence_equals_power_form_up_to_200(self):
        for n in range(201):
            assert chebyshev_t(n) == chebyshev_t_power_form(n)
            assert chebyshev_u(n) == chebyshev_u_power_form(n)

    def test_values_at_one(self):
        for n in range(201):
            assert chebyshev_t(n)(Fraction(1)) == 1
            assert chebyshev_u(n)(Fraction(1)) == n + 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chebyshev_t(-1)
        with pytest.raises(ValueError):
            chebyshev_u(-3)


class TestFibonacciNumbers:
    def test_small_values(self):
        assert fibonacci_number(0) == 0
        assert fibonacci_number(1) == 1
        assert fibonacci_number(10) == 55

    def test_large_value(self):
        assert fibonacci_number(50) == 12586269025

    def test_equals_polynomial_at_one(self):
        for n in range(101):
            assert fibonacci_number(n) == fibonacci_poly(n)(Fraction(1))


class TestDerivativeValues:
    def test_fibonacci_examples(self):
        assert fibonacci_deriv_at_1(0, 6) == 8
        assert fibonacci_deriv_at_1(1, 5) == 10  # d/dx (x^4+3x^2+1) at 1
        assert fibonacci_deriv_at_1(2, 3) == 2

    def test_chebyshev_examples(self):
        assert cheb_deriv_at_1(Basis.CHEBYSHEV_T, 2, 3) == 24
        assert cheb_deriv_at_1(Basis.CHEBYSHEV_U, 1, 2) == 8
        assert cheb_deriv_at_1(Basis.CHEBYSHEV_T, 1, 0) == 0

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 60)), min_size=1, max_size=30))
    def test_cached_fibonacci_value_is_formal_differentiation(self, pairs):
        # in any order after an empty cache, and again when every pair hits it
        fibonacci_deriv_at_1.cache_clear()
        for _ in range(2):
            for q, n in pairs:
                coeffs = fibonacci_poly_power_form(n).coeffs
                formal = sum(math.perm(i, q) * c for i, c in enumerate(coeffs))
                assert fibonacci_deriv_at_1(q, n) == formal, (q, n)
        assert fibonacci_deriv_at_1.cache_info().currsize == len(set(pairs))

    def test_fibonacci_value_is_an_int_by_formal_differentiation(self):
        for q in range(7):
            for n in range(41):
                value = fibonacci_deriv_at_1(q, n)
                assert type(value) is int
                assert value == fibonacci_poly(n).derivative(q)(Fraction(1)), (q, n)

    def test_closed_form_matches_differentiation(self):
        for q in range(1, 7):
            for n in range(61):
                direct_t = chebyshev_t(n).derivative(q)(Fraction(1))
                direct_u = chebyshev_u(n).derivative(q)(Fraction(1))
                assert cheb_deriv_at_1(Basis.CHEBYSHEV_T, q, n) == direct_t
                assert cheb_deriv_at_1(Basis.CHEBYSHEV_U, q, n) == direct_u

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            cheb_deriv_at_1(Basis.CHEBYSHEV_T, 0, 3)

    def test_rejects_fibonacci_basis(self):
        with pytest.raises(ValueError):
            cheb_deriv_at_1(Basis.FIBONACCI, 1, 3)


class TestBasis:
    def test_member_and_shift(self):
        # index minus degree is the shift, F_0 (the zero polynomial, degree -1) included
        families = (fibonacci_poly, chebyshev_t, chebyshev_u)
        for basis, family in zip(Basis, families):
            for n in range(41):
                member = basis.member(n)
                assert member == family(n), (basis, n)
                assert member.degree == n - basis.shift, (basis, n)

    def test_labels(self):
        assert [basis.value for basis in Basis] == ["F", "T", "U"]


def test_c_norm():
    assert c_norm(0) == 2
    assert all(c_norm(n) == 1 for n in range(1, 10))


@pytest.mark.parametrize(
    "family, degree, at_one",
    [
        (fibonacci_poly, 1499, fibonacci_number(1500)),
        (chebyshev_t, 1500, 1),
        (chebyshev_u, 1500, 1501),
    ],
    ids=["fibonacci", "chebyshev-t", "chebyshev-u"],
)
def test_large_index_on_a_cold_cache(family, degree, at_one):
    # A build that recursed once per index would exceed the default limit of 1000.
    limit = sys.getrecursionlimit()
    family.cache_clear()
    try:
        p = family(1500)
        assert sys.getrecursionlimit() == limit
        assert p.degree == degree
        assert p(Fraction(1)) == at_one
    finally:
        family.cache_clear()  # about 150 MB of members
