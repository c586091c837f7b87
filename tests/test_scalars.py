"""Exact scalar arithmetic, combinatorial helpers, Gaussian rationals."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibcheb import (
    GaussianRational,
    binomial,
    sqrt_pi_over_gamma,
)
from fibcheb.scalars import I, double_factorial, dyadic_ratio, lattice_parts, lattice_sum

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


class TestBinomial:
    def test_direct_values(self):
        assert binomial(5, 2) == 10
        assert binomial(4, 0) == 1
        assert binomial(3, 5) == 0
        assert binomial(7, -1) == 0

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_rule(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestSqrtPiOverGamma:
    def test_known_values(self):
        half = Fraction(1, 2)
        three_halves = Fraction(3, 2)
        assert sqrt_pi_over_gamma(1, half) == 2
        assert sqrt_pi_over_gamma(2, half) == Fraction(4, 3)
        assert sqrt_pi_over_gamma(0, three_halves) == 2
        assert sqrt_pi_over_gamma(0, half) == 1

    def test_against_float_gamma(self):
        import math

        for q in range(8):
            for offset in (Fraction(1, 2), Fraction(3, 2)):
                expected = math.sqrt(math.pi) / math.gamma(q + float(offset))
                assert float(sqrt_pi_over_gamma(q, offset)) == pytest.approx(expected)

    def test_rejects_other_offsets(self):
        for _ in range(2):  # a rejected argument is not cached
            with pytest.raises(ValueError):
                sqrt_pi_over_gamma(1, Fraction(5, 2))
            with pytest.raises(ValueError):
                sqrt_pi_over_gamma(-1, Fraction(1, 2))

    def test_cached_value_equals_a_fresh_one(self):
        for q in range(8):
            for offset in (Fraction(1, 2), Fraction(3, 2), 0.5, 1.5):
                assert sqrt_pi_over_gamma(q, offset) == sqrt_pi_over_gamma.__wrapped__(q, offset)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48


class TestRationalField:
    @given(rationals, rationals, rationals)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestGaussianRational:
    def test_real_values_compare_to_rationals(self):
        assert GaussianRational(Fraction(3, 2), 0) == Fraction(3, 2)
        assert hash(GaussianRational(2, 0)) == hash(Fraction(2))
        assert GaussianRational(2, 1) != Fraction(2)

    def test_field_operations(self):
        z = GaussianRational(1, 2)
        w = GaussianRational(Fraction(1, 2), -1)
        assert z + w == GaussianRational(Fraction(3, 2), 1)
        assert z * w == GaussianRational(Fraction(5, 2), 0)
        assert (z / w) * w == z
        assert z - z == 0

    def test_powers_of_i(self):
        assert I**0 == 1
        assert I**2 == -1
        assert I**3 == GaussianRational(0, -1)
        assert I**-1 == GaussianRational(0, -1)
        assert (-I) ** 2 == -1

    @given(rationals, rationals, rationals, rationals)
    def test_mul_matches_complex(self, a, b, c, d):
        u, v = GaussianRational(a, b), GaussianRational(c, d)
        z = u * v
        assert z.re == a * c - b * d
        assert z.im == a * d + b * c
        if v != 0:
            assert (u / v) * v == u

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="division by zero GaussianRational"):
            GaussianRational(1, 1) / GaussianRational(0, 0)

    def test_serialization(self):
        assert str(GaussianRational(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4*i"
        assert str(GaussianRational(-2, Fraction(-3, 4))) == "-2-3/4*i"
        assert str(GaussianRational(Fraction(5, 3), 0)) == "5/3"

    def test_immutable(self):
        z = GaussianRational(1, 1)
        with pytest.raises(AttributeError):
            z.re = Fraction(2)
        for name in ("re", "im"):
            with pytest.raises(AttributeError):
                delattr(z, name)
        for copied in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
            assert copied == z and type(copied) is GaussianRational


class TestLatticeParts:
    @given(st.one_of(st.integers(min_value=-10**20, max_value=10**20), rationals))
    def test_rational_value(self, value):
        p, r, q = lattice_parts(value)
        assert (r, Fraction(p, q)) == (0, value)
        assert q == Fraction(value).denominator

    @given(rationals, rationals)
    def test_gaussian_value_over_the_lcm_of_its_denominators(self, re, im):
        p, r, q = lattice_parts(GaussianRational(re, im))
        assert (Fraction(p, q), Fraction(r, q)) == (re, im)
        assert q == math.lcm(re.denominator, im.denominator)


class TestLatticeArithmetic:
    @given(st.integers(min_value=-10**20, max_value=10**20), st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=-80, max_value=80))
    def test_dyadic_ratio_is_the_reduced_product(self, num, den, e):
        got = dyadic_ratio(num, den, e)
        assert got == Fraction(num, den) * Fraction(2) ** e
        assert math.gcd(got.numerator, got.denominator) == 1

    @given(st.lists(st.tuples(st.integers(min_value=-10**12, max_value=10**12),
                              st.integers(min_value=1, max_value=10**6))))
    def test_lattice_sum_over_the_lcm_of_the_denominators(self, pairs):
        total, den = lattice_sum(pairs)
        assert Fraction(total, den) == sum((Fraction(p, q) for p, q in pairs), Fraction(0))
        assert den == math.lcm(1, *(q for _, q in pairs))
