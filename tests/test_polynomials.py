"""Dense exact polynomial arithmetic."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibcheb import GaussianRational, Polynomial

coeff = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)
polys = st.lists(coeff, max_size=7).map(Polynomial)
points = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)
# Both parts nonzero, over different denominators, so the point's common denominator is an lcm.
gaussian_points = (
    st.tuples(points.filter(bool), points.filter(bool))
    .filter(lambda parts: parts[0].denominator != parts[1].denominator)
    .map(lambda parts: GaussianRational(*parts))
)

# At least one coefficient is not an integer, so the common denominator is not 1.
fractional = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12)
fractional_polys = (
    st.lists(fractional, min_size=1, max_size=9)
    .filter(lambda cs: any(c.denominator != 1 for c in cs))
    .map(Polynomial)
)
float_points = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def naive_mul(p, q):
    """Reference: Fraction convolution of the coefficient tuples."""
    out = [Fraction(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            out[i + k] += a * b
    return out


def naive_derivative(p, order):
    cs = list(p.coeffs)
    for _ in range(order):
        cs = [i * c for i, c in enumerate(cs)][1:]
    return cs


def coefficient(p, power):
    """Reference: the coefficient of x^power, zero past the degree."""
    return p.coeffs[power] if 0 <= power <= p.degree else Fraction(0)


def naive_value(p, x):
    """Reference: sum of c_i x^i in the arithmetic of the point (Fraction or GaussianRational)."""
    return sum((c * x**i for i, c in enumerate(p.coeffs)), x * 0)


class TestIntegerLatticeAgainstFractions:
    @given(fractional_polys, st.one_of(fractional_polys, polys))
    def test_product(self, p, q):
        assert (p * q).coeffs == Polynomial(naive_mul(p, q)).coeffs

    @given(fractional_polys, st.one_of(fractional_polys, polys))
    def test_sum_difference_and_negation(self, p, q):
        pairs = [(coefficient(p, i), coefficient(q, i)) for i in range(max(p.degree, q.degree) + 1)]
        assert (p + q).coeffs == Polynomial([a + b for a, b in pairs]).coeffs
        assert (p - q).coeffs == Polynomial([a - b for a, b in pairs]).coeffs
        assert (-p).coeffs == Polynomial([-c for c in p.coeffs]).coeffs

    @given(fractional_polys, fractional)
    def test_scalar_product(self, p, s):
        assert (p * s).coeffs == Polynomial([c * s for c in p.coeffs]).coeffs
        assert (s * p).coeffs == (p * s).coeffs

    @given(fractional_polys, st.integers(min_value=0, max_value=10))
    def test_derivative(self, p, order):
        assert p.derivative(order).coeffs == Polynomial(naive_derivative(p, order)).coeffs

    @given(fractional_polys, points)
    def test_rational_evaluation(self, p, x):
        assert p(x) == naive_value(p, x)

    @given(st.one_of(fractional_polys, polys), gaussian_points)
    def test_gaussian_evaluation(self, p, z):
        assert p(z) == naive_value(p, z)

    @given(fractional_polys, float_points)
    def test_eval_float_exact(self, p, x):
        exact = naive_value(p, Fraction(x))
        assert p.eval_float_exact(x) == float(exact)

    @given(fractional_polys, fractional_polys)
    def test_integer_form_uses_the_least_common_denominator(self, p, q):
        for poly in (p, p * q, p.derivative()):
            nums, den = poly.integer_form()
            assert den == math.lcm(*(c.denominator for c in poly.coeffs))
            assert tuple(Fraction(n, den) for n in nums) == poly.coeffs

    @given(fractional_polys)
    def test_pickle_carries_only_the_coefficients(self, p):
        assert pickle.dumps(p) == pickle.dumps(Polynomial(p.coeffs))
        assert pickle.loads(pickle.dumps(p)) == p


def assert_canonical(p):
    nums, den = p.integer_form()
    assert den > 0 and math.gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0


# The zero polynomial, an integer one, and one with coefficients 1/6 and -3/4.
CANONICAL_SAMPLES = [(), (3, 0, -1, 2), (Fraction(1, 6), Fraction(-3, 4), 0, 2)]


class TestCanonicalForm:
    @pytest.mark.parametrize("cs", CANONICAL_SAMPLES)
    def test_equal_and_hash_equal_however_built(self, cs):
        p = Polynomial(cs)
        assert_canonical(p)
        q = Polynomial((Fraction(5, 9), 0, Fraction(-1, 2)))
        variants = [
            Polynomial([Fraction(c) if i % 2 else c for i, c in enumerate(cs)]),
            Polynomial([Fraction(c) for c in cs] + [0, Fraction(0)]),
            p + q - q,
            p * 1,
            p * Polynomial((1,)),
            p * Fraction(4, 3) * Fraction(3, 4),
            pickle.loads(pickle.dumps(p)),
        ]
        for r in variants:
            assert_canonical(r)
            assert r == p
            assert hash(r) == hash(p)
            assert r.integer_form() == p.integer_form()

    @pytest.mark.parametrize("cs", CANONICAL_SAMPLES)
    def test_coeffs_are_reduced_fractions(self, cs):
        coeffs = Polynomial(cs).coeffs
        assert coeffs == tuple(Fraction(c) for c in cs)
        for c in coeffs:
            assert type(c) is Fraction
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1

    @pytest.mark.parametrize("c", [0, 3, Fraction(1, 2)])
    def test_a_constant_hashes_like_the_scalar_it_equals(self, c):
        p = Polynomial((c,))
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1 and len({c, p}) == 1

    @pytest.mark.parametrize("c", [0, 3, Fraction(1, 2)])
    def test_equality_with_scalars_is_an_equivalence(self, c):
        values = [Polynomial((c,)), GaussianRational(c), c, Fraction(c)]
        for a in values:
            for b in values:
                assert a == b and not a != b, (a, b)
        assert len(set(values)) == 1

    @pytest.mark.parametrize("z", [GaussianRational(0, 1), GaussianRational(3, -1), GaussianRational(Fraction(1, 2), 2)])
    def test_a_nonreal_gaussian_equals_no_polynomial(self, z):
        for p in (Polynomial(), Polynomial((z.re,)), Polynomial((z.re, z.im)), Polynomial((0, 1))):
            assert p != z and z != p
            assert not p == z and not z == p

    def test_zero_is_the_empty_lattice(self):
        assert Polynomial().integer_form() == ((), 1)
        p = Polynomial((Fraction(1, 6), Fraction(-3, 4)))
        assert (p - p).integer_form() == ((), 1)
        assert (p * 0).integer_form() == ((), 1)

    @given(fractional_polys, st.one_of(fractional_polys, polys))
    def test_results_are_canonical(self, p, q):
        for r in (p + q, p - q, p * q, p.derivative(), -p, p * Fraction(6, 7)):
            assert_canonical(r)
            assert Polynomial(r.coeffs) == r
            assert hash(Polynomial(r.coeffs)) == hash(r)

    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0, 0)).coeffs == ()

    def test_zero_polynomial_degree(self):
        assert Polynomial().degree == -1
        assert Polynomial().is_zero

    def test_equality_is_coefficientwise(self):
        assert Polynomial((1, 0, 1)) == Polynomial((Fraction(1), 0, Fraction(2, 2)))
        assert Polynomial((1,)) == 1


class TestRingOperations:
    def test_add(self):
        # (x^2 + 1) + (-1) = x^2
        assert Polynomial((1, 0, 1)) + Polynomial((-1,)) == Polynomial((0, 0, 1))

    def test_mul(self):
        # x * (x + 1) = x^2 + x
        assert Polynomial((0, 1)) * Polynomial((1, 1)) == Polynomial((0, 1, 1))

    def test_scale(self):
        assert Polynomial((1, 0, 1)) * Fraction(1, 2) == Polynomial((Fraction(1, 2), 0, Fraction(1, 2)))

    @given(polys, polys)
    def test_degree_of_product(self, p, q):
        if not p.is_zero and not q.is_zero:
            assert (p * q).degree == p.degree + q.degree

    @given(polys, polys)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs

    @given(polys, polys, points)
    def test_evaluation_is_a_ring_homomorphism(self, p, q, a):
        assert (p + q)(a) == p(a) + q(a)
        assert (p * q)(a) == p(a) * q(a)


class TestDerivative:
    def test_examples(self):
        p = Polynomial((0, 2, 0, 1))  # x^3 + 2x
        assert p.derivative() == Polynomial((2, 0, 3))
        assert Polynomial((1, 0, 1)).derivative(2) == Polynomial((2,))
        assert Polynomial((1, 0, 1)).derivative(3) == Polynomial()

    def test_order_zero_is_identity(self):
        p = Polynomial((3, 1, 4))
        assert p.derivative(0) == p


class TestEvaluation:
    def test_rational_points(self):
        p = Polynomial((1, 0, 1))  # x^2 + 1
        assert p(Fraction(1)) == 2
        assert p(Fraction(5, 4)) == Fraction(41, 16)

    def test_gaussian_point(self):
        # 4x^2 - 1 at i/2 equals -2
        p = Polynomial((-1, 0, 4))
        assert p(GaussianRational(0, Fraction(1, 2))) == -2

    @pytest.mark.parametrize("cs", CANONICAL_SAMPLES)
    def test_result_type_follows_the_point(self, cs):
        p = Polynomial(cs)
        rational = [0, 3, Fraction(-2, 3)]
        gaussian = [GaussianRational(0, Fraction(1, 2)), GaussianRational(Fraction(1, 3), -2), GaussianRational(5)]
        for point, kind in [(x, Fraction) for x in rational] + [(z, GaussianRational) for z in gaussian]:
            value = p(point)
            assert type(value) is kind
            assert value == naive_value(p, point)

    def test_eval_float_exact_matches_exact_value(self):
        p = Polynomial((Fraction(1, 3), 0, -2, 5))
        for x in (0.0, 0.5, -0.71, 1.0, 0.0078125):
            assert p.eval_float_exact(x) == float(p(Fraction(x)))

    def test_eval_float_exact_odd_symmetry(self):
        p = Polynomial((0, 3, 0, Fraction(-7, 2)))
        assert p.eval_float_exact(0.3) == -p.eval_float_exact(-0.3)


class TestSerialization:
    def test_pretty_str(self):
        assert str(Polynomial((-1, 0, 2))) == "2*x^2 - 1"
        assert str(Polynomial()) == "0"

    def test_immutable(self):
        p = Polynomial((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = ()
        for name in ("_nums", "_den"):
            with pytest.raises(AttributeError):
                delattr(p, name)
        for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert copied == p and copied.coeffs == (1, 2)
