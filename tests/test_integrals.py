"""Weighted integrals: dual exact oracles, quadrature, printed-form audits."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibcheb import (
    PiMultiple,
    Polynomial,
    Status,
    Weight,
    chebyshev_t,
    chebyshev_u,
    even_moment,
    fibonacci_poly,
    integral_fib_cheb_t,
    integral_fib_cheb_u,
    integral_fib_fib,
    quadrature_check,
    quadrature_deviation,
    weighted_integral,
    weighted_integral_by_expansion,
)
from fibcheb.integrals import QUADRATURE_REL_TOL

rational_polys = st.lists(
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12), max_size=25
).map(Polynomial)


def reference_quadrature(p, weight, count):
    """Reference: the full count-node rule with both signs explicit, each node
    valued in Fraction arithmetic, rounded once, summed by fsum."""
    nodes = []
    for i in range(1, count // 2 + 1):
        if weight is Weight.FIRST_KIND:
            x, w = math.cos((2 * i - 1) * math.pi / (2 * count)), math.pi / count
        else:
            t = i * math.pi / (count + 1)
            s = math.sin(t)
            x, w = math.cos(t), math.pi / (count + 1) * s * s
        nodes += [(x, w), (-x, w)]
    if count % 2:
        if weight is Weight.FIRST_KIND:
            w = math.pi / count
        else:
            s = math.sin((count + 1) // 2 * math.pi / (count + 1))
            w = math.pi / (count + 1) * s * s
        nodes.append((0.0, w))
    assert len(nodes) == count

    def value(x):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * Fraction(x) + c
        return float(acc)

    return math.fsum(w * value(x) for x, w in nodes)


def moment_sum(p, weight):
    """Reference: sum of c_i * even_moment(i/2) over the even powers i of p."""
    return sum(
        (c * even_moment(i // 2, weight) for i, c in enumerate(p.coeffs) if i % 2 == 0),
        Fraction(0),
    )


class TestPiMultiple:
    def test_arithmetic_and_equality(self):
        a = PiMultiple(Fraction(3, 2))
        b = PiMultiple(Fraction(1, 2))
        assert a + b == PiMultiple(2)
        assert a - b == PiMultiple(1)
        assert a * 2 == PiMultiple(3)
        assert PiMultiple(0) == 0
        assert a != 0

    def test_float_and_text(self):
        assert float(PiMultiple(Fraction(3, 2))) == pytest.approx(3 * math.pi / 2)
        assert PiMultiple(Fraction(3, 2)).to_text() == "3/2 * pi"


class TestMomentOracle:
    def test_basic_values(self):
        assert weighted_integral(Polynomial((1,)), Weight.FIRST_KIND) == PiMultiple(1)
        assert weighted_integral(Polynomial((1, 0, 1)), Weight.FIRST_KIND) == PiMultiple(Fraction(3, 2))
        assert weighted_integral(Polynomial((1, 0, 1)), Weight.SECOND_KIND) == PiMultiple(Fraction(5, 8))

    def test_odd_polynomials_vanish(self):
        p = Polynomial((0, 3, 0, Fraction(-7, 2), 0, 1))
        for weight in Weight:
            assert weighted_integral(p, weight) == 0
            assert weighted_integral_by_expansion(p, weight) == 0

    @given(rational_polys, st.sampled_from(list(Weight)))
    def test_matches_the_closed_form_moments(self, p, weight):
        assert weighted_integral(p, weight) == PiMultiple(moment_sum(p, weight))

    def test_moment_values(self):
        assert even_moment(0, Weight.FIRST_KIND) == 1
        assert even_moment(1, Weight.FIRST_KIND) == Fraction(1, 2)
        assert even_moment(0, Weight.SECOND_KIND) == Fraction(1, 2)
        assert even_moment(2, Weight.SECOND_KIND) == Fraction(1, 16)


class TestExpansionOracleAgreement:
    def test_two_exact_routes_agree(self):
        samples = [
            fibonacci_poly(9),
            fibonacci_poly(12) * chebyshev_t(5),
            fibonacci_poly(7) * chebyshev_u(6),
            Polynomial((Fraction(1, 3), 1, Fraction(-5, 2), 0, 2, 0, 9)),
        ]
        for p in samples:
            for weight in Weight:
                assert weighted_integral(p, weight) == weighted_integral_by_expansion(p, weight)


class TestOrthogonalityRegression:
    def test_first_kind(self):
        for n in range(31):
            for m in range(n + 1):
                value = weighted_integral(chebyshev_t(n) * chebyshev_t(m), Weight.FIRST_KIND)
                if n != m:
                    assert value == 0
                else:
                    # (pi/2) c_n: pi at n = 0, pi/2 otherwise
                    assert value == PiMultiple(Fraction(1) if n == 0 else Fraction(1, 2))

    def test_second_kind(self):
        for n in range(31):
            for m in range(n + 1):
                value = weighted_integral(chebyshev_u(n) * chebyshev_u(m), Weight.SECOND_KIND)
                assert value == (PiMultiple(Fraction(1, 2)) if n == m else PiMultiple(0))


class TestQuadrature:
    def test_known_values(self):
        assert quadrature_check(Polynomial((1, 0, 1)), Weight.FIRST_KIND, 4) == pytest.approx(
            4.712388980384690, abs=1e-12
        )
        assert quadrature_check(Polynomial((1,)), Weight.FIRST_KIND, 1) == pytest.approx(math.pi)
        assert quadrature_check(
            Polynomial((0, 0, 0, 0, 1)), Weight.SECOND_KIND, 4
        ) == pytest.approx(math.pi / 16, abs=1e-14)

    @given(rational_polys, st.sampled_from(list(Weight)), st.integers(min_value=0, max_value=3))
    def test_matches_the_full_rule_bit_for_bit(self, p, weight, extra):
        count = max((p.degree + 2) // 2, 1) + extra
        assert quadrature_check(p, weight, count) == reference_quadrature(p, weight, count)

    def test_rejects_insufficient_nodes(self):
        with pytest.raises(ValueError):
            quadrature_check(Polynomial((1, 0, 1)), Weight.FIRST_KIND, 1)

    def test_odd_integrand_is_exactly_zero(self):
        p = fibonacci_poly(8)  # odd parity, large coefficients
        assert quadrature_check(p, Weight.FIRST_KIND, 8) == 0.0
        assert quadrature_check(p, Weight.SECOND_KIND, 8) == 0.0

    def test_deviation_small_on_products(self):
        for j, k in ((10, 5), (20, 13), (30, 30)):
            p = fibonacci_poly(j + 1) * chebyshev_t(k)
            assert quadrature_deviation(p, Weight.FIRST_KIND) <= 1e-9
            q = fibonacci_poly(j + 1) * chebyshev_u(k)
            assert quadrature_deviation(q, Weight.SECOND_KIND) <= 1e-9

    def test_deviation_past_the_float_range(self):
        # values near 2^1100 overflow a float; the common 2^-e scaling keeps
        # the ratio, exactly, since the unscaled mass is already above 1
        p = fibonacci_poly(21) * chebyshev_t(10)
        for weight in Weight:
            rel = quadrature_deviation(p * 2**1100, weight)
            assert math.isfinite(rel) and rel <= QUADRATURE_REL_TOL
            assert rel == quadrature_deviation(p, weight)


class TestFibonacciChebyshevFirstKind:
    def test_odd_parity_vanishes(self):
        value, report = integral_fib_cheb_t(2, 1)
        assert value == 0
        assert report.status is Status.PASS

    def test_diagonal_value(self):
        value, report = integral_fib_cheb_t(2, 2)
        assert value == PiMultiple(Fraction(1, 4))
        assert report.status is Status.PASS

    def test_constant_target_erratum(self):
        value, report = integral_fib_cheb_t(2, 0)
        assert value == PiMultiple(Fraction(3, 2))
        assert report.status is Status.PAPER_ERRATUM
        # printed form gives 3/4 pi: short by the k = 0 normalizer
        assert report.printed_residual == Fraction(3, 4) - Fraction(3, 2)
        assert report.corrected_residual == 0

    def test_printed_exact_for_positive_k(self):
        for j in range(31):
            for k in range(1, j + 1):
                _, report = integral_fib_cheb_t(j, k)
                assert report.status is Status.PASS, (j, k)

    def test_k_zero_always_erratum_for_even_j(self):
        for j in range(0, 31, 2):
            _, report = integral_fib_cheb_t(j, 0)
            assert report.status is Status.PAPER_ERRATUM, j
            assert report.corrected_residual == 0

    def test_rejects_k_above_j(self):
        with pytest.raises(ValueError):
            integral_fib_cheb_t(1, 2)


class TestFibonacciChebyshevSecondKind:
    def test_hand_computed_value(self):
        value, report = integral_fib_cheb_u(2, 0)
        assert value == PiMultiple(Fraction(5, 8))
        assert report.status is Status.PASS

    def test_odd_parity_vanishes(self):
        value, report = integral_fib_cheb_u(3, 2)
        assert value == 0
        assert report.status is Status.PASS

    def test_printed_exact_everywhere(self):
        for j in range(31):
            for k in range(j + 1):
                _, report = integral_fib_cheb_u(j, k)
                assert report.status is Status.PASS, (j, k)


class TestFibonacciProducts:
    def test_second_kind_diagonal(self):
        value, report = integral_fib_fib(2, 2, Weight.SECOND_KIND)
        assert value == PiMultiple(Fraction(13, 16))
        assert report.status is Status.PASS

    def test_second_kind_diagonal_sweep(self):
        for j in range(21):
            _, report = integral_fib_fib(j, j, Weight.SECOND_KIND)
            assert report.status is Status.PASS, j

    def test_second_kind_off_diagonal_not_compared(self):
        value, report = integral_fib_fib(2, 0, Weight.SECOND_KIND)
        assert value == PiMultiple(Fraction(5, 8))
        assert report.status is Status.UNEVALUABLE

    def test_first_kind_values(self):
        value, report = integral_fib_fib(1, 1, Weight.FIRST_KIND)
        assert value == PiMultiple(Fraction(1, 2))
        assert report.status is Status.UNEVALUABLE  # d_m undefined, no interpretation given

    def test_first_kind_with_explicit_interpretation(self):
        # reading d_m as the k-side normalizer makes the printed diagonal work
        from fibcheb.sequences import c_norm

        for j in range(13):
            value, report = integral_fib_fib(
                j, j, Weight.FIRST_KIND, first_kind_interpretation=lambda m, j=j: c_norm(j - 2 * m)
            )
            printed = next(c for c in report.checks if c.name == "printed-vs-oracle")
            assert printed.ok, j

    def test_rejects_k_above_j(self):
        with pytest.raises(ValueError):
            integral_fib_fib(1, 3, Weight.SECOND_KIND)
