"""Identity verifiers: statuses, residuals, and erratum bookkeeping."""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcheb import (
    Status,
    binomial,
    c_norm,
    fibonacci_number,
    hyp2f1,
    sqrt_pi_over_gamma,
    verify_2f1_chain,
    verify_complex_identities,
    verify_cor_sum_T,
    verify_cor_sum_U,
    verify_derivative_corollaries,
    verify_fib_2f1_representations,
    verify_fib_expressions,
    verify_laurent_identity,
    verify_trig_identity,
)
from fibcheb.connection import Direction, terms
from fibcheb.identities import (
    HALF_I,
    MINUS_TWO_I,
    _column,
    _Column,
    _expansion_at,
    _fibonacci_at,
    _laurent_at,
    _t_deriv_at_1,
    _u_deriv_at_1,
)
from fibcheb.scalars import GaussianRational, lattice_parts
from fibcheb.sequences import Basis, cheb_deriv_at_1, fibonacci_deriv_at_1, fibonacci_poly

big_ints = st.integers(min_value=-(10**30), max_value=10**30)
fractions = st.fractions(max_denominator=10**9)
gaussians = st.builds(GaussianRational, fractions, fractions)
# all values of one kind, or a mix of the three
value_kinds = st.sampled_from([big_ints, fractions, gaussians, st.one_of(big_ints, fractions, gaussians)])


class TestExpansionAt:
    @settings(max_examples=200)
    @given(st.data())
    def test_equals_plain_sum(self, data):
        direction = data.draw(st.sampled_from(list(Direction)))
        j = data.draw(st.integers(min_value=direction.min_index, max_value=40))
        values = data.draw(st.lists(data.draw(value_kinds), min_size=j + 2, max_size=j + 2))
        expansion = terms(j, direction)
        plain = sum((c * values[n] for _, n, c in expansion), Fraction(0))
        got = _expansion_at(j, direction, _Column(values.__getitem__))
        assert got == plain
        gaussian = any(isinstance(values[n], GaussianRational) for _, n, _ in expansion)
        assert type(got) is (GaussianRational if gaussian else Fraction)


class TestNamedColumn:
    @settings(max_examples=100)
    @given(st.data())
    def test_a_column_filled_out_of_order_gives_the_one_call_sums(self, data):
        direction = data.draw(st.sampled_from(list(Direction)))
        values = data.draw(st.lists(data.draw(value_kinds), min_size=42, max_size=42))
        js = data.draw(st.lists(st.integers(min_value=direction.min_index, max_value=40), min_size=1, max_size=12))
        column = _Column(values.__getitem__)
        for j in js:
            got = _expansion_at(j, direction, column)
            assert got == _expansion_at(j, direction, _Column(values.__getitem__)), (direction, js, j)
            gaussian = any(isinstance(values[n], GaussianRational) for n in column.re)
            assert type(got) is (GaussianRational if gaussian else Fraction)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_rows_read_in_any_order_rescale_the_column(self, direction):
        # each new index brings a new denominator, so a higher row rescales what lower rows stored
        values = [GaussianRational(Fraction(n + 1, 3**n), Fraction(-1, 2 * n + 1)) for n in range(42)]
        rationals = [value.re for value in values]
        for value_at in (values.__getitem__, rationals.__getitem__):
            column = _Column(value_at)
            for j in (4, 7, 3, 30, 12, 31, 40, 5, 39, 1):
                if j < direction.min_index:
                    continue
                stepwise = sum((c * value_at(n) for _, n, c in terms(j, direction)), Fraction(0))
                got = _expansion_at(j, direction, column)
                assert got == stepwise and type(got) is type(stepwise), (direction, j)
            # the one common denominator is the least
            assert column.q == math.lcm(*(lattice_parts(value_at(n))[2] for n in column.re))

    def test_named_columns_are_cached_by_family_and_parameters(self):
        assert _column(fibonacci_deriv_at_1, 2) is _column(fibonacci_deriv_at_1, 2)
        assert _column(fibonacci_deriv_at_1, 2) is not _column(fibonacci_deriv_at_1, 3)
        assert _column(_laurent_at, x0=Fraction(1, 2)) is _column(_laurent_at, x0=Fraction(1, 2))
        assert _column(_fibonacci_at, point=HALF_I) is not _column(_fibonacci_at, point=MINUS_TWO_I)


class TestExpansionAtTheCorollaryValues:
    # the basis values the corollaries supply, with the type of the sum over them
    VALUES = {
        "int F_n": (fibonacci_number, Fraction),
        "int F_n^(2)(1)": (partial(fibonacci_deriv_at_1, 2), Fraction),
        "Fraction T_n^(3)(1)": (partial(_t_deriv_at_1, 3), Fraction),
        "Fraction at a Laurent point": (partial(_laurent_at, x0=Fraction(3, 2)), Fraction),
        "Gaussian F_n(i/2)": (partial(_fibonacci_at, point=HALF_I), GaussianRational),
        # the target index steps by 2, so ints and Fractions come in turn
        "int and Fraction in turn": (
            lambda n: fibonacci_number(n) if n % 4 < 2 else _laurent_at(n, Fraction(3)),
            Fraction,
        ),
    }

    @pytest.mark.parametrize("kind", list(VALUES))
    @pytest.mark.parametrize("direction", list(Direction))
    def test_equals_the_stepwise_sum(self, direction, kind):
        value_at, sum_type = self.VALUES[kind]
        for j in range(1 if direction is Direction.T_IN_F else 0, 41):
            stepwise = sum((c * value_at(n) for _, n, c in terms(j, direction)), Fraction(0))
            got = _expansion_at(j, direction, _Column(value_at))
            assert type(got) is sum_type
            assert got == stepwise, (direction, kind, j)


class TestCachedBasisValues:
    @given(st.lists(st.tuples(st.integers(1, 7), st.integers(0, 60)), min_size=1, max_size=20))
    def test_derivative_values_equal_their_closed_forms(self, pairs):
        for q, n in pairs:
            assert _t_deriv_at_1(q, n) == cheb_deriv_at_1(Basis.CHEBYSHEV_T, q, n)
            corrected = _u_deriv_at_1(q, n, include_missing_factor=True)
            assert corrected == cheb_deriv_at_1(Basis.CHEBYSHEV_U, q, n)

    @given(st.lists(st.tuples(st.integers(0, 60), st.sampled_from([HALF_I, MINUS_TWO_I])), min_size=1))
    def test_gaussian_fibonacci_values_equal_the_polynomial_values(self, pairs):
        for k, point in pairs:
            assert _fibonacci_at(k, point) == fibonacci_poly(k)(point)


class TestWeightedSumFirstKind:
    def test_passes_at_one(self):
        report = verify_cor_sum_T(1)
        assert report.status is Status.PASS
        assert report.printed_residual == 0

    def test_erratum_at_two(self):
        # verbatim sum is 1/2; multiplying by the dropped parent factor j fixes it
        report = verify_cor_sum_T(2)
        assert report.status is Status.PAPER_ERRATUM
        assert report.printed_residual == Fraction(-1, 2)
        assert report.corrected_residual == 0

    def test_corrected_form_exact_through_sixty(self):
        for j in range(1, 61):
            report = verify_cor_sum_T(j)
            assert report.corrected_residual == 0
            assert report.status in (Status.PASS, Status.PAPER_ERRATUM)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_cor_sum_T(0)


class TestWeightedSumSecondKind:
    def test_small_values(self):
        assert verify_cor_sum_U(1).lhs == 2
        assert verify_cor_sum_U(2).lhs == 3

    def test_exact_through_sixty(self):
        for j in range(1, 61):
            report = verify_cor_sum_U(j)
            assert report.status is Status.PASS, j

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_cor_sum_U(0)


class TestFibonacciExpressions:
    def test_base_case(self):
        report = verify_fib_expressions(0)
        assert report.status is Status.PASS
        assert report.checks[0].rhs == 1

    def test_hand_expanded_values(self):
        # j=3 first kind: 1/4 + 11/4 = 3; j=2 second kind: (3 + 5)/4 = 2
        report = verify_fib_expressions(3)
        assert report.checks[0].lhs == 3
        report = verify_fib_expressions(2)
        assert report.checks[1].lhs == 2

    def test_exact_through_sixty(self):
        for j in range(61):
            assert verify_fib_expressions(j).status is Status.PASS, j


class TestChain:
    def test_all_members_equal_fibonacci_value(self):
        for j in (1, 2, 5):
            report = verify_2f1_chain(j)
            expected = fibonacci_number(j + 1)
            assert all(c.lhs == expected for c in report.checks), j

    def test_tail_prefactor_erratum(self):
        # printed 4/5-member equals F_{j+1}; the stated head needs prefactor 1/(j+1)
        report = verify_2f1_chain(2)
        assert report.status is Status.PAPER_ERRATUM
        assert report.printed_residual == 2 - Fraction(8, 3)
        assert report.corrected_residual == 0

    def test_passes_where_prefactors_coincide(self):
        assert verify_2f1_chain(0).status is Status.PASS
        assert verify_2f1_chain(1).status is Status.PASS

    def test_members_exact_through_sixty(self):
        for j in range(61):
            report = verify_2f1_chain(j)
            assert all(c.ok for c in report.checks), j
            assert report.corrected_residual == 0, j

    def test_sums_equal_the_stepwise_fractions(self):
        # reference: the two printed m-sums, multiplied out one Fraction factor at a time
        for j in range(41):
            sum_one_fifth = Fraction(2) ** (1 - j) * sum(
                Fraction(5) ** m / c_norm(j - 2 * m)
                * binomial(j - m, j - 2 * m)
                * hyp2f1(-m, -m, j - 2 * m + 1, Fraction(1, 5))
                for m in range(j // 2 + 1)
            )
            four_fifths_sum = sum(
                Fraction(5) ** m
                * binomial(j, m)
                * Fraction((j - 2 * m + 1) ** 2, j - m + 1)
                * hyp2f1(-m, 1 - m, -j, Fraction(4, 5))
                for m in range(j // 2 + 1)
            )
            head_arg5 = hyp2f1(Fraction(-j, 2), Fraction(1 - j, 2), Fraction(3, 2), 5)
            report = verify_2f1_chain(j)
            members = {c.name: c.lhs for c in report.checks}
            assert members["sum(1/5)"] == sum_one_fifth, j
            assert members["sum(4/5)"] == Fraction(1, 2**j) * four_fifths_sum, j
            assert report.printed_residual == Fraction(1, 2**j) * four_fifths_sum - head_arg5, j
            assert report.corrected_residual == Fraction(1, j + 1) * four_fifths_sum - head_arg5, j


class TestComplexIdentities:
    def test_named_values(self):
        # U_2(i/2) = -2 so F_3 = -2 / i^2 = 2; U_1(-2i) = -4i = (-i/2) F_6
        report = verify_complex_identities(2)
        assert report.status is Status.PASS
        report = verify_complex_identities(1)
        eq2 = next(c for c in report.checks if c.name == "eq-complex-2")
        assert str(eq2.lhs) == "0-4*i"

    def test_base_case(self):
        assert verify_complex_identities(0).status is Status.PASS

    def test_exact_through_forty(self):
        for n in range(41):
            assert verify_complex_identities(n).status is Status.PASS, n


class TestLaurentIdentity:
    def test_hand_computed_point(self):
        # F_3(5/4) = 41/16 split as 17/16 + 24/16
        report = verify_laurent_identity(2, Fraction(2))
        assert report.status is Status.PASS
        assert report.lhs == Fraction(41, 16)

    def test_trivial_cases(self):
        assert verify_laurent_identity(0, Fraction(7, 5)).status is Status.PASS
        report = verify_laurent_identity(3, Fraction(1))
        assert report.status is Status.PASS
        assert report.lhs == 3  # F_4(1)

    def test_sweep(self):
        points = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(7, 5))
        for j in range(41):
            for x0 in points:
                assert verify_laurent_identity(j, x0).status is Status.PASS, (j, x0)

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            verify_laurent_identity(2, Fraction(0))


class TestTrigIdentity:
    def test_angle_zero_reduces_to_endpoint(self):
        assert verify_trig_identity(2, 0.0) < 1e-12

    def test_sample_angle(self):
        assert verify_trig_identity(4, math.pi / 3) < 1e-12

    def test_constant_case(self):
        assert verify_trig_identity(0, 1.2345) == 0.0

    def test_sixteen_sample_sweep(self):
        thetas = [math.pi * (t + 1) / 16 for t in range(16)]
        for j in range(31):
            worst = max(verify_trig_identity(j, theta) for theta in thetas)
            assert worst < 1e-9, j


class TestDerivativeCorollaries:
    def test_first_order_values(self):
        # prefactor 1/12 and sum 24 reproduce F'_3(1) = 2 in the second-kind form
        prefactor = sqrt_pi_over_gamma(1, Fraction(3, 2)) / 2**4
        assert prefactor == Fraction(1, 12)
        report = verify_derivative_corollaries(2, 1)
        assert report.status is Status.PASS
        deriv_u = next(c for c in report.checks if c.name == "deriv-U-corrected")
        assert deriv_u.lhs == 2
        assert deriv_u.lhs / prefactor == 24

    def test_all_four_formulas_at_one_one(self):
        # F_2 = x so every first-derivative quantity is 1
        report = verify_derivative_corollaries(1, 1)
        assert report.status is Status.PASS
        for name in ("sum-T", "sum-U", "deriv-T", "deriv-U-corrected"):
            check = next(c for c in report.checks if c.name == name)
            assert check.lhs == 1, name

    def test_second_kind_form_erratum_at_higher_order(self):
        report = verify_derivative_corollaries(2, 2)
        assert report.status is Status.PAPER_ERRATUM
        assert report.printed_residual == -4  # printed -2 vs oracle 2
        assert report.corrected_residual == 0

    def test_sweep_small(self):
        for j in range(16):
            for q in range(1, 6):
                report = verify_derivative_corollaries(j, q)
                assert report.status in (Status.PASS, Status.PAPER_ERRATUM), (j, q)
                assert all(c.ok for c in report.checks), (j, q)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            verify_derivative_corollaries(3, 0)


def test_fib_2f1_representation_reports():
    for n in range(1, 30):
        assert verify_fib_2f1_representations(n).status is Status.PASS
