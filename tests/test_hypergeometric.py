"""Terminating 2F1 evaluation, Fibonacci representations, linear transformation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcheb import (
    Hyp2F1,
    NonTerminatingError,
    ZeroDenominatorError,
    eval_2f1,
    fibonacci_as_2f1,
    fibonacci_number,
    hyp2f1,
    pfaff_transform,
)


def forward_2f1(series: Hyp2F1) -> Fraction:
    """Reference: the series summed term by term in reduced Fractions, first term first."""
    K = series.termination_index()
    total, term = Fraction(0), Fraction(1)
    for k in range(K + 1):
        total += term
        if k == K:
            break
        ck = series.c + k
        if ck == 0:
            raise ZeroDenominatorError(f"lower parameter vanishes at term {k + 1} of {K}")
        term = term * (series.a + k) * (series.b + k) * series.z / (ck * (k + 1))
    return total


half_integers = st.integers(min_value=-31, max_value=31).map(lambda n: Fraction(n, 2))
rationals = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7)
paper_arguments = st.sampled_from(
    [Fraction(-4), Fraction(-1, 4), Fraction(1, 5), Fraction(4, 5), Fraction(5)]
)


class TestEval2F1:
    def test_truncates_at_zero_upper_parameter(self):
        assert hyp2f1(0, Fraction(7, 3), 5, Fraction(-9, 2)) == 1

    def test_direct_values(self):
        # 1 + (-1)(2)(-4)/3
        assert hyp2f1(-1, 2, 3, -4) == Fraction(11, 3)
        # equals the third Fibonacci number
        assert hyp2f1(-1, Fraction(-1, 2), -2, -4) == 2

    def test_termination_uses_smaller_index_when_both_qualify(self):
        # a=-1 stops the series before b=-3 or the c=-2 zero is reached:
        # 1 + (-1)(-3)(1)/(-2) = -1/2
        assert hyp2f1(-1, -3, -2, 1) == Fraction(-1, 2)

    def test_nonterminating_rejected(self):
        with pytest.raises(NonTerminatingError):
            hyp2f1(Fraction(1, 2), Fraction(3, 2), 1, Fraction(1, 3))

    def test_zero_denominator_rejected(self):
        # c = -2 vanishes at term 3, inside the a = -3 termination range
        with pytest.raises(ZeroDenominatorError):
            hyp2f1(-3, 1, -2, 1)

    def test_zero_lower_parameter_unreachable_when_a_is_zero(self):
        # termination at k = 0 never inspects c, even when c = 0
        assert hyp2f1(0, 1, 0, Fraction(4, 5)) == 1

    @given(
        st.integers(min_value=-10, max_value=0),
        st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6),
        st.fractions(min_value=Fraction(1, 3), max_value=Fraction(9), max_denominator=4),
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5),
    )
    def test_symmetric_in_upper_parameters(self, a, b, c, z):
        assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)

    @settings(max_examples=300)
    @given(
        st.integers(min_value=-16, max_value=0),
        st.one_of(st.integers(min_value=-20, max_value=20), half_integers, rationals),
        st.one_of(st.integers(min_value=-20, max_value=20), half_integers, rationals),
        st.one_of(paper_arguments, rationals),
        st.booleans(),
    )
    def test_matches_forward_fraction_sum(self, a, b, c, z, swap):
        series = Hyp2F1(b, a, c, z) if swap else Hyp2F1(a, b, c, z)
        try:
            expected = forward_2f1(series)
        except ZeroDenominatorError as reference:
            with pytest.raises(ZeroDenominatorError) as raised:
                eval_2f1(series)
            assert str(raised.value).endswith(str(reference))
        else:
            assert eval_2f1(series) == expected

    def test_zero_denominator_reports_the_reference_term(self):
        # K = 8: c = 0 .. -7 vanishes at term 1 - c, c = -8 only after the last term
        for c in range(-7, 1):
            series = Hyp2F1(-8, Fraction(3, 2), c, Fraction(-1, 4))
            message = f"lower parameter vanishes at term {1 - c} of 8$"
            with pytest.raises(ZeroDenominatorError, match=message):
                eval_2f1(series)
            with pytest.raises(ZeroDenominatorError, match=message):
                forward_2f1(series)
        series = Hyp2F1(-8, Fraction(3, 2), -8, Fraction(-1, 4))
        assert eval_2f1(series) == forward_2f1(series)

    def test_equal_spellings_share_one_cache_entry(self):
        eval_2f1.cache_clear()
        assert eval_2f1(Hyp2F1(-1, 2, 3, -4)) == Fraction(11, 3)
        assert eval_2f1(Hyp2F1(Fraction(-1), Fraction(2), Fraction(3), Fraction(-4))) == Fraction(11, 3)
        info = eval_2f1.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


class TestFibonacciRepresentations:
    def test_examples(self):
        assert fibonacci_as_2f1(3) == (2, 2)
        assert fibonacci_as_2f1(1) == (1, 1)

    def test_both_variants_match_recurrence_to_100(self):
        for n in range(1, 101):
            expected = fibonacci_number(n)
            assert fibonacci_as_2f1(n) == (expected, expected)

    def test_lower_parameter_never_vanishes_before_termination(self):
        # c = 1-n stays clear of zero through the termination index
        for n in range(1, 101):
            spec = Hyp2F1(Fraction(1 - n, 2), Fraction(2 - n, 2), 1 - n, -4)
            K = spec.termination_index()
            assert K == (n - 1) // 2
            assert all(spec.c + k != 0 for k in range(K))

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            fibonacci_as_2f1(0)


class TestPfaffTransform:
    def test_example_with_integer_parameters(self):
        prefactor, transformed = pfaff_transform(Hyp2F1(-1, 2, 3, -4))
        assert prefactor == 5
        assert transformed == Hyp2F1(-1, 1, 3, Fraction(4, 5))
        assert type(transformed.z) is Fraction  # an int z divides exactly
        assert prefactor * eval_2f1(transformed) == hyp2f1(-1, 2, 3, -4)

    def test_trivial_at_zero_parameter(self):
        prefactor, transformed = pfaff_transform(Hyp2F1(0, 5, 7, Fraction(2, 3)))
        assert prefactor == 1
        assert eval_2f1(transformed) == 1

    def test_example_with_half_integer_second_parameter(self):
        prefactor, transformed = pfaff_transform(Hyp2F1(-1, Fraction(-1, 2), Fraction(3, 2), 5))
        assert prefactor == -4
        assert transformed == Hyp2F1(-1, 2, Fraction(3, 2), Fraction(5, 4))
        assert prefactor * eval_2f1(transformed) == Fraction(8, 3)

    def test_round_trip_on_first_kind_connection_grid(self):
        # inner series of the first-kind expansion: argument -1/4 -> 1/5
        for j in range(61):
            for m in range(j // 2 + 1):
                original = Hyp2F1(-m, j - m + 1, j - 2 * m + 1, Fraction(-1, 4))
                prefactor, transformed = pfaff_transform(original)
                assert prefactor == Fraction(5, 4) ** m
                assert transformed == Hyp2F1(-m, -m, j - 2 * m + 1, Fraction(1, 5))
                assert prefactor * eval_2f1(transformed) == eval_2f1(original)

    def test_round_trip_on_second_kind_connection_grid(self):
        # inner series of the second-kind expansion: argument -4 -> 4/5
        for j in range(61):
            for m in range(j // 2 + 1):
                original = Hyp2F1(-m, -j + m - 1, -j, -4)
                prefactor, transformed = pfaff_transform(original)
                assert prefactor == Fraction(5) ** m
                assert transformed == Hyp2F1(-m, 1 - m, -j, Fraction(4, 5))
                assert prefactor * eval_2f1(transformed) == eval_2f1(original)

    def test_rejects_noninteger_first_parameter(self):
        with pytest.raises(ValueError):
            pfaff_transform(Hyp2F1(Fraction(-1, 2), -1, 2, 3))

    def test_rejects_unit_argument(self):
        with pytest.raises(ValueError):
            pfaff_transform(Hyp2F1(-1, 2, 3, 1))
