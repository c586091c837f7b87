"""Connection tables vs the triangular-elimination oracle."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibcheb import (
    Basis,
    Direction,
    Polynomial,
    binomial,
    c_norm,
    chebyshev_t,
    d_coefficient,
    expand,
    fibonacci_poly,
    hyp2f1,
    lemma_recurrence_holds,
    oracle_expand,
)
from fibcheb import connection, hypergeometric, integrals, runner, sequences
from fibcheb.connection import Expansion, ExpansionTerm, _coefficient, table_rows, terms


def rebuild_elimination(p, basis):
    """Reference: leading-term elimination that builds a new remainder polynomial per step."""
    out = []
    rest = p
    for degree in range(p.degree, -1, -1):
        index = degree + 1 if basis is Basis.FIBONACCI else degree
        elem = basis.member(index)
        coeff = (rest.coeffs[degree] if rest.degree == degree else 0) / elem.coeffs[-1]
        out.append((index, coeff))
        if coeff != 0:
            rest = rest - elem * coeff
    assert rest.is_zero
    return out


def stepwise_coefficient(j, m, direction):
    """Reference: the printed closed form of c(j, m), multiplied out one Fraction factor at a time."""
    if direction is Direction.T_IN_F:
        return (
            Fraction(j)
            * (-1) ** m
            * binomial(j - m, j - 2 * m)
            * Fraction(2) ** (j - 2 * m - 1)
            / (j - m)
            * hyp2f1(-m, j - m, j - 2 * m + 2, -4)
        )
    if direction is Direction.U_IN_F:
        return (
            Fraction(2) ** j
            * (-1) ** (m + 1)
            * binomial(j, m)
            * Fraction(-j + 2 * m - 1, j - m + 1)
            * hyp2f1(-m, -j + m - 1, -j, Fraction(-1, 4))
        )
    if direction is Direction.F_IN_T:
        return (
            Fraction(1) / c_norm(j - 2 * m)
            * binomial(j - m, j - 2 * m)
            * Fraction(2) ** (-j + 2 * m + 1)
            * hyp2f1(-m, j - m + 1, j - 2 * m + 1, Fraction(-1, 4))
        )
    return Fraction(1, 2**j) * binomial(j, m) * Fraction(j - 2 * m + 1, j - m + 1) * d_coefficient(j, m)


rational_polys = st.lists(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=15), max_size=14
).map(Polynomial)


def coefficients(j, direction):
    return {t.target_index: t.coefficient for t in expand(j, direction).terms}


class TestClosedFormOnTheLattice:
    @pytest.mark.parametrize("direction", list(Direction))
    def test_equals_the_stepwise_fractions(self, direction):
        # every m of every j <= 60, from j = 0 wherever the closed form is defined
        for j in range(1 if direction is Direction.T_IN_F else 0, 61):
            for m in range(j // 2 + 1):
                got = _coefficient(j, m, direction)
                assert type(got) is Fraction
                assert got == stepwise_coefficient(j, m, direction), (direction, j, m)


class TestRowOnOneDenominator:
    @pytest.mark.parametrize("direction", list(Direction))
    def test_row_is_the_terms_over_their_least_common_denominator(self, direction):
        shift = direction.target_basis.shift
        for j in range(1 if direction is Direction.T_IN_F else 0, 61):
            coefficients = [_coefficient(j, m, direction) for m in range(j // 2 + 1)]
            indices, nums, den = connection.row(j, direction)
            assert indices == tuple(j - 2 * m + shift for m in range(j // 2 + 1))
            assert all(type(v) is int for v in (den, *nums))
            assert [Fraction(n, den) for n in nums] == coefficients, (direction, j)
            assert den == math.lcm(*(c.denominator for c in coefficients))
            assert math.gcd(den, *nums) == 1
            assert terms(j, direction) == tuple(
                ExpansionTerm(m, n, c) for m, (n, c) in enumerate(zip(indices, coefficients))
            )

    @pytest.mark.parametrize("direction", list(Direction))
    def test_reconstruct_equals_the_stepwise_sum(self, direction):
        for j in range(direction.min_index, 41):
            expansion = expand(j, direction)
            stepwise = Polynomial()
            for t in expansion.terms:
                stepwise = stepwise + direction.target_basis.member(t.target_index) * t.coefficient
            assert expansion.reconstruct() == stepwise, (direction, j)

    def test_reconstruct_puts_members_with_denominators_on_one_scale(self, monkeypatch):
        # T_n / (n + 1) in place of T_n: the members' denominators differ from term to term
        scaled = {n: chebyshev_t(n) * Fraction(1, n + 1) for n in range(41)}
        monkeypatch.setattr(sequences, "chebyshev_t", scaled.__getitem__)
        for j in range(41):
            expansion = expand(j, Direction.F_IN_T)
            stepwise = sum((scaled[n] * c for _, n, c in expansion.terms), Polynomial())
            assert expansion.reconstruct() == stepwise, j


class TestDirection:
    def test_source_and_target_families(self):
        assert {d: (d.source_basis, d.target_basis) for d in Direction} == {
            Direction.T_IN_F: (Basis.CHEBYSHEV_T, Basis.FIBONACCI),
            Direction.U_IN_F: (Basis.CHEBYSHEV_U, Basis.FIBONACCI),
            Direction.F_IN_T: (Basis.FIBONACCI, Basis.CHEBYSHEV_T),
            Direction.F_IN_U: (Basis.FIBONACCI, Basis.CHEBYSHEV_U),
        }

    def test_source_polynomial_has_degree_j(self):
        for direction in Direction:
            for j in range(21):
                assert direction.source_polynomial(j).degree == j, (direction, j)


class TestExpansions:
    def test_t2_in_fibonacci(self):
        assert coefficients(2, Direction.T_IN_F) == {3: 2, 1: -3}

    def test_u2_in_fibonacci(self):
        assert coefficients(2, Direction.U_IN_F) == {3: 4, 1: -5}

    def test_f4_in_first_kind(self):
        assert coefficients(3, Direction.F_IN_T) == {3: Fraction(1, 4), 1: Fraction(11, 4)}

    def test_f3_in_second_kind(self):
        assert coefficients(2, Direction.F_IN_U) == {2: Fraction(1, 4), 0: Fraction(5, 4)}

    def test_reconstruction_spot_checks(self):
        # 2(x^2+1) - 3 = 2x^2 - 1 and (1/4)(4x^3-3x) + (11/4)x = x^3 + 2x
        assert expand(2, Direction.T_IN_F).reconstruct() == chebyshev_t(2)
        assert expand(3, Direction.F_IN_T).reconstruct() == fibonacci_poly(4)
        assert expand(3, Direction.F_IN_U).reconstruct() == fibonacci_poly(4)

    def test_rejects_zero_index_for_chebyshev_sources(self):
        for direction in (Direction.T_IN_F, Direction.U_IN_F):
            for build in (expand, connection.reconstruct):
                with pytest.raises(ValueError, match="requires j >= 1, got 0"):
                    build(0, direction)

    def test_terms_are_unguarded_at_zero(self):
        # U_0 = 1 = F_1: the corollaries evaluated at n = 0 need this term,
        # although expand() keeps the stated range j >= 1.
        assert list(terms(0, Direction.U_IN_F)) == [(0, 1, 1)]

    def test_expand_shares_the_cached_terms(self):
        # terms is an uncached view of the cached row, and expand holds that view
        for direction in Direction:
            indices, nums, den = connection.row(5, direction)
            view = tuple(ExpansionTerm(m, n, Fraction(c, den)) for m, (n, c) in enumerate(zip(indices, nums)))
            assert terms(5, direction) == view
            assert expand(5, direction).terms == terms(5, direction)
            assert expand(5, direction) is expand(5, direction)

    def test_fibonacci_sources_allow_zero(self):
        assert expand(0, Direction.F_IN_T).reconstruct() == Polynomial((1,))
        assert expand(0, Direction.F_IN_U).reconstruct() == Polynomial((1,))

    def test_expansion_is_an_immutable_value(self):
        expansion = expand(3, Direction.F_IN_T)
        with pytest.raises(AttributeError):
            expansion.j = 4
        with pytest.raises(AttributeError):
            del expansion.j
        for copied in (pickle.loads(pickle.dumps(expansion)), copy.copy(expansion)):
            assert copied == expansion and type(copied) is Expansion
            assert copied.reconstruct() == fibonacci_poly(4)
        built = Expansion(j=3, direction=Direction.F_IN_T, terms=terms(3, Direction.F_IN_T))
        assert (built.j, built.direction, built.terms) == (3, Direction.F_IN_T, terms(3, Direction.F_IN_T))
        assert Expansion(3, Direction.F_IN_T, terms(3, Direction.F_IN_T)) == built == expansion
        assert {t.target_index: t.coefficient for t in built.terms} == {3: Fraction(1, 4), 1: Fraction(11, 4)}


def integer_family(p0, p1, x_factor, sign, count):
    """Members 0 .. count-1 of P_{k+1} = x_factor * P_k + sign * P_{k-1} at one integer point."""
    values = [p0, p1]
    while len(values) < count:
        values.append(x_factor * values[-1] + sign * values[-2])
    return values


def table_terms(direction, jmax):
    """The rows of ``table_rows`` as (j, terms), each integer s over 2^e as ``ExpansionTerm(m, index, s / 2^e)``."""
    shift = direction.target_basis.shift
    for j, row, e in table_rows(direction, jmax):
        yield j, tuple(ExpansionTerm(m, j - 2 * m + shift, Fraction(s, 1 << e)) for m, s in enumerate(row))


class TestTableTerms:
    """The integer rows of ``table_rows``, held to the closed form and to the source polynomials."""

    @pytest.mark.parametrize("direction", list(Direction))
    def test_rows_equal_the_closed_form(self, direction):
        rows = list(table_terms(direction, 200))
        assert [j for j, _ in rows] == list(range(direction.min_index, 201))
        for j, row in rows:
            assert row == terms(j, direction), (direction, j)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_large_rows_sum_to_the_source_at_integer_points(self, direction):
        # F_k(x), T_n(x) and U_n(x) at x = 1, 2 from their own integer
        # recurrences, independent of the closed form and of the generator
        jmax = 900
        count = jmax + 2
        values = {
            x: {
                Basis.FIBONACCI: integer_family(0, 1, x, 1, count),
                Basis.CHEBYSHEV_T: integer_family(1, x, 2 * x, -1, count),
                Basis.CHEBYSHEV_U: integer_family(1, 2 * x, 2 * x, -1, count),
            }
            for x in (1, 2)
        }
        shift = 1 if direction.target_basis is Basis.FIBONACCI else 0
        source_basis, source_shift = {
            Direction.T_IN_F: (Basis.CHEBYSHEV_T, 0),
            Direction.U_IN_F: (Basis.CHEBYSHEV_U, 0),
        }.get(direction, (Basis.FIBONACCI, 1))
        last = direction.min_index - 1
        for j, row, e in table_rows(direction, jmax):
            assert j == last + 1
            last = j
            assert len(row) == j // 2 + 1
            assert e == (0 if direction.target_basis is Basis.FIBONACCI else j)
            for x in (1, 2):
                target = values[x][direction.target_basis]
                source = values[x][source_basis][j + source_shift]
                total = sum(s * target[j - 2 * m + shift] for m, s in enumerate(row))
                assert total == source << e, (direction, j, x)
        assert last == jmax

    def test_no_coefficient_is_zero_up_to_the_default_cap(self):
        # the oracle drops zero coefficients while ``row`` keeps every m, so the
        # connection suite's oracle-match equality needs every true coefficient nonzero
        for direction in Direction:
            for j, row, _ in table_rows(direction, runner.DEFAULT_SAFETY_CAP):
                assert all(row), (direction, j)


class TestOracleExpand:
    def test_monomial_in_first_kind(self):
        # 1 + x^2 = T_2 / 2 + 3 T_0 / 2
        assert oracle_expand(Polynomial((1, 0, 1)), Basis.CHEBYSHEV_T) == ((2, 0), (1, 3), 2)

    def test_basis_element_maps_to_itself(self):
        assert oracle_expand(chebyshev_t(2), Basis.CHEBYSHEV_T) == ((2,), (1,), 1)

    def test_fibonacci_basis(self):
        # 2x + x^3 = F_4
        assert oracle_expand(Polynomial((0, 2, 0, 1)), Basis.FIBONACCI) == ((4,), (1,), 1)

    def test_zero_polynomial(self):
        for basis in Basis:
            assert oracle_expand(Polynomial(), basis) == ((), (), 1)

    def test_members_with_a_denominator(self, monkeypatch):
        # with each member divided by index + 2, coefficient n is multiplied by
        # n + 2 and the triple is still on its least common denominator
        p = Polynomial((Fraction(1, 3), -2, 0, 5, Fraction(7, 2)))
        expected = {}
        for basis in Basis:
            indices, nums, den = oracle_expand(p, basis)
            expected[basis] = [(index, Fraction(n, den) * (index + 2)) for index, n in zip(indices, nums)]
        member = Basis.member

        def scaled(basis, index):
            return member(basis, index) * Fraction(1, index + 2)

        monkeypatch.setattr(Basis, "member", scaled)
        for basis in Basis:
            indices, nums, den = oracle_expand(p, basis)
            assert [(index, Fraction(n, den)) for index, n in zip(indices, nums)] == expected[basis]
            assert 0 not in nums and den > 0 and math.gcd(den, *nums) == 1

    def test_linearity_round_trip(self):
        p = Polynomial((Fraction(1, 3), -2, 0, 5, Fraction(7, 2)))
        for basis in Basis:
            indices, nums, den = oracle_expand(p, basis)
            total = Polynomial()
            for index, n in zip(indices, nums):
                total = total + basis.member(index) * Fraction(n, den)
            assert total == p

    @given(rational_polys, st.sampled_from(list(Basis)))
    def test_matches_rebuild_per_step_elimination(self, p, basis):
        indices, nums, den = oracle_expand(p, basis)
        assert len(indices) == len(nums)
        nonzero = [(index, c) for index, c in rebuild_elimination(p, basis) if c != 0]
        assert [(index, Fraction(n, den)) for index, n in zip(indices, nums)] == nonzero
        # row's canonical form: no zero numerator, D > 0 and the least common denominator
        assert 0 not in nums and den > 0 and math.gcd(den, *nums) == 1

    def test_independent_of_the_closed_form(self, monkeypatch):
        # oracles stay independent of the routes they check: with every closed-form
        # entry point raising, the oracle and the integral route built on it still run
        def closed_form(*args):
            raise AssertionError("the elimination oracle read the closed form")

        for name in ("_coefficient", "terms", "row"):
            monkeypatch.setattr(connection, name, closed_form)
        monkeypatch.setattr(hypergeometric, "eval_2f1", closed_form)
        for direction in Direction:
            for j in range(31):
                oracle_expand(direction.source_polynomial(j), direction.target_basis)
        integrals._expansion_over.cache_clear()
        for j in range(31):
            for weight in integrals.Weight:
                integrals._expansion_over((Basis.FIBONACCI, j + 1), weight)

    def test_raises_on_a_nonzero_remainder(self, monkeypatch):
        # a family whose index-n slot holds the index-(n-1) member is not
        # triangular: the top coefficient of each step is never removed
        member = Basis.member

        def shifted(basis, index):
            return member(basis, max(index - 1, 0))

        monkeypatch.setattr(Basis, "member", shifted)
        with pytest.raises(AssertionError, match="nonzero remainder"):
            oracle_expand(Polynomial((1, 0, 1)), Basis.CHEBYSHEV_T)


class TestTheoremsAgainstOracle:
    def test_round_trip_and_oracle_match(self):
        # full j <= 60 sweep lives in the acceptance suite; spot-check a band here
        for direction in Direction:
            for j in range(direction.min_index, 26):
                expansion = expand(j, direction)
                source = direction.source_polynomial(j)
                assert expansion.reconstruct() == source
                assert oracle_expand(source, direction.target_basis) == connection.row(j, direction), (direction, j)

    def test_inversion_t_route(self):
        # expanding F in T and every T back in F must reproduce exactly F
        for j in range(41):
            accumulated: dict[int, Fraction] = {}
            for t in expand(j, Direction.F_IN_T).terms:
                if t.target_index == 0:
                    # T_0 = 1 = F_1 directly; the closed form starts at index 1
                    accumulated[1] = accumulated.get(1, Fraction(0)) + t.coefficient
                    continue
                for s in expand(t.target_index, Direction.T_IN_F).terms:
                    key = s.target_index
                    accumulated[key] = accumulated.get(key, Fraction(0)) + t.coefficient * s.coefficient
            nonzero = {k: v for k, v in accumulated.items() if v != 0}
            assert nonzero == {j + 1: Fraction(1)}

    def test_inversion_u_route(self):
        for j in range(41):
            accumulated: dict[int, Fraction] = {}
            for t in expand(j, Direction.F_IN_U).terms:
                if t.target_index == 0:
                    accumulated[1] = accumulated.get(1, Fraction(0)) + t.coefficient
                    continue
                for s in expand(t.target_index, Direction.U_IN_F).terms:
                    key = s.target_index
                    accumulated[key] = accumulated.get(key, Fraction(0)) + t.coefficient * s.coefficient
            nonzero = {k: v for k, v in accumulated.items() if v != 0}
            assert nonzero == {j + 1: Fraction(1)}

    def test_fibonacci_expansion_coefficients_positive(self):
        for j in range(61):
            for direction in (Direction.F_IN_T, Direction.F_IN_U):
                assert all(t.coefficient > 0 for t in expand(j, direction).terms), (j, direction)


class TestLemmaRecurrence:
    def test_examples(self):
        assert lemma_recurrence_holds(4, 1)
        assert lemma_recurrence_holds(6, 2)

    def test_trivial_column(self):
        assert all(lemma_recurrence_holds(j, 0) for j in range(2, 20))

    def test_full_range(self):
        for j in range(2, 41):
            for m in range(1, j // 2 + 1):
                assert lemma_recurrence_holds(j, m), (j, m)

    def test_fails_when_one_series_value_is_off(self, monkeypatch):
        # the integer sum must see a perturbation of any one of its four terms
        for j, m in ((6, 2), (9, 3), (30, 7)):
            for dj, dm in ((j - 2, m - 1), (j - 1, m - 1), (j - 1, m), (j, m)):
                def off(a, b, dj=dj, dm=dm):
                    return d_coefficient(a, b) + (Fraction(1, 3) if (a, b) == (dj, dm) else 0)

                monkeypatch.setattr(connection, "d_coefficient", off)
                assert not lemma_recurrence_holds(j, m), (j, m, dj, dm)
                monkeypatch.undo()
            assert lemma_recurrence_holds(j, m)
