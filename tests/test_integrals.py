"""Weighted integrals: dual exact oracles, quadrature, printed-form audits."""

import copy
import json
import math
import pickle
import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibcheb import (
    Basis,
    Direction,
    PiMultiple,
    Polynomial,
    Status,
    Weight,
    chebyshev_t,
    chebyshev_u,
    integral_fib_cheb_t,
    integral_fib_cheb_u,
    integral_fib_fib,
    quadrature_check,
    quadrature_deviation,
    weighted_integral,
    weighted_integral_by_expansion,
    weighted_integral_by_moments,
)
from fibcheb import binomial, c_norm, connection, hyp2f1, integrals, runner, sequences
from fibcheb.cli import main
from fibcheb.integrals import QUADRATURE_REL_TOL, _members_at_nodes, quadrature_nodes
from fibcheb.scalars import double_factorial

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


def even_moment(n, weight):
    """Reference: the coefficient of pi in the weighted integral of x^(2n),
    (2n-1)!!/(2n)!! (first kind) or (2n-1)!!/(2n+2)!! (second kind)."""
    top = 2 * n if weight is Weight.FIRST_KIND else 2 * n + 2
    return Fraction(double_factorial(2 * n - 1), double_factorial(top))


def moment_sum(p, weight):
    """Reference: sum of c_i * even_moment(i/2) over the even powers i of p."""
    return sum(
        (c * even_moment(i // 2, weight) for i, c in enumerate(p.coeffs) if i % 2 == 0),
        Fraction(0),
    )


def reference_moment(n, weight):
    """Reference: a[n] = 2^(2n+1) / pi times the weighted integral of x^(2n), one central binomial each."""
    central = binomial(2 * n, n)
    return 2 * central if weight is Weight.FIRST_KIND else central // (n + 1)


def reference_members_at_nodes(basis, xs):
    """Reference: ``integrals._members_at_nodes`` by comprehensions over zip, the same float operations."""
    if basis is Basis.FIBONACCI:
        prev, cur, e = [1.0] * len(xs), [0.0] * len(xs), 0
        while True:
            yield cur, e
            prev, cur = cur, [x * a + b for x, a, b in zip(xs, cur, prev)]
            if cur[0] > 2.0**500:
                prev, cur, e = [v * 2.0**-500 for v in prev], [v * 2.0**-500 for v in cur], e + 500
    cur, steps = [1.0] * len(xs), [2 * (x - 1) for x in xs]
    diff = [1 - x for x in xs] if basis is Basis.CHEBYSHEV_T else cur
    while True:
        yield cur, 0
        diff = [d + c * a for d, c, a in zip(diff, steps, cur)]
        cur = [a + d for a, d in zip(cur, diff)]


class ReferenceRow:
    """Reference: one row's moment route and quadrature terms element by element.

    The same integer and float operations as ``integrals._Row``, written per
    element: each moment v[i] by a method that runs the Horner pass and keeps
    it in a dict, the dot product as a generator over the nonzero
    coefficients, and the quadrature terms by unpacking (x, w) node tuples,
    the mirrored half by a sign and a test of x.
    """

    def __init__(self, factor, weight):
        basis, index = factor
        self.weight, self.degree = weight, index - basis.shift
        self.nums, self.den = basis.member(index).integer_form()
        self.moments = {}
        self.nodes = quadrature_nodes(weight, max(self.degree, 0) + 1)
        self.xs = [x for x, _ in self.nodes]
        self.values = next(islice(reference_members_at_nodes(basis, self.xs), index, None))

    def moment(self, i):
        v = self.moments.get(i)
        if v is None:
            acc, last = 0, (len(self.nums) - 1 + i) // 2
            for l in range(i % 2, len(self.nums), 2):
                acc = (acc << 2) + self.nums[l] * reference_moment((l + i) // 2, self.weight)
            v = self.moments[i] = acc << 2 * (self.degree - last)
        return v

    def integral(self, factor):
        nums, den = factor[0].member(factor[1]).integer_form()
        if not (nums and self.nums):
            return PiMultiple(0)
        total = sum(c * self.moment(i) for i, c in enumerate(nums) if c)
        return PiMultiple(Fraction(total, (den * self.den) << (2 * self.degree + 1)))

    def quadrature_terms(self, factor, values):
        """(terms, e) for the row factor times ``factor``, whose node values are ``values``."""
        (first, e), (second, f) = self.values, values
        half = [w * (u * v) for (_, w), u, v in zip(self.nodes, first, second)]
        sign = -1.0 if (self.degree + factor[1] - factor[0].shift) % 2 else 1.0
        return half + [sign * t for (x, _), t in zip(self.nodes, half) if x], e + f


def reference_expansion(factor, weight):
    """Reference: the factor's oracle row over T or U as a dict keyed by index, and its denominator."""
    basis, index = factor
    target = Basis.CHEBYSHEV_T if weight is Weight.FIRST_KIND else Basis.CHEBYSHEV_U
    indices, nums, den = connection.oracle_expand(basis.member(index), target)
    return dict(zip(indices, nums)), den


def reference_by_expansion(expansions, weight):
    """Reference: the orthogonality sum over two dict rows, the keys of the first looked up in the second."""
    (a, a_den), (b, b_den) = expansions
    total = sum(c * b[n] for n, c in a.items() if n in b)
    if weight is Weight.FIRST_KIND:
        total += a.get(0, 0) * b.get(0, 0)
    return PiMultiple(Fraction(total, 2 * a_den * b_den))


def bits(terms):
    """The floats' exact bits, so that -0.0 differs from 0.0."""
    return [t.hex() for t in terms]


class TestPiMultiple:
    def test_arithmetic_and_equality(self):
        a = PiMultiple(Fraction(3, 2))
        b = PiMultiple(Fraction(1, 2))
        assert a + b == PiMultiple(2)
        assert a - b == PiMultiple(1)
        assert a * 2 == PiMultiple(3)
        assert PiMultiple(0) == 0
        assert len({PiMultiple(0), 0}) == 1
        assert a != 0

    def test_float_and_text(self):
        assert float(PiMultiple(Fraction(3, 2))) == pytest.approx(3 * math.pi / 2)
        assert str(PiMultiple(Fraction(3, 2))) == "3/2 * pi"

    def test_an_immutable_value(self):
        value = PiMultiple(Fraction(3, 2))
        with pytest.raises(AttributeError):
            value.coefficient = Fraction(1)
        with pytest.raises(AttributeError):
            del value.coefficient
        for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert copied == value and type(copied) is PiMultiple
            assert str(copied) == "3/2 * pi"
        # keyword construction, an int coefficient held as a Fraction
        built = PiMultiple(coefficient=3)
        assert type(built.coefficient) is Fraction and built == PiMultiple(Fraction(3))


class TestMomentOracle:
    def test_basic_values(self):
        assert weighted_integral(Polynomial((1,)), Weight.FIRST_KIND) == PiMultiple(1)
        assert weighted_integral(Polynomial((1, 0, 1)), Weight.FIRST_KIND) == PiMultiple(Fraction(3, 2))
        assert weighted_integral(Polynomial((1, 0, 1)), Weight.SECOND_KIND) == PiMultiple(Fraction(5, 8))

    def test_odd_polynomials_vanish(self):
        p = Polynomial((0, 3, 0, Fraction(-7, 2), 0, 1))
        for weight in Weight:
            assert weighted_integral(p, weight) == 0

    @given(rational_polys, st.sampled_from(list(Weight)))
    def test_matches_the_closed_form_moments(self, p, weight):
        assert weighted_integral(p, weight) == PiMultiple(moment_sum(p, weight))

    def test_moment_values(self):
        assert even_moment(0, Weight.FIRST_KIND) == 1
        assert even_moment(1, Weight.FIRST_KIND) == Fraction(1, 2)
        assert even_moment(0, Weight.SECOND_KIND) == Fraction(1, 2)
        assert even_moment(2, Weight.SECOND_KIND) == Fraction(1, 16)

    def test_every_even_moment_up_to_300(self):
        for weight in Weight:
            for n in range(301):
                p = Polynomial((0,) * (2 * n) + (1,))
                assert weighted_integral(p, weight) == PiMultiple(even_moment(n, weight)), (n, weight)


def product(factors):
    first, second = (basis.member(index) for basis, index in factors)
    return first * second


F, T, U = Basis.FIBONACCI, Basis.CHEBYSHEV_T, Basis.CHEBYSHEV_U


factors_up_to_40 = st.tuples(st.sampled_from(list(Basis)), st.integers(min_value=0, max_value=40))


class TestExpansionOracleAgreement:
    @given(factors_up_to_40, factors_up_to_40, st.sampled_from(list(Weight)))
    def test_two_exact_routes_agree(self, first, second, weight):
        factors = (first, second)
        assert weighted_integral_by_expansion(factors, weight) == weighted_integral(product(factors), weight)

    def test_known_values(self):
        # T_0^2 has norm pi and T_n^2 (n >= 1), U_n^2 norm pi/2; F_3 = 1 + x^2 = (3 T_0 + T_2) / 2
        # = (5 U_0 + U_2) / 4, F_2 = x = T_1 = U_1 / 2
        cases = [
            (((T, 0), (T, 0)), Weight.FIRST_KIND, 1),
            (((T, 3), (T, 3)), Weight.FIRST_KIND, Fraction(1, 2)),
            (((U, 4), (U, 4)), Weight.SECOND_KIND, Fraction(1, 2)),
            (((U, 4), (U, 2)), Weight.SECOND_KIND, 0),
            (((F, 3), (T, 0)), Weight.FIRST_KIND, Fraction(3, 2)),
            (((F, 3), (F, 3)), Weight.FIRST_KIND, Fraction(19, 8)),
            (((F, 3), (F, 3)), Weight.SECOND_KIND, Fraction(13, 16)),
            (((F, 3), (U, 2)), Weight.SECOND_KIND, Fraction(1, 8)),
            (((F, 2), (U, 1)), Weight.SECOND_KIND, Fraction(1, 4)),
        ]
        for factors, weight, expected in cases:
            assert weighted_integral_by_expansion(factors, weight) == PiMultiple(expected), factors

    def test_fibonacci_expansion_is_the_connection_row(self):
        # the expansion route's F_{j+1} over T or U is the closed-form F-in-T or F-in-U row
        for weight, direction in ((Weight.FIRST_KIND, Direction.F_IN_T), (Weight.SECOND_KIND, Direction.F_IN_U)):
            for j in range(31):
                indices, nums, den = connection.row(j, direction)
                dense = [0] * (max(indices) + 1)
                for n, c in zip(indices, nums):
                    dense[n] = c
                assert integrals._expansion_over((F, j + 1), weight) == (tuple(dense), den), (weight, j)

    def test_odd_products_vanish(self):
        for factors in (((F, 3), (T, 1)), ((F, 8), (T, 4)), ((F, 4), (U, 0)), ((F, 5), (F, 6))):
            for weight in Weight:
                assert weighted_integral_by_expansion(factors, weight) == 0


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
        # F_1 T_0 = 1, F_3 T_0 = 1 + x^2, F_3^2 = 1 + 2x^2 + x^4
        assert quadrature_check(((F, 1), (T, 0)), Weight.FIRST_KIND) == pytest.approx(math.pi)
        assert quadrature_check(((F, 3), (T, 0)), Weight.FIRST_KIND) == pytest.approx(
            4.712388980384690, abs=1e-12
        )
        assert quadrature_check(((F, 3), (F, 3)), Weight.SECOND_KIND) == pytest.approx(
            13 * math.pi / 16, abs=1e-14
        )

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
        st.sampled_from(list(Basis)),
        st.sampled_from(list(Weight)),
    )
    def test_agrees_with_the_moment_integral(self, j, k, basis, weight):
        # the row's rule, one node more than the larger factor degree, is exact:
        # the node values' rounding is all that separates the rule from the
        # integral, and from the full rule valued exactly
        factors = ((F, j + 1), (basis, k))
        p = product(factors)
        value = quadrature_check(factors, weight)
        scale = max(1.0, math.pi * float(F.member(j + 1)(1)) * float(basis.member(k)(1)))
        assert abs(value - float(weighted_integral(p, weight))) <= 1e-12 * scale
        count = max(j, k - basis.shift) + 1
        assert abs(value - reference_quadrature(p, weight, count)) <= 1e-12 * scale

    def test_odd_integrand_is_exactly_zero(self):
        # odd parity, large coefficients: F_8 alone, and odd products of each kind
        for factors in (((F, 8), (T, 0)), ((F, 8), (T, 4)), ((F, 21), (U, 11)), ((F, 30), (F, 31))):
            for weight in Weight:
                assert quadrature_check(factors, weight) == 0.0

    def test_deviation_small_on_products(self):
        for j, k in ((10, 5), (20, 13), (30, 30)):
            for factors, weight in ((((F, j + 1), (T, k)), Weight.FIRST_KIND),
                                    (((F, j + 1), (U, k)), Weight.SECOND_KIND)):
                exact = weighted_integral(product(factors), weight)
                assert quadrature_deviation(factors, weight, exact) <= 1e-9

    def test_deviation_past_the_float_range(self):
        # F_1501(1) is about 2^1040 and F_800(1)^2 about 2^1110: the values, the
        # mass and the integrals all pass the float range, and the common 2^-e
        # scaling of the factors keeps every float finite
        for factors in (((F, 1501), (T, 0)), ((F, 800), (F, 800))):
            p = product(factors)
            for weight in Weight:
                exact = weighted_integral(p, weight)
                assert abs(exact.coefficient) > 2**1024
                rel = quadrature_deviation(factors, weight, exact)
                assert math.isfinite(rel) and rel <= QUADRATURE_REL_TOL

    def test_scaling_keeps_the_unscaled_ratio(self, monkeypatch):
        # each factor 2^-10 * 2^500 at the one node (x = 0, w = pi): the scaled
        # mass pi 2^-20 is below 1, the unscaled one pi 2^980 above it
        def members(basis, xs):
            while True:
                yield [2.0**-10] * len(xs), 500

        monkeypatch.setattr(integrals, "_members_at_nodes", members)
        # a row keeps the values it was given: none from before the patch, none after it
        integrals._row.cache_clear()
        try:
            factors = ((F, 1), (T, 0))
            assert quadrature_check(factors, Weight.FIRST_KIND) == math.pi * 2.0**980
            # |pi 2^980 - pi 2^979| / max(1, pi 2^980)
            assert quadrature_deviation(factors, Weight.FIRST_KIND, PiMultiple(2**979)) == 0.5
        finally:
            integrals._row.cache_clear()

    @pytest.mark.parametrize("basis", list(Basis))
    def test_member_values_match_the_rounded_exact_values(self, basis):
        # every node of the least exact rules for degree 300, both kinds
        xs = sorted({x for weight in Weight for x, _ in quadrature_nodes(weight, 151)}, reverse=True)
        for index in (*range(0, 300, 13), 300):
            member = basis.member(index)
            exact = [member.eval_float_exact(x) for x in xs]
            values, e = next(islice(_members_at_nodes(basis, xs), index, None))
            assert e == 0  # F_301(1) is about 2^208, below the scaling threshold
            largest = max(map(abs, exact))
            assert all(abs(math.ldexp(v, e) - w) <= 1e-12 * largest for v, w in zip(values, exact))


QUADRATURE_NOTE = re.compile(r"quadrature rel err (\S+)")

# the (second basis, weight) of each integral kind
KIND_FACTORS = {"ft": (T, Weight.FIRST_KIND), "fu": (U, Weight.SECOND_KIND),
                "ff1": (F, Weight.FIRST_KIND), "ff2": (F, Weight.SECOND_KIND)}


class TestRowCache:
    def test_moments_equal_the_product_integral(self):
        # the row's moment vector against the general routine on the product polynomial
        for j in range(41):
            for basis in Basis:
                for k in range(j + 1):
                    factors = ((F, j + 1), (basis, k + basis.shift))
                    p = product(factors)
                    for weight in Weight:
                        assert weighted_integral_by_moments(factors, weight) == weighted_integral(p, weight), (
                            j, k, basis, weight)

    def test_deviations_within_1e_12(self):
        for j in range(61):
            for basis in Basis:
                for k in range(j + 1):
                    factors = ((F, j + 1), (basis, k + basis.shift))
                    for weight in Weight:
                        exact = weighted_integral_by_moments(factors, weight)
                        assert quadrature_deviation(factors, weight, exact) <= 1e-12, (j, k, basis, weight)

    def test_integrate_and_verify_report_the_same_deviation(self, capsys):
        # verify runs the tasks row by row on warm rows; integrate runs one pair on a cold row
        sweep = {}
        for task in runner.build_tasks(runner.RunConfig(suite="integrals", jmax=12)):
            report = runner.execute_task(task)
            sweep[(report.identity, *task[1:])] = QUADRATURE_NOTE.search(report.note).group(1)
        assert main(["verify", "--suite", "integrals", "--jmax", "12", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert records
        for record in records:
            params = dict(record["params"])
            key = (record["identity"], int(params["j"]), int(params["k"]))
            assert QUADRATURE_NOTE.search(record["note"]).group(1) == sweep[key]
        for kind, (identity, _) in integrals.KINDS.items():
            for j in range(13):
                for k in range(j + 1):
                    integrals._row.cache_clear()
                    main(["integrate", "--kind", kind, "--j", str(j), "--k", str(k)])
                    assert QUADRATURE_NOTE.search(capsys.readouterr().out).group(1) == sweep[(identity, j, k)]

    @pytest.mark.parametrize("kind", sorted(KIND_FACTORS))
    def test_fills_only_as_far_as_asked(self, kind, monkeypatch):
        basis, weight = KIND_FACTORS[kind]
        j = 30
        constructors = {F: "fibonacci_poly", T: "chebyshev_t", U: "chebyshev_u"}
        requested = []
        for name in constructors.values():
            original = getattr(sequences, name)
            monkeypatch.setattr(
                sequences, name, lambda n, name=name, original=original: requested.append((name, n)) or original(n)
            )
        integrals._row.cache_clear()
        longest = 0
        for k in (0, 5, 12, 12, 7):
            second = (basis, k + basis.shift)
            # the expansion route reads every member of its target basis up to
            # degree j; it is its own route, so it runs before the count
            weighted_integral_by_expansion(((F, j + 1), second), weight)
            requested.clear()
            integrals._oracle_checks(j, k, basis, weight)
            # the only members asked for: the row factor F_{j+1}, and the second factor
            assert set(requested) <= {("fibonacci_poly", j + 1), (constructors[basis], k + basis.shift)}, k
            row = integrals._row((F, j + 1), weight)
            nums, _ = basis.member(k + basis.shift).integer_form()
            # the moment vector reaches the longest second factor asked for, and no further;
            # F_31 P x^i is odd, and its moment 0, for odd i
            longest = max(longest, len(nums))
            assert len(row.moments) == longest, k
            assert not any(row.moments[1::2]), k
            index, _, _ = row._running[basis]
            assert index == k + basis.shift


class TestPairKernels:
    """Each route of a pair, on flat vectors, against its per-element reference."""

    def test_each_route_equals_its_reference(self):
        # every pair of the sweep up to jmax 40: both parities of j + k, and for even j
        # (an odd node count) the rule's node x = 0, which the mirrored half skips
        integrals._row.cache_clear()
        for weight in Weight:
            expansions = {}

            def expansion(factor):
                if factor not in expansions:
                    expansions[factor] = reference_expansion(factor, weight)
                return expansions[factor]

            for j in range(41):
                row = ReferenceRow((F, j + 1), weight)
                assert (row.nodes[-1][0] == 0.0) == (j % 2 == 0)  # j + 1 nodes
                for basis in Basis:
                    values = list(islice(reference_members_at_nodes(basis, row.xs), j + 1 + basis.shift))
                    for k in range(j + 1):
                        second = (basis, k + basis.shift)
                        factors = ((F, j + 1), second)
                        where = (j, k, basis, weight)
                        assert weighted_integral_by_moments(factors, weight) == row.integral(second), where
                        assert weighted_integral_by_expansion(factors, weight) == reference_by_expansion(
                            (expansion(factors[0]), expansion(second)), weight), where
                        terms, e = integrals._quadrature_terms(factors, weight)
                        expected, f = row.quadrature_terms(second, values[second[1]])
                        assert (bits(terms), e) == (bits(expected), f), where
                # the dense moment vector holds the reference's moments, and 0 where i + j is odd
                vector = integrals._row((F, j + 1), weight).moments
                assert len(vector) == j + 1
                assert vector == [row.moment(i) for i in range(j + 1)], (j, weight)

    def test_quadrature_terms_past_the_rescaling_equal_the_reference(self):
        # F_800(1) and F_801(1) are about 2^555: each factor's values are scaled by 2^-500 once
        integrals._row.cache_clear()
        for weight in Weight:
            row = ReferenceRow((F, 801), weight)
            for basis, index in ((F, 799), (F, 800), (T, 2), (U, 3)):
                values = next(islice(reference_members_at_nodes(basis, row.xs), index, None))
                expected, f = row.quadrature_terms((basis, index), values)
                assert f == (1000 if basis is F else 500)
                terms, e = integrals._quadrature_terms(((F, 801), (basis, index)), weight)
                assert (bits(terms), e) == (bits(expected), f), (basis, index, weight)


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
        for j in range(13):
            value, _ = integral_fib_fib(j, j, Weight.FIRST_KIND)
            assert integrals.printed_fib_fib_first(j, j, lambda m, j=j: c_norm(j - 2 * m)) == value, j

    @given(
        st.integers(min_value=0, max_value=24).flatmap(
            lambda j: st.tuples(st.just(j), st.integers(min_value=0, max_value=j))
        ),
        st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=13, max_size=13),
    )
    def test_first_kind_printed_form_is_the_published_sum(self, jk, d_values):
        # the published sum, transcribed verbatim, under an arbitrary reading of d_m
        j, k = jk
        expected = Fraction(2) ** (1 - k - j) * sum(
            Fraction(2) ** (4 * m)
            * d_values[m]
            * Fraction(binomial(j - m, j - 2 * m) * binomial(k - m, k - 2 * m))
            / (c_norm(k - 2 * m) * c_norm(j - 2 * m))
            * hyp2f1(-m, k - m + 1, k - 2 * m + 1, Fraction(-1, 4))
            * hyp2f1(-m, j - m + 1, j - 2 * m + 1, Fraction(-1, 4))
            for m in range(k // 2 + 1)
        )
        assert integrals.printed_fib_fib_first(j, k, d_values.__getitem__) == PiMultiple(expected)

    def test_rejects_k_above_j(self):
        with pytest.raises(ValueError):
            integral_fib_fib(1, 3, Weight.SECOND_KIND)
