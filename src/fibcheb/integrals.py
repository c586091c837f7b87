"""Weighted integrals over (-1, 1) against the two Chebyshev weights.

Every closed-form integral here is a rational multiple of pi, kept symbolic
as a PiMultiple so comparisons stay exact.  Two fully independent exact routes
give the value (closed monomial moments, and each factor's expansion in the
matching Chebyshev basis followed by orthogonality), and a Gauss-Chebyshev
quadrature on the factors' own float recurrences is a third, non-exact check.
The published closed forms are evaluated alongside and compared against the
oracle value, which is always the one returned.

The pairs of a sweep come row by row: F_{j+1} times each P_k, k <= j.  What
depends on the row alone is kept in a small cache keyed by the row factor
and the weight (``_Row``): F_{j+1}'s integer moment vector, one dot product
per pair, and one Gauss-Chebyshev rule of j + 1 nodes, exact for every
product of the row, with F_{j+1} valued at its nodes once and the second
factor advanced one recurrence step per k.  Each is filled only as far as
the pairs asked for need.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional

from .connection import Direction, oracle_expand, terms
from .hypergeometric import hyp2f1
from .polynomials import Polynomial
from .report import Check, Report, Status, make_report
from .scalars import RationalLike, binomial
from .sequences import Basis, c_norm


class Weight(Enum):
    """The two Chebyshev weights on (-1, 1)."""

    FIRST_KIND = "1/sqrt(1-x^2)"
    SECOND_KIND = "sqrt(1-x^2)"


class PiMultiple:
    """An immutable exact rational multiple of pi."""

    __slots__ = ("coefficient",)

    def __init__(self, coefficient: RationalLike):
        if not isinstance(coefficient, Fraction):
            coefficient = Fraction(coefficient)
        object.__setattr__(self, "coefficient", coefficient)

    def __setattr__(self, name, value=None):
        raise AttributeError("PiMultiple is immutable")

    __delattr__ = __setattr__

    def __add__(self, other: "PiMultiple") -> "PiMultiple":
        if not isinstance(other, PiMultiple):
            return NotImplemented
        return PiMultiple(self.coefficient + other.coefficient)

    def __sub__(self, other: "PiMultiple") -> "PiMultiple":
        if not isinstance(other, PiMultiple):
            return NotImplemented
        return PiMultiple(self.coefficient - other.coefficient)

    def __mul__(self, scalar) -> "PiMultiple":
        if isinstance(scalar, (int, Fraction)):
            return PiMultiple(self.coefficient * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, PiMultiple):
            return self.coefficient == other.coefficient
        if other == 0:
            return self.coefficient == 0
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficient)

    def __float__(self) -> float:
        return float(self.coefficient) * math.pi

    def to_text(self) -> str:
        return f"{self.coefficient} * pi"

    def __repr__(self):
        return f"PiMultiple({self.coefficient!r})"

    def __reduce__(self):
        return (PiMultiple, (self.coefficient,))


ZERO_PI = PiMultiple(0)


def even_moment(n: int, weight: Weight) -> Fraction:
    """Coefficient of pi in the moment integral of x^(2n) against the weight.

    First kind:  C(2n, n) / 4^n        Second kind:  Catalan(n) / 2^(2n+1)

    that is (2n-1)!!/(2n)!! and (2n-1)!!/(2n+2)!!, both with a power-of-two
    denominator.  Odd moments vanish by symmetry.
    """
    if n < 0:
        raise ValueError(f"moment order must be >= 0, got {n}")
    if weight is Weight.FIRST_KIND:
        return Fraction(binomial(2 * n, n), 4**n)
    return Fraction(binomial(2 * n, n) // (n + 1), 2 * 4**n)


def weighted_integral(p: Polynomial, weight: Weight) -> PiMultiple:
    """Exact weighted integral of ``p`` via closed monomial moments.

    Consecutive moments of ``even_moment`` differ by the ratio (2n-1)/(2n)
    (first kind) or (2n-1)/(2n+2) (second kind), from 1 or 1/2 at n = 0, so
    the sum over the even coefficients is one backward Horner pass over the
    integer numerators, reduced once at the end.
    """
    nums, den = p.integer_form()
    if not nums:
        return ZERO_PI
    first = weight is Weight.FIRST_KIND
    top = (len(nums) - 1) // 2
    # acc / scale = sum over i >= n of nums[2i] mu_i / mu_n, from n = top down to 0
    acc, scale = nums[2 * top], 1
    for n in range(top, 0, -1):
        step = 2 * n if first else 2 * n + 2
        acc = nums[2 * n - 2] * scale * step + (2 * n - 1) * acc
        scale *= step
    return PiMultiple(Fraction(acc, scale * den * (1 if first else 2)))


def quadrature_nodes(weight: Weight, count: int) -> list[tuple[float, float]]:
    """The nonnegative half of the Gauss-Chebyshev rule: (x, w) pairs, x descending.

    Each x > 0 stands for the pair +-x, both of weight w; for odd ``count``
    the last entry is the midpoint, exactly 0.0.  So the rule is exactly
    symmetric: a product of parity s is (-1)^s v at -x where it is v at x,
    and odd integrands give exactly 0.
    """
    if count < 1:
        raise ValueError(f"node count must be >= 1, got {count}")
    nodes = []
    for i in range(1, (count + 1) // 2 + 1):
        if weight is Weight.FIRST_KIND:
            t, w = (2 * i - 1) * math.pi / (2 * count), math.pi / count
        else:
            t = i * math.pi / (count + 1)
            s = math.sin(t)
            w = math.pi / (count + 1) * s * s
        nodes.append((0.0 if 2 * i - 1 == count else math.cos(t), w))
    return nodes


Factor = tuple[Basis, int]


def _degree(factor: Factor) -> int:
    basis, index = factor
    return index - basis.shift


@lru_cache(maxsize=None)
def _expansion_over(factor: Factor, weight: Weight) -> tuple[dict[int, int], int]:
    """(nums, den): ``factor`` over T (first kind) or U (second kind), by elimination.

    The nonzero coefficients are nums[n] / den, with den their least common
    denominator: a power of two for every family member, since x^n is
    2^(1-n) (first kind) or 2^-n (second kind) times an integer combination.
    """
    basis, index = factor
    target = Basis.CHEBYSHEV_T if weight is Weight.FIRST_KIND else Basis.CHEBYSHEV_U
    pairs = oracle_expand(basis.member(index), target)
    den = math.lcm(*(c.denominator for _, c in pairs))
    nums = {}
    while pairs:  # each Fraction is dropped as its numerator is made, which keeps the peak down
        n, c = pairs.pop()
        if c:
            nums[n] = c.numerator * (den // c.denominator)
    return nums, den


def weighted_integral_by_expansion(factors: tuple[Factor, Factor], weight: Weight) -> PiMultiple:
    """Exact weighted integral of the product of two (basis, index) factors, by orthogonality.

    With a_n, b_n the factors' coefficients over the basis matched to the
    weight, the integral is (pi/2) sum a_n b_n, plus (pi/2) a_0 b_0 for the
    first kind, whose T_0 has norm pi.  The sum runs on the integer
    numerators and is reduced once.  Independent of the moment route: no
    product polynomial and no moment is built.
    """
    (a, a_den), (b, b_den) = (_expansion_over(factor, weight) for factor in factors)
    total = sum(c * b[n] for n, c in a.items() if n in b)
    if weight is Weight.FIRST_KIND:
        total += a.get(0, 0) * b.get(0, 0)
    return PiMultiple(Fraction(total, 2 * a_den * b_den))


def _members_at_nodes(basis: Basis, xs: list[float]) -> Iterator[tuple[list[float], int]]:
    """(values, e) for index 0, 1, 2, ...: each member of ``basis`` at floats xs is values * 2^e.

    One recurrence step per index; the xs are descending and >= 0.  F_n, of
    nonnegative coefficients, is largest at xs[0]; whenever that passes 2^500
    all values are scaled by 2^-500, so a product of two stays in the float
    range.  |T_n|, |U_n| <= n + 1; P_{n+1} = 2x P_n - P_{n-1} runs on
    differences (Reinsch), P_{n+1} - P_n = P_n - P_{n-1} + 2(x - 1) P_n, whose
    rounding error near x = 1 grows about like n, not n^2 / sin t.
    """
    if basis is Basis.FIBONACCI:
        prev, cur, e = [1.0] * len(xs), [0.0] * len(xs), 0  # F_{-1}, F_0
        while True:
            yield cur, e
            prev, cur = cur, [x * a + b for x, a, b in zip(xs, cur, prev)]
            if cur[0] > 2.0**500:
                prev, cur, e = [v * 2.0**-500 for v in prev], [v * 2.0**-500 for v in cur], e + 500
    cur, steps = [1.0] * len(xs), [2 * (x - 1) for x in xs]
    diff = [1 - x for x in xs] if basis is Basis.CHEBYSHEV_T else cur  # P_0 - P_{-1}
    while True:
        yield cur, 0
        diff = [d + c * a for d, c, a in zip(diff, steps, cur)]
        cur = [a + d for a, d in zip(cur, diff)]


class _Row:
    """What the pairs of one row factor P (F_{j+1} in a sweep) and one weight share.

    With d the degree of P: the moments v[i] = 2^(2d+1) den(P) int P x^i w / pi,
    integers because each even moment's denominator divides 2^(2d+1), each
    computed when a pair first needs it; and the Gauss-Chebyshev rule of d + 1
    nodes, exact for degree <= 2d + 1 and so for P times any factor of degree
    <= d, with P valued at its nodes once and each second basis by a running
    recurrence, advanced one step per index and only as far as asked.
    """

    def __init__(self, factor: Factor, weight: Weight):
        self.factor, self.weight = factor, weight
        self.degree = _degree(factor)
        self.nums, self.den = factor[0].member(factor[1]).integer_form()
        self.moments: dict[int, int] = {}  # i -> v[i]
        self._numerators: list[int] = []  # n -> 2^(2n+1) even_moment(n)
        self.nodes = quadrature_nodes(weight, max(self.degree, 0) + 1)
        self.xs = [x for x, _ in self.nodes]
        self._values: Optional[tuple[list[float], int]] = None
        self._running: dict[Basis, list] = {}  # basis -> [index, iterator, (values, e)]

    def moment(self, i: int) -> int:
        """v[i]: the sum over l of nums[l] 2^(2d+1) even_moment(n), n = (l + i) / 2, l + i even.

        2^(2d+1) even_moment(n) is a[n] 4^(d-n) with a[n] = 2^(2n+1) even_moment(n)
        the integer kept (about 2n bits, where the scaled moment has 2d), so
        the sum is one Horner pass in powers of 4 over the terms nums[l] a[n].
        """
        v = self.moments.get(i)
        if v is None:
            low = i % 2
            first = (low + i) // 2
            last = (len(self.nums) - 1 + i) // 2
            for n in range(len(self._numerators), last + 1):
                m = even_moment(n, self.weight)
                self._numerators.append(m.numerator << (2 * n + 2 - m.denominator.bit_length()))
            acc = 0
            for c, a in zip(self.nums[low::2], self._numerators[first:last + 1]):
                acc = (acc << 2) + c * a
            v = self.moments[i] = acc << 2 * (self.degree - last)
        return v

    def integral(self, factor: Factor) -> PiMultiple:
        """The weighted integral of P times ``factor``: one integer dot product with v, reduced once."""
        nums, den = factor[0].member(factor[1]).integer_form()
        if not (nums and self.nums):
            return ZERO_PI
        total = sum(c * self.moment(i) for i, c in enumerate(nums) if c)
        return PiMultiple(Fraction(total, (den * self.den) << (2 * self.degree + 1)))

    def _at_nodes(self, factor: Factor) -> tuple[list[float], int]:
        basis, index = factor
        state = self._running.get(basis)
        if state is None or state[0] > index:
            state = self._running[basis] = [-1, _members_at_nodes(basis, self.xs), None]
        while state[0] < index:
            state[0], state[2] = state[0] + 1, next(state[1])
        return state[2]

    def quadrature_terms(self, factor: Factor) -> tuple[list[float], int]:
        """(terms, e): the terms w p(x) of the row's rule for p = P times ``factor``, over 2^e."""
        if self._values is None:
            self._values = self._at_nodes(self.factor)
        (first, e), (second, f) = self._values, self._at_nodes(factor)
        half = [w * (u * v) for (_, w), u, v in zip(self.nodes, first, second)]
        sign = -1.0 if (self.degree + _degree(factor)) % 2 else 1.0  # p(-x) = sign p(x)
        return half + [sign * t for (x, _), t in zip(self.nodes, half) if x], e + f  # x = 0 counts once


@lru_cache(maxsize=8)
def _row(factor: Factor, weight: Weight) -> _Row:
    """The row of ``factor`` under ``weight``; a sweep's tasks come row by row, so a few rows suffice."""
    return _Row(factor, weight)


def _split(factors: tuple[Factor, Factor], weight: Weight) -> tuple[_Row, Factor]:
    """The row of the factor of larger degree (the first on a tie), and the other factor."""
    first, second = factors
    if _degree(second) > _degree(first):
        first, second = second, first
    return _row(first, weight), second


def weighted_integral_by_moments(factors: tuple[Factor, Factor], weight: Weight) -> PiMultiple:
    """Exact weighted integral of the product of two (basis, index) factors, by moments.

    The row of the factor of larger degree holds its integer moment vector,
    and the integral is its dot product with the other factor's numerators.
    Independent of the expansion route, and no product polynomial is built.
    """
    row, other = _split(factors, weight)
    return row.integral(other)


def _quadrature_terms(factors: tuple[Factor, Factor], weight: Weight) -> tuple[list[float], int]:
    """(terms, e): the terms w p(x) of the row's rule for p, the product of ``factors``, over 2^e."""
    row, other = _split(factors, weight)
    return row.quadrature_terms(other)


def quadrature_check(factors: tuple[Factor, Factor], weight: Weight) -> float:
    """Gauss-Chebyshev quadrature of the matching kind of the product of two (basis, index) factors.

    The rule is the row's: one more node than the larger degree of the two.
    """
    terms, e = _quadrature_terms(factors, weight)
    return math.ldexp(math.fsum(terms), e)


QUADRATURE_REL_TOL = 1e-9


def quadrature_deviation(factors: tuple[Factor, Factor], weight: Weight, exact: PiMultiple) -> float:
    """Relative deviation between the quadrature of the product of ``factors`` and ``exact``.

    Normalized by the mass the rule actually sums, max(1, sum |w p(x)|): the
    backward-stable notion of quadrature accuracy.  A tiny integral of a
    large oscillating integrand (F x T near the diagonal shrinks like 2^-j
    while the integrand peaks near 10^6) cannot be resolved to a small
    absolute error in double precision, because the cos-node placement is
    itself only half-ulp accurate; relative to the summed mass the rule is
    accurate to near machine precision, and that is what this measures.
    The terms, the mass and the integral all carry the factors' scale 2^-e,
    and max(2^-e, scaled mass) = max(1, mass) / 2^e keeps the ratio unscaled.
    """
    terms, e = _quadrature_terms(factors, weight)
    num, den = exact.coefficient.as_integer_ratio()
    error = abs(math.fsum(terms) - num / (den << e) * math.pi)
    return error / max(math.ldexp(1.0, -e), math.fsum(map(abs, terms)))


# ---------------------------------------------------------------------------
# Published closed forms
# ---------------------------------------------------------------------------


def printed_fib_cheb_t(j: int, k: int) -> PiMultiple:
    """Published value of the first-kind integral of F_{j+1} T_k (verbatim), reduced once."""
    if (j + k) % 2 == 1:
        return ZERO_PI
    h = hyp2f1(Fraction(k - j, 2), Fraction(j + k + 2, 2), k + 1, Fraction(-1, 4))
    return PiMultiple(Fraction(binomial((j + k) // 2, k) * h.numerator, (c_norm(k) * h.denominator) << k))


def printed_fib_cheb_u(j: int, k: int) -> PiMultiple:
    """Published value of the second-kind integral of F_{j+1} U_k (verbatim), reduced once."""
    if (j + k) % 2 == 1:
        return ZERO_PI
    h = hyp2f1(Fraction(k - j, 2), Fraction(-(j + k + 2), 2), -j, -4)
    num = binomial(j, (j - k) // 2) * (k + 1) * h.numerator
    return PiMultiple(Fraction(num, ((j + k + 2) * h.denominator) << j))


def printed_fib_fib_second(j: int, k: int) -> PiMultiple:
    """Published value of the second-kind integral of F_{j+1} F_{k+1} (verbatim).

    The published sum is half of sum_m c(j, m) c(k, m) over the F-in-U
    coefficients of both factors, paired by the summation index m (which
    pairs equal target degrees only at j = k), for m = 0 .. floor(k/2), k <= j.
    """
    pairs = zip(terms(k, Direction.F_IN_U), terms(j, Direction.F_IN_U))
    return PiMultiple(sum(ck * cj for (_, _, ck), (_, _, cj) in pairs) / 2)


def printed_fib_fib_first(j: int, k: int, d_m: Callable[[int], Fraction]) -> PiMultiple:
    """Published first-kind F x F closed form under a supplied reading of d_m.

    The factor named d_m in the published sum is never defined, so the form
    is only evaluable once the caller commits to an interpretation of it.
    The published sum is half of sum_m d_m c(j, m) c(k, m) over the F-in-T
    coefficients of both factors, paired by m, for m = 0 .. floor(k/2), k <= j.
    """
    pairs = zip(terms(k, Direction.F_IN_T), terms(j, Direction.F_IN_T))
    return PiMultiple(sum(d_m(m) * ck * cj for (m, _, ck), (_, _, cj) in pairs) / 2)


# ---------------------------------------------------------------------------
# Integral operations: oracle value is normative, printed form is audited
# ---------------------------------------------------------------------------


def _oracle_checks(j: int, k: int, basis: Basis, weight: Weight) -> tuple[PiMultiple, list[Check], str]:
    """The integral of F_{j+1} times T_k, U_k or F_{k+1}, by ``basis``: value, exact checks, quadrature note."""
    if j < k or k < 0:
        raise ValueError(f"requires j >= k >= 0, got j={j}, k={k}")
    factors = ((Basis.FIBONACCI, j + 1), (basis, k + basis.shift))
    # the expansion route first: its elimination is the peak of a large pair's
    # memory, and the row's moments are not yet held then
    by_expansion = weighted_integral_by_expansion(factors, weight)
    by_moments = weighted_integral_by_moments(factors, weight)
    checks = [Check("moments-vs-expansion", by_moments, by_expansion)]
    rel = quadrature_deviation(factors, weight, by_moments)
    note = f"quadrature rel err {rel!r}"
    if not rel <= QUADRATURE_REL_TOL:
        checks.append(Check("quadrature-within-tolerance", rel, 0.0))
    return by_moments, checks, note


def integral_fib_cheb_t(j: int, k: int) -> tuple[PiMultiple, Report]:
    """First-kind weighted integral of F_{j+1} T_k; oracle value plus audit.

    The published form misses the factor-2 normalizer exactly at k = 0 (it
    divides by c_k once too often); that case is reported as a PaperErratum
    with both residuals, everything else must match verbatim.
    """
    value, checks, note = _oracle_checks(j, k, Basis.CHEBYSHEV_T, Weight.FIRST_KIND)
    printed = printed_fib_cheb_t(j, k)
    corrected = printed * c_norm(k)
    if printed != value:
        note = f"printed {printed.to_text()} vs oracle {value.to_text()}; {note}"
    report = make_report(
        "int-FT",
        {"j": j, "k": k},
        checks,
        printed_residual=(printed - value).coefficient,
        corrected_residual=(corrected - value).coefficient,
        note=note,
    )
    return value, report


def integral_fib_cheb_u(j: int, k: int) -> tuple[PiMultiple, Report]:
    """Second-kind weighted integral of F_{j+1} U_k; printed form is exact."""
    value, checks, note = _oracle_checks(j, k, Basis.CHEBYSHEV_U, Weight.SECOND_KIND)
    printed = printed_fib_cheb_u(j, k)
    checks.append(Check("printed-vs-oracle", printed, value))
    report = make_report("int-FU", {"j": j, "k": k}, checks, note=note)
    return value, report


def integral_fib_fib(j: int, k: int, weight: Weight) -> tuple[PiMultiple, Report]:
    """Weighted integral of F_{j+1} F_{k+1}; oracle value plus audit.

    Second kind: the published double-series pairs equal target degrees only
    on the diagonal, so it is compared at j = k and reported Unevaluable as a
    comparison elsewhere.  First kind: the published sum contains the
    undefined symbol d_m, so the comparison is always Unevaluable
    (``printed_fib_fib_first`` evaluates it under a chosen reading of d_m).
    The oracle value is returned in every case.
    """
    value, checks, note = _oracle_checks(j, k, Basis.FIBONACCI, weight)
    second = weight is Weight.SECOND_KIND
    status = None
    if second and j == k:
        checks.append(Check("printed-vs-oracle", printed_fib_fib_second(j, k), value))
    else:
        status = Status.UNEVALUABLE if all(c.ok for c in checks) else None
        reason = "compared only at j = k" if second else "contains the undefined symbol d_m"
        note = f"printed form {reason}; {note}"
    identity = "int-FF2" if second else "int-FF1"
    report = make_report(identity, {"j": j, "k": k}, checks, note=note, status=status)
    return value, report


# The four integrals: kind (the ``integrate --kind`` choice) -> (the identity
# its report carries, evaluator returning the oracle value and the report).
# Each evaluator looks its function up when called, so a replaced module
# attribute (a tracing wrapper, say) is honored.
KINDS = {
    "ft": ("int-FT", lambda j, k: integral_fib_cheb_t(j, k)),
    "fu": ("int-FU", lambda j, k: integral_fib_cheb_u(j, k)),
    "ff1": ("int-FF1", lambda j, k: integral_fib_fib(j, k, Weight.FIRST_KIND)),
    "ff2": ("int-FF2", lambda j, k: integral_fib_fib(j, k, Weight.SECOND_KIND)),
}


def audited_printed_value(value: PiMultiple, report: Report) -> Optional[PiMultiple]:
    """The printed value that ``report``, of an integral of oracle ``value``, audited, or None.

    A report audits the printed form either as its printed-vs-oracle check or
    as a printed residual; None means it compared no printed value.
    """
    printed = next((c.lhs for c in report.checks if c.name == "printed-vs-oracle"), None)
    if printed is None and report.printed_residual is not None:
        printed = value + PiMultiple(report.printed_residual)
    return printed
