"""Executable verifiers for the corollary identities.

Each verifier evaluates a printed closed-form identity exactly and compares
it against an independent oracle (the integer Fibonacci recurrence, formal
differentiation, or direct polynomial evaluation).  Three printed forms are
known errata; for those the verbatim form and the theorem-consistent
correction are both computed and the report records both residuals:

* the weighted Fibonacci-number sum that should equal T_j(1) = 1 is printed
  without the leading factor j of its parent expansion (verify_cor_sum_T);
* the hypergeometric-chain member with argument 4/5 is printed with prefactor
  1/2^j, which makes it equal F_{j+1} rather than the 2F1 value heading its
  chain; the matching prefactor is 1/(j+1) (verify_2f1_chain);
* the second-kind derivative formula for F^(q)_{j+1} omits a rising-factorial
  factor and fails for q >= 2 (verify_derivative_corollaries).

The first is anticipated by the report format; the other two were found by
the exact sweeps themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from .connection import Direction, row, terms
from .hypergeometric import fibonacci_as_2f1, hyp2f1
from .report import Check, Report, make_report
from .scalars import GaussianRational, I, binomial, dyadic_ratio, lattice_parts, lattice_sum, sqrt_pi_over_gamma
from .sequences import (
    Basis,
    c_norm,
    cheb_deriv_at_1,
    chebyshev_u,
    fibonacci_deriv_at_1,
    fibonacci_number,
    fibonacci_poly,
)


def _expansion_at(j: int, direction: Direction, value_at):
    """The degree-j connection formula with basis values supplied by ``value_at``.

    Sums c(j, m) * value_at(target index) over the terms of the expansion, so
    every corollary that evaluates an expansion at a special point (x = 1,
    a Laurent point, cos t, i/2, -2i) reuses the one transcription of its
    coefficients in ``connection``.  It is an integer dot product over the
    expansion's ``row``, c(j, m) = nums[m] / D: an ``int`` value enters as it
    is, any other as (p + r i) / q by ``lattice_parts``, over a running lcm Q
    of those q.  The sum is reduced once, over D Q, to a ``Fraction``, or to a
    ``GaussianRational`` if any value was Gaussian.
    """
    indices, nums, den = row(j, direction)
    acc_re, acc_im, q_all, gaussian = 0, 0, 1, False
    for n, c in zip(indices, nums):
        value = value_at(n)
        if type(value) is int:
            acc_re += c * q_all * value
            continue
        gaussian = gaussian or isinstance(value, GaussianRational)
        p, r, q = lattice_parts(value)
        if q_all % q:
            lcm = math.lcm(q_all, q)
            acc_re, acc_im, q_all = acc_re * (lcm // q_all), acc_im * (lcm // q_all), lcm
        c *= q_all // q
        acc_re += c * p
        acc_im += c * r
    total = Fraction(acc_re, den * q_all)
    return GaussianRational(total, Fraction(acc_im, den * q_all)) if gaussian else total


# ---------------------------------------------------------------------------
# Weighted Fibonacci-number sums (values of the expansions at x = 1)
# ---------------------------------------------------------------------------


def verify_cor_sum_T(j: int) -> Report:
    """Weighted Fibonacci-number sum that should collapse to T_j(1) = 1.

    The sum as printed equals 1/j rather than 1: its parent expansion carries
    a leading factor j that the corollary drops.  Both the verbatim sum and
    j times it are computed; Pass only if the printed form itself is exact.
    """
    if j < 1:
        raise ValueError(f"identity stated for j >= 1, got {j}")
    corrected = _expansion_at(j, Direction.T_IN_F, fibonacci_number)
    printed = corrected / j
    return make_report(
        "cor5.1-T",
        {"j": j},
        [Check("sum-with-parent-factor-j", corrected, Fraction(1))],
        printed_residual=printed - 1,
        corrected_residual=corrected - 1,
        note="" if printed == 1 else f"printed sum = {printed}; j * sum = {corrected}",
    )


def verify_cor_sum_U(j: int) -> Report:
    """Weighted Fibonacci-number sum equal to U_j(1) = j + 1 (exact as printed)."""
    if j < 1:
        raise ValueError(f"identity stated for j >= 1, got {j}")
    value = _expansion_at(j, Direction.U_IN_F, fibonacci_number)
    return make_report("cor5.1-U", {"j": j}, [Check("sum", value, Fraction(j + 1))])


# ---------------------------------------------------------------------------
# Fibonacci numbers as hypergeometric sums
# ---------------------------------------------------------------------------


def _fib_sum_first_kind(j: int) -> Fraction:
    """F_{j+1} as the F-in-T expansion at x = 1, where T_n(1) = 1."""
    return _expansion_at(j, Direction.F_IN_T, lambda n: 1)


def _fib_sum_second_kind(j: int) -> Fraction:
    """F_{j+1} as the F-in-U expansion at x = 1, where U_n(1) = n + 1."""
    return _expansion_at(j, Direction.F_IN_U, lambda n: n + 1)


def verify_fib_expressions(j: int) -> Report:
    """Both hypergeometric sums for F_{j+1} against the integer recurrence."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    expected = Fraction(fibonacci_number(j + 1))
    return make_report(
        "cor5.1-fib",
        {"j": j},
        [
            Check("first-kind-sum", _fib_sum_first_kind(j), expected),
            Check("second-kind-sum", _fib_sum_second_kind(j), expected),
        ],
    )


def verify_2f1_chain(j: int) -> Report:
    """The six chained expressions for F_{j+1} built from 2F1 values.

    Every member is normalized to the Fibonacci number it represents (the
    head series at argument -4 is F_{j+1} itself; the one at argument 5
    carries the factor (j+1)/2^j; the transformed sums carry the prefactors
    dictated by the linear transformation).  All six must agree exactly.

    The printed chain additionally asserts that the argument-4/5 sum with
    prefactor 1/2^j equals the argument-5 series value; that prefactor makes
    it equal F_{j+1} instead, so for j >= 2 the verbatim equation fails and
    the correction (prefactor 1/(j+1)) is recorded as a PaperErratum.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    expected = Fraction(fibonacci_number(j + 1))
    # the two m-sums, each term an integer pair, over a running lcm; each member reduced once
    one_fifth, four_fifths = [], []
    for m in range(j // 2 + 1):
        # 5^m / c_(j-2m) C(j-m, j-2m) 2F1(-m, -m; j-2m+1; 1/5)
        h = hyp2f1(-m, -m, j - 2 * m + 1, Fraction(1, 5))
        one_fifth.append((5**m * binomial(j - m, j - 2 * m) * h.numerator, c_norm(j - 2 * m) * h.denominator))
        # 5^m C(j, m) (j-2m+1)^2 / (j-m+1) 2F1(-m, 1-m; -j; 4/5)
        h = hyp2f1(-m, 1 - m, -j, Fraction(4, 5))
        num = 5**m * binomial(j, m) * (j - 2 * m + 1) ** 2 * h.numerator
        four_fifths.append((num, (j - m + 1) * h.denominator))
    p, q = lattice_sum(four_fifths)
    printed_tail = dyadic_ratio(p, q, -j)  # printed prefactor 1/2^j: equals F_{j+1}, not the 2F1(5) value
    corrected_tail = Fraction(p, q * (j + 1))
    minus4, arg5 = fibonacci_as_2f1(j + 1)
    checks = [
        Check("2F1(-4)", minus4, expected),
        Check("2F1(5)-scaled", arg5, expected),
        Check("sum(-1/4)", _fib_sum_first_kind(j), expected),
        Check("sum(-4)", _fib_sum_second_kind(j), expected),
        Check("sum(1/5)", dyadic_ratio(*lattice_sum(one_fifth), 1 - j), expected),
        Check("sum(4/5)", printed_tail, expected),
    ]
    head_arg5 = hyp2f1(Fraction(-j, 2), Fraction(1 - j, 2), Fraction(3, 2), 5)
    note = ""
    if printed_tail != head_arg5:
        note = (
            f"printed 4/5 member (prefactor 1/2^j) = {printed_tail} = F_{j + 1}; "
            f"prefactor 1/(j+1) gives {corrected_tail} = stated 2F1 value"
        )
    return make_report(
        "cor5.1-chain",
        {"j": j},
        checks,
        printed_residual=printed_tail - head_arg5,
        corrected_residual=corrected_tail - head_arg5,
        note=note,
    )


# ---------------------------------------------------------------------------
# Gaussian-rational identities
# ---------------------------------------------------------------------------


HALF_I = GaussianRational(0, Fraction(1, 2))
MINUS_TWO_I = GaussianRational(0, -2)


@lru_cache(maxsize=None)
def _fibonacci_at(k: int, point: GaussianRational) -> GaussianRational:
    """F_k at a Gaussian point, computed once per (k, point) for the sums of every n."""
    return fibonacci_poly(k)(point)


_I_POWERS = (GaussianRational(1), I, GaussianRational(-1), -I)  # i^n by n mod 4; (-i)^n = i^(-n)


def verify_complex_identities(n: int) -> Report:
    """Exact Gaussian checks of the four complex-argument identities.

    The two endpoint identities relate F_{n+1} to U_n at i/2 and F_{3n+3} to
    U_n at -2i.  The two sum identities are the second-kind expansion
    evaluated at those points.  Sum limits written as j/2 are taken as
    floor(j/2), consistent with every other sum in the family.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    u_at_half_i = chebyshev_u(n)(HALF_I)
    u_at_minus_two_i = chebyshev_u(n)(MINUS_TWO_I)
    fib_next = Fraction(fibonacci_number(n + 1))
    fib_triple = Fraction(fibonacci_number(3 * (n + 1)))

    sum_half_i = _expansion_at(n, Direction.U_IN_F, partial(_fibonacci_at, point=HALF_I))
    sum_minus_two_i = 2 * _expansion_at(n, Direction.U_IN_F, partial(_fibonacci_at, point=MINUS_TWO_I))

    checks = [
        Check("eq-complex-1", u_at_half_i / _I_POWERS[n % 4], GaussianRational(fib_next)),
        Check("eq-complex-2", u_at_minus_two_i, _I_POWERS[-n % 4] * Fraction(1, 2) * fib_triple),
        Check("cor-complex-1", sum_half_i, _I_POWERS[n % 4] * fib_next),
        Check("cor-complex-2", sum_minus_two_i, _I_POWERS[-n % 4] * fib_triple),
    ]
    return make_report("complex", {"n": n}, checks)


# ---------------------------------------------------------------------------
# Laurent-point and trigonometric forms of the first-kind expansion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _laurent_at(n: int, x0: Fraction) -> Fraction:
    """(x0^n + x0^-n) / 2, T_n at (x0 + 1/x0)/2, computed once per (n, x0) for the sums of every j."""
    return (x0**n + x0**-n) / 2


def verify_laurent_identity(j: int, x0: Fraction) -> Report:
    """F_{j+1} at (x + 1/x)/2 against the sum over x^(j-2m) + x^(2m-j).

    Exact for any nonzero rational evaluation point.
    """
    x0 = Fraction(x0)
    if x0 == 0:
        raise ValueError("evaluation point must be nonzero")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    lhs = fibonacci_poly(j + 1)((x0 + 1 / x0) / 2)
    rhs = _expansion_at(j, Direction.F_IN_T, partial(_laurent_at, x0=x0))
    return make_report("laurent", {"j": j, "x0": x0}, [Check("point-value", lhs, rhs)])


def verify_trig_identity(j: int, theta: float) -> float:
    """|F_{j+1}(cos t) - sum_m A_m cos((j-2m) t)| in floating point.

    The only floating-point check among the identity verifiers.  The exact
    Laurent check does not cover it: its points are real, and the only one on
    the unit circle is x0 = 1.  The polynomial side is evaluated exactly at the
    rounded cos t and rounded once (``eval_float_exact``), so the residual
    reflects only the trigonometric rounding of the right-hand side.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    lhs = fibonacci_poly(j + 1).eval_float_exact(math.cos(theta))
    rhs = math.fsum(float(c) * math.cos(n * theta) for _, n, c in terms(j, Direction.F_IN_T))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Derivative-sequence identities
# ---------------------------------------------------------------------------


def _rising(a: int, k: int) -> int:
    """The rising factorial (a)_k of an integer a, as an integer."""
    return math.prod(range(a, a + k))


@lru_cache(maxsize=None)
def _t_deriv_at_1(q: int, n: int) -> Fraction:
    """T_n^(q)(1) as printed: (-1)^(q+1) sqrt(pi)/Gamma(q+1/2) 2^-q n^2 (n+1)_(q-1) (1-n)_(q-1).

    The Gamma ratio enters as its two integers and 2^-q as a shift; the value is reduced once.
    """
    s = sqrt_pi_over_gamma(q, Fraction(1, 2))
    num = (-1) ** (q + 1) * s.numerator * n**2 * _rising(n + 1, q - 1) * _rising(1 - n, q - 1)
    return dyadic_ratio(num, s.denominator, -q)


@lru_cache(maxsize=None)
def _u_deriv_at_1(q: int, n: int, *, include_missing_factor: bool) -> Fraction:
    """U_n^(q)(1) as printed: (-1)^(q+1) sqrt(pi)/Gamma(q+3/2) 2^(-q-1) n(n+1)(n+2) (n+3)_(q-1).

    The second-kind derivative formula for F^(q)_{j+1} lacks the rising
    factorial (1-n)_(q-1) that formal differentiation of the parent expansion
    produces; with the factor restored the value is U_n^(q)(1) for every q.
    Reduced once, as ``_t_deriv_at_1`` is.
    """
    s = sqrt_pi_over_gamma(q, Fraction(3, 2))
    missing = _rising(1 - n, q - 1) if include_missing_factor else 1
    num = (-1) ** (q + 1) * s.numerator * _rising(n, 3) * _rising(n + 3, q - 1) * missing
    return dyadic_ratio(num, s.denominator, -q - 1)


def _over(value: Fraction, divisor: int) -> Fraction:
    """value / divisor (divisor > 0) as one Fraction over the value's own two integers, reduced once."""
    return Fraction(value.numerator, value.denominator * divisor)


def verify_derivative_corollaries(j: int, q: int) -> Report:
    """The four derivative-sequence formulas at one (j, q).

    Two weighted sums of F^(q) values (left sides via formal differentiation)
    against their closed forms, and two closed-form sums for F^(q)_{j+1}
    against the differentiation oracle.  The second-kind F^(q)_{j+1} formula
    is verbatim-correct only for q = 1; for q >= 2 the corrected form (with
    the missing rising factorial restored) is required to match exactly and
    the verbatim failure is recorded as a PaperErratum.

    The first-kind weighted sum divides by j - m, so it is undefined at j = 0
    and skipped there (everything else degenerates to 0 = 0).
    """
    if q < 1:
        raise ValueError(f"derivative identities stated for q >= 1, got {q}")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")

    checks = []
    note = ""

    # The right sides of the two weighted sums are the closed forms of
    # T_j^(q)(1) / j and U_j^(q)(1) / 2^j, the latter with (1-j)_(q-1).
    if j >= 1:
        sum_T = _expansion_at(j, Direction.T_IN_F, partial(fibonacci_deriv_at_1, q))
        checks.append(Check("sum-T", _over(sum_T, j), _over(_t_deriv_at_1(q, j), j)))
        checks.append(Check("sum-T-vs-DqT", sum_T, cheb_deriv_at_1(Basis.CHEBYSHEV_T, q, j)))
    else:
        note = "sum-T skipped at j = 0 (closed form divides by j - m)"

    sum_U = _expansion_at(j, Direction.U_IN_F, partial(fibonacci_deriv_at_1, q))
    rhs_U = _over(_u_deriv_at_1(q, j, include_missing_factor=True), 1 << j)
    checks.append(Check("sum-U", _over(sum_U, 1 << j), rhs_U))
    checks.append(Check("sum-U-vs-DqU", sum_U, cheb_deriv_at_1(Basis.CHEBYSHEV_U, q, j)))

    oracle = fibonacci_deriv_at_1(q, j + 1)
    checks.append(Check("deriv-T", _expansion_at(j, Direction.F_IN_T, partial(_t_deriv_at_1, q)), oracle))

    printed_U, corrected_U = (
        _expansion_at(j, Direction.F_IN_U, partial(_u_deriv_at_1, q, include_missing_factor=fix))
        for fix in (False, True)
    )
    checks.append(Check("deriv-U-corrected", corrected_U, oracle))
    if printed_U != oracle:
        extra = (
            f"printed deriv-U = {printed_U} vs oracle {oracle}; "
            "restoring the factor (-j+2m+1)_(q-1) fixes it"
        )
        note = f"{note}; {extra}" if note else extra

    return make_report(
        "cor5.2",
        {"j": j, "q": q},
        checks,
        printed_residual=printed_U - oracle,
        corrected_residual=corrected_U - oracle,
        note=note,
    )


# ---------------------------------------------------------------------------
# Fibonacci-number hypergeometric representations (sweep-facing wrapper)
# ---------------------------------------------------------------------------


def verify_fib_2f1_representations(n: int) -> Report:
    """Both single-series representations of F_n against the recurrence."""
    minus4, arg5 = fibonacci_as_2f1(n)
    expected = Fraction(fibonacci_number(n))
    return make_report(
        "fib-2f1", {"n": n}, [Check("arg(-4)", minus4, expected), Check("arg(5)", arg5, expected)]
    )
