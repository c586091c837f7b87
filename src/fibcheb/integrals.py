"""Weighted integrals over (-1, 1) against the two Chebyshev weights.

Every closed-form integral here is a rational multiple of pi, kept symbolic
as a PiMultiple so comparisons stay exact.  Values are produced by two fully
independent exact routes (closed monomial moments, and expansion in the
matching Chebyshev basis followed by orthogonality) plus a floating-point
Gauss-Chebyshev quadrature as a third, non-exact cross-check.  The published
closed forms are evaluated alongside and compared against the oracle value,
which is always the one returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .connection import Direction, oracle_expand, terms
from .hypergeometric import hyp2f1
from .polynomials import Polynomial
from .report import Check, Report, Status, make_report
from .scalars import RationalLike, binomial, double_factorial, format_rational
from .sequences import Basis, c_norm, chebyshev_t, chebyshev_u, fibonacci_poly


class Weight(Enum):
    """The two Chebyshev weights on (-1, 1)."""

    FIRST_KIND = "1/sqrt(1-x^2)"
    SECOND_KIND = "sqrt(1-x^2)"


@dataclass(frozen=True)
class PiMultiple:
    """An exact rational multiple of pi."""

    coefficient: Fraction

    def __init__(self, coefficient: RationalLike):
        object.__setattr__(self, "coefficient", Fraction(coefficient))

    def __add__(self, other: "PiMultiple") -> "PiMultiple":
        if not isinstance(other, PiMultiple):
            return NotImplemented
        return PiMultiple(self.coefficient + other.coefficient)

    def __sub__(self, other: "PiMultiple") -> "PiMultiple":
        if not isinstance(other, PiMultiple):
            return NotImplemented
        return PiMultiple(self.coefficient - other.coefficient)

    def __neg__(self) -> "PiMultiple":
        return PiMultiple(-self.coefficient)

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
        return hash(("pi-multiple", self.coefficient))

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0

    def __float__(self) -> float:
        return float(self.coefficient) * math.pi

    def to_text(self) -> str:
        return f"{format_rational(self.coefficient)} * pi"

    def __repr__(self):
        return f"PiMultiple({self.coefficient!r})"


ZERO_PI = PiMultiple(0)


def even_moment(n: int, weight: Weight) -> Fraction:
    """Coefficient of pi in the moment integral of x^(2n) against the weight.

    First kind:  (2n-1)!! / (2n)!!        Second kind:  (2n-1)!! / (2n+2)!!

    with (-1)!! = 1.  Odd moments vanish by symmetry.
    """
    if n < 0:
        raise ValueError(f"moment order must be >= 0, got {n}")
    if weight is Weight.FIRST_KIND:
        return Fraction(double_factorial(2 * n - 1), double_factorial(2 * n))
    return Fraction(double_factorial(2 * n - 1), double_factorial(2 * n + 2))


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


def weighted_integral_by_expansion(p: Polynomial, weight: Weight) -> PiMultiple:
    """Exact weighted integral via Chebyshev expansion and orthogonality.

    Expanding in the basis matched to the weight, only the constant term
    survives integration: its norm is pi for the first kind (c_0 = 2 halves
    cancel) and pi/2 for the second.  Independent of the moment route.
    """
    if p.is_zero:
        return ZERO_PI
    first = weight is Weight.FIRST_KIND
    # the last pair is the degree-0 (index 0) coefficient
    _, constant = oracle_expand(p, Basis.CHEBYSHEV_T if first else Basis.CHEBYSHEV_U)[-1]
    return PiMultiple(constant if first else constant / 2)


def quadrature_nodes(weight: Weight, count: int) -> list[tuple[float, float]]:
    """The nonnegative half of the Gauss-Chebyshev rule: (x, w) pairs, x descending.

    Each x > 0 stands for the pair +-x, both of weight w; for odd ``count``
    the last entry is the midpoint, exactly 0.0.  So the rule is exactly
    symmetric (odd integrands give exactly 0), and ``Polynomial.eval_dyadic``
    values both nodes of a pair in one pass.
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


def _node_values(p: Polynomial, weight: Weight, count: int) -> list[tuple[float, int, int]]:
    """(w, n, d) for each node of the full count-node rule, n / d the exact value of p there."""
    values = []
    for x, w in quadrature_nodes(weight, count):
        a, b, d = p.eval_dyadic(x)
        values.append((w, a, d))
        if x:  # the midpoint is its own mirror
            values.append((w, b, d))
    return values


def quadrature_check(p: Polynomial, weight: Weight, nodes: int) -> float:
    """Gauss-Chebyshev quadrature of the matching kind.

    Exact (up to rounding) for polynomial degree <= 2 * nodes - 1; an
    insufficient node count is rejected rather than silently inaccurate.
    Node values are computed exactly and rounded once, so the check measures
    the quadrature rule itself rather than monomial-form evaluation noise
    (high-degree Chebyshev factors have catastrophically cancelling monomial
    coefficients in plain double precision).
    """
    needed = (p.degree + 2) // 2
    if nodes < max(needed, 1):
        raise ValueError(
            f"need at least {max(needed, 1)} nodes for degree {p.degree}, got {nodes}"
        )
    return math.fsum(w * (n / d) for w, n, d in _node_values(p, weight, nodes))


QUADRATURE_REL_TOL = 1e-9


def quadrature_deviation(p: Polynomial, weight: Weight, exact: PiMultiple | None = None) -> float:
    """Relative deviation between the quadrature and the exact integral.

    Normalized by the mass the rule actually sums, max(1, sum |w p(x)|): the
    backward-stable notion of quadrature accuracy.  A tiny integral of a
    large oscillating integrand (F x T near the diagonal shrinks like 2^-j
    while the integrand peaks near 10^6) cannot be resolved to a small
    absolute error in double precision, because the cos-node placement is
    itself only half-ulp accurate; relative to the summed mass the rule is
    accurate to near machine precision, and that is what this measures.

    The node values and the integral are exact ratios of integers until they
    are rounded.  Before rounding they are all scaled by one power of two
    2^-e, the least that keeps the mass inside the float range; e is 0 for
    every integrand whose values are floats, and a larger e leaves the ratio
    unchanged, because the mass then exceeds 1.
    """
    if exact is None:
        exact = weighted_integral(p, weight)
    nodes = _node_values(p, weight, max((p.degree + 2) // 2, 1))
    integral = exact.coefficient.as_integer_ratio()
    # |n/d| < 2^(bits(n) - bits(d) + 1); w < 4 and the sums add bits(len) more.
    top = max(n.bit_length() - d.bit_length() for _, n, d in nodes + [(0.0, *integral)])
    e = max(0, top + len(nodes).bit_length() + 4 - 1024)
    values = [(w, n / (d << e)) for w, n, d in nodes]
    approx = math.fsum(w * v for w, v in values)
    mass = math.fsum(abs(w * v) for w, v in values)
    target = integral[0] / (integral[1] << e) * math.pi
    return abs(approx - target) / max(1.0, mass)


# ---------------------------------------------------------------------------
# Published closed forms
# ---------------------------------------------------------------------------


def printed_fib_cheb_t(j: int, k: int) -> PiMultiple:
    """Published value of the first-kind integral of F_{j+1} T_k (verbatim)."""
    if (j + k) % 2 == 1:
        return ZERO_PI
    return PiMultiple(
        Fraction(binomial((j + k) // 2, k), 2**k)
        / c_norm(k)
        * hyp2f1(Fraction(k - j, 2), Fraction(j + k + 2, 2), k + 1, Fraction(-1, 4))
    )


def printed_fib_cheb_u(j: int, k: int) -> PiMultiple:
    """Published value of the second-kind integral of F_{j+1} U_k (verbatim)."""
    if (j + k) % 2 == 1:
        return ZERO_PI
    return PiMultiple(
        Fraction(binomial(j, (j - k) // 2) * (k + 1), 2**j * (j + k + 2))
        * hyp2f1(Fraction(k - j, 2), Fraction(-(j + k + 2), 2), -j, -4)
    )


def printed_fib_fib_second(j: int, k: int) -> PiMultiple:
    """Published value of the second-kind integral of F_{j+1} F_{k+1} (verbatim).

    The published sum is half of sum_m c(j, m) c(k, m) over the F-in-U
    coefficients of both factors, paired by the summation index m (which
    pairs equal target degrees only at j = k), for m = 0 .. floor(k/2), k <= j.
    """
    pairs = zip(terms(k, Direction.F_IN_U), terms(j, Direction.F_IN_U))
    return PiMultiple(sum(ck * cj for (_, _, ck), (_, _, cj) in pairs) / 2)


def printed_fib_fib_first(
    j: int, k: int, d_m: Callable[[int], Fraction]
) -> PiMultiple:
    """Published first-kind F x F closed form under a supplied reading of d_m.

    The factor named d_m in the published sum is never defined, so the form
    is only evaluable once the caller commits to an interpretation of it.
    """
    return PiMultiple(
        Fraction(2) ** (1 - k - j)
        * sum(
            Fraction(2) ** (4 * m)
            * d_m(m)
            * Fraction(binomial(j - m, j - 2 * m) * binomial(k - m, k - 2 * m))
            / (c_norm(k - 2 * m) * c_norm(j - 2 * m))
            * hyp2f1(-m, k - m + 1, k - 2 * m + 1, Fraction(-1, 4))
            * hyp2f1(-m, j - m + 1, j - 2 * m + 1, Fraction(-1, 4))
            for m in range(k // 2 + 1)
        )
    )


# ---------------------------------------------------------------------------
# Integral operations: oracle value is normative, printed form is audited
# ---------------------------------------------------------------------------


def _oracle_checks(p: Polynomial, weight: Weight) -> tuple[PiMultiple, list[Check], str]:
    by_moments = weighted_integral(p, weight)
    by_expansion = weighted_integral_by_expansion(p, weight)
    checks = [Check("moments-vs-expansion", by_moments, by_expansion)]
    rel = quadrature_deviation(p, weight, by_moments)
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
    if j < k or k < 0:
        raise ValueError(f"requires j >= k >= 0, got j={j}, k={k}")
    value, checks, note = _oracle_checks(fibonacci_poly(j + 1) * chebyshev_t(k), Weight.FIRST_KIND)
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
    if j < k or k < 0:
        raise ValueError(f"requires j >= k >= 0, got j={j}, k={k}")
    value, checks, note = _oracle_checks(fibonacci_poly(j + 1) * chebyshev_u(k), Weight.SECOND_KIND)
    printed = printed_fib_cheb_u(j, k)
    checks.append(Check("printed-vs-oracle", printed, value))
    report = make_report("int-FU", {"j": j, "k": k}, checks, note=note)
    return value, report


def integral_fib_fib(
    j: int,
    k: int,
    weight: Weight,
    first_kind_interpretation: Optional[Callable[[int], Fraction]] = None,
) -> tuple[PiMultiple, Report]:
    """Weighted integral of F_{j+1} F_{k+1}; oracle value plus audit.

    Second kind: the published double-series pairs equal target degrees only
    on the diagonal, so it is compared at j = k and reported Unevaluable as a
    comparison elsewhere.  First kind: the published sum contains the
    undefined symbol d_m and is evaluated only when the caller supplies an
    interpretation for it; otherwise the comparison is Unevaluable.  The
    oracle value is returned in every case.
    """
    if j < k or k < 0:
        raise ValueError(f"requires j >= k >= 0, got j={j}, k={k}")
    p = fibonacci_poly(j + 1) * fibonacci_poly(k + 1)
    value, checks, note = _oracle_checks(p, weight)

    if weight is Weight.SECOND_KIND:
        identity = "int-FF2"
        if j == k:
            checks.append(Check("printed-vs-oracle", printed_fib_fib_second(j, k), value))
            status = None
        else:
            status = Status.UNEVALUABLE if all(c.ok for c in checks) else None
            note = f"printed form compared only at j = k; {note}"
    else:
        identity = "int-FF1"
        if first_kind_interpretation is not None:
            printed = printed_fib_fib_first(j, k, first_kind_interpretation)
            checks.append(Check("printed-vs-oracle", printed, value))
            status = None
        else:
            status = Status.UNEVALUABLE if all(c.ok for c in checks) else None
            note = f"printed form contains the undefined symbol d_m; {note}"

    report = make_report(identity, {"j": j, "k": k}, checks, note=note, status=status)
    return value, report
