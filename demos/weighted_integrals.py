"""Evaluate weighted integrals of Fibonacci-Chebyshev products exactly.

Every integral of a polynomial against either Chebyshev weight is a rational
multiple of pi.  Three independent routes compute it here: closed monomial
moments of the product, expansion of each factor in the matching Chebyshev
basis plus orthogonality, and a floating-point Gauss-Chebyshev rule on the
factors.  The published closed forms are audited against the exact value;
the first-kind F x T form is off by a factor of two exactly at k = 0, which
the audit reports instead of repairing silently.
"""

from fibcheb import (
    Basis,
    Weight,
    chebyshev_t,
    fibonacci_poly,
    integral_fib_cheb_t,
    integral_fib_cheb_u,
    integral_fib_fib,
    quadrature_check,
    weighted_integral,
    weighted_integral_by_expansion,
)

print("Three routes to one integral")
print("----------------------------")
factors = ((Basis.FIBONACCI, 7), (Basis.CHEBYSHEV_T, 4))
moments = weighted_integral(fibonacci_poly(7) * chebyshev_t(4), Weight.FIRST_KIND)
expansion = weighted_integral_by_expansion(factors, Weight.FIRST_KIND)
quadrature = quadrature_check(factors, Weight.FIRST_KIND)
print("integrand F_7 * T_4, first-kind weight")
print(f"  monomial moments:    {moments}")
print(f"  basis expansion:     {expansion}")
print(f"  quadrature (float):  {quadrature!r}  (exact = {float(moments)!r})")
assert moments == expansion
print()

print("Auditing the published closed forms")
print("-----------------------------------")
for j, k in ((2, 2), (2, 0), (6, 4)):
    value, report = integral_fib_cheb_t(j, k)
    print(f"F_{j + 1} * T_{k} / sqrt(1-x^2): oracle {value} -> {report.status.value}")
value, report = integral_fib_cheb_u(2, 0)
print(f"sqrt(1-x^2) * F_3 * U_0:        oracle {value} -> {report.status.value}")
print()

print("Products of two Fibonacci polynomials")
print("-------------------------------------")
value, report = integral_fib_fib(2, 2, Weight.SECOND_KIND)
print(f"sqrt(1-x^2) * F_3^2:   {value} ({report.status.value})")
value, report = integral_fib_fib(3, 1, Weight.SECOND_KIND)
print(f"sqrt(1-x^2) * F_4 F_2: {value} ({report.status.value}: {report.note.split(';')[0]})")
value, report = integral_fib_fib(1, 1, Weight.FIRST_KIND)
print(f"F_2^2 / sqrt(1-x^2):   {value} ({report.status.value}: {report.note.split(';')[0]})")
