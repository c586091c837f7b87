"""Exact connection coefficients between Fibonacci and Chebyshev polynomials.

A small computer-algebra library built entirely on exact rational arithmetic:
polynomial families, terminating Gauss hypergeometric series, the connection
coefficients between the Fibonacci and Chebyshev families in both directions,
and machine verifiers for the identity and weighted-integral corollaries that
follow from them.  Every closed form is checked against an independent oracle
(triangular basis elimination, the integer recurrence, formal differentiation,
monomial moments), and the handful of published formulas that fail verbatim
are reported as errata together with the correction that passes.
"""

from .connection import (
    Direction,
    Expansion,
    ExpansionTerm,
    d_coefficient,
    expand,
    lemma_recurrence_holds,
    oracle_expand,
)
from .hypergeometric import (
    Hyp2F1,
    NonTerminatingError,
    ZeroDenominatorError,
    eval_2f1,
    fibonacci_as_2f1,
    hyp2f1,
    pfaff_transform,
)
from .identities import (
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
from .integrals import (
    PiMultiple,
    Weight,
    even_moment,
    integral_fib_cheb_t,
    integral_fib_cheb_u,
    integral_fib_fib,
    quadrature_check,
    quadrature_deviation,
    weighted_integral,
    weighted_integral_by_expansion,
    weighted_integral_by_moments,
)
from .polynomials import Polynomial
from .report import Check, Report, Status, Verdict
from .runner import RunConfig, run_sweep, summarize
from .scalars import (
    GaussianRational,
    binomial,
    pochhammer,
    sqrt_pi_over_gamma,
)
from .sequences import (
    Basis,
    c_norm,
    cheb_deriv_at_1,
    chebyshev_t,
    chebyshev_t_power_form,
    chebyshev_u,
    chebyshev_u_power_form,
    fibonacci_deriv_at_1,
    fibonacci_number,
    fibonacci_poly,
    fibonacci_poly_power_form,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "Check",
    "Direction",
    "Expansion",
    "ExpansionTerm",
    "GaussianRational",
    "Hyp2F1",
    "NonTerminatingError",
    "PiMultiple",
    "Polynomial",
    "Report",
    "RunConfig",
    "Status",
    "Verdict",
    "Weight",
    "ZeroDenominatorError",
    "binomial",
    "c_norm",
    "cheb_deriv_at_1",
    "chebyshev_t",
    "chebyshev_t_power_form",
    "chebyshev_u",
    "chebyshev_u_power_form",
    "d_coefficient",
    "eval_2f1",
    "even_moment",
    "expand",
    "fibonacci_as_2f1",
    "fibonacci_deriv_at_1",
    "fibonacci_number",
    "fibonacci_poly",
    "fibonacci_poly_power_form",
    "hyp2f1",
    "integral_fib_cheb_t",
    "integral_fib_cheb_u",
    "integral_fib_fib",
    "lemma_recurrence_holds",
    "oracle_expand",
    "pfaff_transform",
    "pochhammer",
    "quadrature_check",
    "quadrature_deviation",
    "run_sweep",
    "sqrt_pi_over_gamma",
    "summarize",
    "verify_2f1_chain",
    "verify_complex_identities",
    "verify_cor_sum_T",
    "verify_cor_sum_U",
    "verify_derivative_corollaries",
    "verify_fib_2f1_representations",
    "verify_fib_expressions",
    "verify_laurent_identity",
    "verify_trig_identity",
    "weighted_integral",
    "weighted_integral_by_expansion",
    "weighted_integral_by_moments",
]
