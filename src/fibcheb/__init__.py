"""Exact connection coefficients between Fibonacci and Chebyshev polynomials.

A small computer-algebra library built entirely on exact rational arithmetic:
polynomial families, terminating Gauss hypergeometric series, the connection
coefficients between the Fibonacci and Chebyshev families in both directions,
and machine verifiers for the identity and weighted-integral corollaries that
follow from them.  Every closed form is checked against an independent oracle
(triangular basis elimination, the integer recurrence, formal differentiation,
monomial moments), and the handful of published formulas that fail verbatim
are reported as errata together with the correction that passes.

Each public name is declared once, below; its submodule loads on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "connection": "Direction Expansion ExpansionTerm d_coefficient expand lemma_recurrence_holds oracle_expand",
    "hypergeometric": "Hyp2F1 NonTerminatingError ZeroDenominatorError eval_2f1 fibonacci_as_2f1 hyp2f1 "
    "pfaff_transform",
    "identities": "verify_2f1_chain verify_complex_identities verify_cor_sum_T verify_cor_sum_U "
    "verify_derivative_corollaries verify_fib_2f1_representations verify_fib_expressions "
    "verify_laurent_identity verify_trig_identity",
    "integrals": "PiMultiple Weight integral_fib_cheb_t integral_fib_cheb_u integral_fib_fib "
    "quadrature_check quadrature_deviation weighted_integral weighted_integral_by_expansion "
    "weighted_integral_by_moments",
    "polynomials": "Polynomial",
    "report": "Check Report Status",
    "runner": "RunConfig run_sweep summarize",
    "scalars": "GaussianRational binomial sqrt_pi_over_gamma",
    "sequences": "Basis c_norm cheb_deriv_at_1 chebyshev_t chebyshev_u fibonacci_deriv_at_1 fibonacci_number "
    "fibonacci_poly",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached here: a replaced attribute of the home module (a wrapper, say) is what callers see.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
