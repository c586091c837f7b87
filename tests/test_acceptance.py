"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
All comparisons are exact (zero tolerance) except the two floating-point
checks, whose tolerances are pinned here: trigonometric residual < 1e-9
absolute, quadrature deviation <= 1e-9 relative to the summed mass.
"""

import json
import time
from fractions import Fraction

from fibcheb import (
    Direction,
    GaussianRational,
    PiMultiple,
    RunConfig,
    Status,
    chebyshev_u,
    expand,
    fibonacci_number,
    hyp2f1,
    integral_fib_cheb_t,
    integral_fib_cheb_u,
    integral_fib_fib,
    lemma_recurrence_holds,
    oracle_expand,
    pfaff_transform,
    run_sweep,
    sqrt_pi_over_gamma,
    summarize,
    verify_complex_identities,
    verify_cor_sum_T,
    verify_cor_sum_U,
    verify_derivative_corollaries,
)
from fibcheb.hypergeometric import Hyp2F1, eval_2f1, fibonacci_as_2f1
from fibcheb.integrals import Weight
from fibcheb.runner import render_json
from fibcheb.scalars import I, binomial, pochhammer

JMAX = 60


def report_line(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_basis_round_trip():
    ok = True
    for direction in Direction:
        for j in range(direction.min_index, JMAX + 1):
            expansion = expand(j, direction)
            if expansion.reconstruct() != direction.source_polynomial(j):
                ok = False
    report_line(1, ok, f"basis round-trip exact for all j <= {JMAX}, all four directions")


def test_criterion_2_oracle_equivalence():
    ok = True
    for direction in Direction:
        for j in range(direction.min_index, JMAX + 1):
            expansion = expand(j, direction)
            generated = expansion.coefficients_by_index()
            oracle = dict(oracle_expand(direction.source_polynomial(j), direction.target_basis))
            for idx in set(oracle) | set(generated):
                if oracle.get(idx, Fraction(0)) != generated.get(idx, Fraction(0)):
                    ok = False
    report_line(2, ok, f"closed-form coefficients equal elimination oracle, all j <= {JMAX}")


def test_criterion_3_lemma_recurrence():
    ok = all(
        lemma_recurrence_holds(j, m) for j in range(2, JMAX + 1) for m in range(1, j // 2 + 1)
    )
    report_line(3, ok, f"series recurrence holds for all 2 <= j <= {JMAX}, 1 <= m <= j/2")


def test_criterion_4_spot_values():
    t2 = {t.target_index: t.coefficient for t in expand(2, Direction.T_IN_F).terms}
    f4_t = {t.target_index: t.coefficient for t in expand(3, Direction.F_IN_T).terms}
    f4_u = {t.target_index: t.coefficient for t in expand(3, Direction.F_IN_U).terms}
    f3_u = {t.target_index: t.coefficient for t in expand(2, Direction.F_IN_U).terms}
    ok = (
        t2 == {3: 2, 1: -3}
        and f4_t == {3: Fraction(1, 4), 1: Fraction(11, 4)}
        and f4_u == {3: Fraction(1, 8), 1: Fraction(5, 4)}
        and f3_u == {2: Fraction(1, 4), 0: Fraction(5, 4)}
    )
    report_line(
        4,
        ok,
        "spot values: T_2 = 2F_3 - 3F_1; F_4 = T_3/4 + 11T_1/4; F_4 = U_3/8 + 5U_1/4; F_3 = U_2/4 + 5U_0/4",
    )


def test_criterion_5_weighted_sums():
    ok = True
    for j in range(1, JMAX + 1):
        report_u = verify_cor_sum_U(j)
        if report_u.status is not Status.PASS or report_u.lhs != j + 1:
            ok = False
        report_t = verify_cor_sum_T(j)
        if report_t.corrected_residual != 0:
            ok = False
        if j == 1 and report_t.status is not Status.PASS:
            ok = False
        if j == 2 and not (
            report_t.status is Status.PAPER_ERRATUM
            and report_t.printed_residual == Fraction(-1, 2)
        ):
            ok = False
    report_line(
        5,
        ok,
        f"2^j sum = j+1 and j*sum = 1 exact for j <= {JMAX}; verbatim first-kind sum "
        "recorded as PaperErratum (1/2 at j = 2)",
    )


def test_criterion_6_hypergeometric_representations():
    ok = True
    for n in range(1, 101):
        expected = fibonacci_number(n)
        if fibonacci_as_2f1(n) != (expected, expected):
            ok = False
    for j in range(JMAX + 1):
        for m in range(j // 2 + 1):
            for original in (
                Hyp2F1(-m, j - m + 1, j - 2 * m + 1, Fraction(-1, 4)),
                Hyp2F1(-m, -j + m - 1, -j, -4),
            ):
                prefactor, transformed = pfaff_transform(original)
                if prefactor * eval_2f1(transformed) != eval_2f1(original):
                    ok = False
    report_line(
        6,
        ok,
        f"both 2F1 forms equal F_n for n <= 100; transformation round-trips exact on chain grids j <= {JMAX}",
    )


def test_criterion_7_complex_identities():
    ok = all(verify_complex_identities(n).status is Status.PASS for n in range(41))
    half_i = GaussianRational(0, Fraction(1, 2))
    if chebyshev_u(2)(half_i) / I**2 != 2:
        ok = False
    if chebyshev_u(1)(GaussianRational(0, -2)) != GaussianRational(0, -4):
        ok = False
    report_line(
        7, ok, "Gaussian identities exact for n <= 40, incl. U_2(i/2)/i^2 = 2 and U_1(-2i) = -4i"
    )


def test_criterion_8_derivative_corollaries():
    ok = True
    for j in range(31):
        for q in range(1, 6):
            report = verify_derivative_corollaries(j, q)
            if report.status not in (Status.PASS, Status.PAPER_ERRATUM):
                ok = False
            if not all(c.ok for c in report.checks):
                ok = False
    # F'_3(1) = 2 from the second-kind form: prefactor 1/12, sum 24
    prefactor = sqrt_pi_over_gamma(1, Fraction(3, 2)) / 2**4
    the_sum = sum(
        binomial(2, m)
        * Fraction((2 - 2 * m) * (3 - 2 * m) ** 2 * (4 - 2 * m), 3 - m)
        * pochhammer(5 - 2 * m, 0)
        * hyp2f1(-m, m - 3, -2, -4)
        for m in range(2)
    )
    if not (prefactor == Fraction(1, 12) and the_sum == 24 and prefactor * the_sum == 2):
        ok = False
    report_line(
        8,
        ok,
        "derivative formulas exact against differentiation oracle for q <= 5, j <= 30 "
        "(second-kind misprint corrected and recorded); F'_3(1) = 2 from prefactor 1/12, sum 24",
    )


def test_criterion_9_integrals():
    ok = True
    for j in range(31):
        for k in range(j + 1):
            value_u, report_u = integral_fib_cheb_u(j, k)
            if report_u.status is not Status.PASS:
                ok = False
            value_t, report_t = integral_fib_cheb_t(j, k)
            if k >= 1 and report_t.status is not Status.PASS:
                ok = False
            if k == 0 and j % 2 == 0 and report_t.status is not Status.PAPER_ERRATUM:
                ok = False
    if integral_fib_cheb_u(2, 0)[0] != PiMultiple(Fraction(5, 8)):
        ok = False
    if integral_fib_cheb_t(2, 2)[0] != PiMultiple(Fraction(1, 4)):
        ok = False
    value, report = integral_fib_cheb_t(2, 0)
    if value != PiMultiple(Fraction(3, 2)) or report.status is not Status.PAPER_ERRATUM:
        ok = False
    for j in range(21):
        value, report = integral_fib_fib(j, j, Weight.SECOND_KIND)
        if report.status is not Status.PASS:
            ok = False
    if integral_fib_fib(2, 2, Weight.SECOND_KIND)[0] != PiMultiple(Fraction(13, 16)):
        ok = False
    # the quadrature cross-check is embedded in every report above: a
    # deviation beyond 1e-9 relative would have flipped its status to Fail
    report_line(
        9,
        ok,
        "integrals: F x U printed exact (incl. 5pi/8 at (2,0)); F x T exact for k >= 1 "
        "(incl. pi/4 at (2,2)) with the k = 0 factor-2 PaperErratum (oracle 3pi/2 at (2,0)); "
        "F x F second kind exact on the diagonal (13pi/16 at (2,2)); quadrature within 1e-9",
    )


def test_criterion_10_determinism_and_runtime():
    started = time.monotonic()
    config_one = RunConfig(suite="all", jmax=30, qmax=5, workers=1)
    verdicts_one = run_sweep(config_one, "json")
    config_two = RunConfig(suite="all", jmax=30, qmax=5, workers=2)
    verdicts_two = run_sweep(config_two, "json")
    elapsed = time.monotonic() - started

    json_one = render_json(summarize(config_one, verdicts_one))
    json_two = render_json(summarize(config_two, verdicts_two))
    identical = json_one == json_two
    no_failures = json.loads(json_one)["counts"]["Fail"] == 0
    fast_enough = elapsed < 60.0
    report_line(
        10,
        identical and no_failures and fast_enough,
        f"full sweep (jmax=30, qmax=5) deterministic across worker counts, no failures, "
        f"both runs in {elapsed:.1f}s (< 60s)",
    )
