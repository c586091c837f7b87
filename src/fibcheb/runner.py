"""Deterministic sweep runner behind the ``verify`` command.

Tasks are pure and independent, so they may be fanned out over a process
pool.  Every task is settled where it runs, in the calling process or in a
pool worker, into a ``Verdict``: the report's identity, status and record, as
the output format prints it.  A pool of n workers gets n shares, one each: the
tasks whose degree (a task's first argument, j or n) is w mod n.  The caches
under the verifiers are keyed by degree, so no two workers fill the same
entries.  The verdicts are put back in the order of the tasks (suites in
``SUITES`` order, each grid in its own numeric order), so the emitted report is
byte-identical regardless of worker count.  The parent keeps status counts and
record strings alone, and writes the JSON report one record at a time.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import partial
from typing import Iterator, NamedTuple

try:  # the C escaper that json.encoder uses, without loading the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from . import connection, identities, integrals
from .report import Check, Report, Status, Verdict, make_report
from .sequences import Basis

DEFAULT_SAFETY_CAP = 500
TRIG_ABS_TOL = 1e-9
TRIG_SAMPLE_COUNT = 16

LAURENT_POINTS = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(7, 5))


class RunConfig(NamedTuple):
    suite: str = "all"
    jmax: int = 20
    qmax: int = 5
    workers: int = 1
    safety_cap: int = DEFAULT_SAFETY_CAP

    def validate(self) -> None:
        if self.suite != "all" and self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        check_limits(self.safety_cap, jmax=self.jmax, qmax=self.qmax)
        if self.workers < 1:
            raise ValueError("worker count must be positive")


def check_limits(cap: int, **values: int) -> None:
    """The one limit check of the commands: each named value must lie in [0, cap].

    Raises ValueError naming the negative cap, or the first value out of range.
    """
    if cap < 0:
        raise ValueError(f"safety cap must be nonnegative, got {cap}")
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
        if value > cap:
            raise ValueError(f"{name} {value} exceeds safety cap {cap}")


# ---------------------------------------------------------------------------
# The suite registry.  A task is a plain picklable tuple (family, *args):
# SUITES maps each suite to its task grid over (jmax, qmax), in emission
# order, and FAMILIES maps each family, the identity its verifier reports, to
# that verifier, looked up when called, so a replaced module attribute (a
# tracing wrapper, say) is honored.  ``integrals.KINDS`` declares the four
# integral families.
# ---------------------------------------------------------------------------

Task = tuple


def _run_trig(j: int) -> Report:
    thetas = [math.pi * (t + 1) / TRIG_SAMPLE_COUNT for t in range(TRIG_SAMPLE_COUNT)]
    worst = max(identities.verify_trig_identity(j, theta) for theta in thetas)
    status = Status.PASS if worst < TRIG_ABS_TOL else Status.FAIL
    return Report(
        identity="trig",
        params=(("j", j),),
        status=status,
        lhs=worst,
        rhs=0.0,
        note=f"max |lhs-rhs| over {TRIG_SAMPLE_COUNT} angles (tolerance {TRIG_ABS_TOL})",
    )


def _run_lemma(j: int, m: int) -> Report:
    holds = connection.lemma_recurrence_holds(j, m)
    return make_report("lemma", {"j": j, "m": m}, [Check("recurrence", holds, True)])


def _run_connection(j: int, direction: str) -> Report:
    direction = connection.Direction(direction)
    expansion = connection.expand(j, direction)
    source = direction.source_polynomial(j)
    rebuilt = expansion.reconstruct()
    checks = [Check("round-trip", rebuilt, source)]

    oracle = dict(connection.oracle_expand(source, direction.target_basis))
    generated = expansion.coefficients_by_index()
    agree = all(
        oracle.get(idx, 0) == generated.get(idx, 0)
        for idx in set(oracle) | set(generated)
    )
    checks.append(Check("oracle-match", agree, True))

    if direction.source_basis is Basis.FIBONACCI:
        positive = all(t.coefficient > 0 for t in expansion.terms)
        checks.append(Check("coefficients-positive", positive, True))

    return make_report("connection", {"j": j, "direction": direction.value}, checks)


FAMILIES = {
    "cor5.1-T": lambda j: identities.verify_cor_sum_T(j),
    "cor5.1-U": lambda j: identities.verify_cor_sum_U(j),
    "cor5.1-fib": lambda j: identities.verify_fib_expressions(j),
    "cor5.2": lambda j, q: identities.verify_derivative_corollaries(j, q),
    "complex": lambda n: identities.verify_complex_identities(n),
    "cor5.1-chain": lambda j: identities.verify_2f1_chain(j),
    "laurent": lambda j, x0: identities.verify_laurent_identity(j, x0),
    "trig": _run_trig,
    "fib-2f1": lambda n: identities.verify_fib_2f1_representations(n),
    "lemma": _run_lemma,
    "connection": _run_connection,
    **{
        family: (lambda j, k, evaluate=evaluate: evaluate(j, k)[1])
        for family, evaluate in integrals.KINDS.values()
    },
}

SUITES = {
    "cor51": lambda jmax, qmax: [
        *[("cor5.1-T", j) for j in range(1, jmax + 1)],
        *[("cor5.1-U", j) for j in range(1, jmax + 1)],
        *[("cor5.1-fib", j) for j in range(jmax + 1)],
    ],
    "cor52": lambda jmax, qmax: [
        ("cor5.2", j, q) for j in range(jmax + 1) for q in range(1, qmax + 1)
    ],
    "complex": lambda jmax, qmax: [("complex", n) for n in range(jmax + 1)],
    "chain": lambda jmax, qmax: [("cor5.1-chain", j) for j in range(jmax + 1)],
    "laurent": lambda jmax, qmax: [
        ("laurent", j, x0) for j in range(jmax + 1) for x0 in LAURENT_POINTS
    ],
    "trig": lambda jmax, qmax: [("trig", j) for j in range(jmax + 1)],
    "fib2f1": lambda jmax, qmax: [("fib-2f1", n) for n in range(1, jmax + 1)],
    "lemma": lambda jmax, qmax: [
        ("lemma", j, m) for j in range(2, jmax + 1) for m in range(1, j // 2 + 1)
    ],
    "connection": lambda jmax, qmax: [
        ("connection", j, direction.value)
        for direction in connection.Direction
        for j in range(direction.min_index, jmax + 1)
    ],
    "integrals": lambda jmax, qmax: [
        (family, j, k)
        for j in range(jmax + 1)
        for k in range(j + 1)
        for family, _ in integrals.KINDS.values()
    ],
}


def build_tasks(config: RunConfig) -> list[Task]:
    suites = SUITES if config.suite == "all" else (config.suite,)
    return [task for suite in suites for task in SUITES[suite](config.jmax, config.qmax)]


def execute_task(task: Task) -> Report:
    """The verifier's report, or a Fail report naming the exception the verifier raised.

    A raising task so costs only its own verdict: the sweep, and with it every
    other result of a process pool, completes, and the exit code is 1.
    """
    family, *args = task
    if family not in FAMILIES:
        raise ValueError(f"unknown task family {family!r}")
    verifier = FAMILIES[family]
    try:
        return verifier(*args)
    except Exception as exc:
        import inspect  # only here, so start-up loads neither it nor ast, dis and tokenize
        params = inspect.signature(verifier).bind(*args).arguments
        return Report(
            identity=family,
            params=tuple(sorted(params.items())),
            status=Status.FAIL,
            error=f"{type(exc).__name__}: {exc}",
        )


def settle_all(tasks: list[Task], output_format: str) -> list[Verdict]:
    """The verdicts of ``tasks`` in order, for the ``output_format`` report: a sweep or a share."""
    verdicts = []
    for report in map(execute_task, tasks):
        if report.status is Status.PASS:
            record = None
        elif output_format == "json":
            record = _json_text(report.to_dict(), "    ")
        else:  # the text report prints no line for an Unevaluable record
            record = None if report.status is Status.UNEVALUABLE else report.text_line()
        verdicts.append(Verdict(report.identity, report.status.value, record))
    return verdicts


def run_sweep(config: RunConfig, output_format: str = "text") -> list[Verdict]:
    """The verdicts of the configured tasks, in ``build_tasks`` order, for the ``output_format`` report.

    Raises ValueError for an invalid config or a killed pool worker.
    """
    config.validate()
    tasks = build_tasks(config)
    # A pool may start all of its processes at once, so it never gets more
    # than there are CPUs, tasks or degrees; the output does not depend on the count.
    degrees = {task[1] for task in tasks}
    size = max(1, min(config.workers, os.cpu_count() or 1, len(degrees)))
    if size == 1:
        return settle_all(tasks, output_format)
    shares = [[] for _ in range(size)]
    for task in tasks:
        shares[task[1] % size].append(task)
    # Imported here, so that a command without a pool loads neither multiprocessing nor logging.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=size) as pool:
            settle_share = partial(settle_all, output_format=output_format)
            settled = [iter(verdicts) for verdicts in pool.map(settle_share, shares)]
    except BrokenProcessPool as exc:  # a worker was killed, by the OS say
        raise ValueError(str(exc)) from exc
    return [next(settled[task[1] % size]) for task in tasks]


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def summarize(config: RunConfig, verdicts: list[Verdict]) -> dict:
    """Status counts, overall and per identity, and the verdicts' record strings in verdict order."""
    zero = {s.value: 0 for s in Status}
    counts = dict(zero)
    per_identity: dict[str, dict[str, int]] = {}
    for v in verdicts:
        counts[v.status] += 1
        if v.identity not in per_identity:
            per_identity[v.identity] = dict(zero)
        per_identity[v.identity][v.status] += 1
    return {
        "config": {
            "suite": config.suite,
            "jmax": config.jmax,
            "qmax": config.qmax,
        },
        "counts": counts,
        "per_identity": per_identity,
        "records": [v.record for v in verdicts if v.record is not None],
    }


def _json_text(value, indent: str) -> str:
    """``value``, a str, int, dict or list, as ``json.dumps(indent=2, sort_keys=True)``
    writes it at the nesting level whose lines start with ``indent``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = f",\n{inner}".join(
            f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())
        )
        return f"{{\n{inner}{items}\n{indent}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = indent + "  "
        items = f",\n{inner}".join(_json_text(v, inner) for v in value)
        return f"[\n{inner}{items}\n{indent}]"
    if type(value) is int:
        return repr(value)
    raise TypeError(f"a report holds no {type(value).__name__}")


def json_pieces(summary: dict) -> Iterator[str]:
    """``json.dumps(summary, indent=2, sort_keys=True) + "\\n"`` in pieces: the
    head, then one item at a time of each nonempty top-level list (a record,
    already its ``_json_text`` at the 4-space indent), then the tail.

    The JSON encoder runs in pure Python whenever it indents; this writes the
    same text with the C string escaper, and never holds the whole report.
    """
    text, sep = "{", "\n  "
    for key, value in sorted(summary.items()):
        text += f"{sep}{encode_basestring_ascii(key)}: "
        sep = ",\n  "
        if isinstance(value, list) and value:
            yield text + "["
            item_sep = "\n    "
            for item in value:
                yield item_sep + item
                item_sep = ",\n    "
            text = "\n  ]"
        else:
            text += _json_text(value, "  ")
    yield text + ("\n}\n" if summary else "}\n")


def render_json(summary: dict) -> str:
    return "".join(json_pieces(summary))


def render_text(summary: dict) -> str:
    lines = []
    cfg = summary["config"]
    lines.append(f"suite={cfg['suite']} jmax={cfg['jmax']} qmax={cfg['qmax']}")
    header = f"{'identity':<14}{'Pass':>8}{'PaperErratum':>14}{'Fail':>8}{'Unevaluable':>13}"
    lines.append(header)
    for identity in sorted(summary["per_identity"]):
        c = summary["per_identity"][identity]
        lines.append(
            f"{identity:<14}{c['Pass']:>8}{c['PaperErratum']:>14}{c['Fail']:>8}{c['Unevaluable']:>13}"
        )
    c = summary["counts"]
    lines.append(
        f"{'total':<14}{c['Pass']:>8}{c['PaperErratum']:>14}{c['Fail']:>8}{c['Unevaluable']:>13}"
    )
    if summary["records"]:
        lines.append("non-pass records (excluding Unevaluable):")
        lines.extend(f"  {line}" for line in summary["records"])
    failing = summary["counts"]["Fail"]
    lines.append(f"result: {'FAIL' if failing else 'OK'} ({failing} failing)")
    return "\n".join(lines) + "\n"
