"""Deterministic sweep runner behind the ``verify`` command.

Tasks are pure and independent, so they may be settled in several processes.
A sweep on n workers has n shares: share w holds the tasks whose degree (a
task's first argument, j or n) is w mod n.  Each process walks the task grid
and settles its own share alone, into status counts and the records that the
output format prints (``Report.json_record`` writes a JSON record straight
from the report, and ``Report.text_line`` a line of the text report), each
with its task's position.  The calling process settles share 0 while n - 1
children, ``multiprocessing`` processes started by fork (or by spawn where
the platform has no fork), settle one share each and send back their counts
and records over their own one-way pipes.  The caches under the verifiers are
keyed by degree, so no two processes fill the same entries.  The records are
merged by position, that is in task order (suites in ``SUITES`` order, each
grid in its own numeric order), so the emitted report is byte-identical
regardless of worker count.  The parent writes the JSON report one record at
a time.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import connection, identities, integrals
from .report import Check, Report, Status, encode_basestring_ascii, make_report
from .sequences import Basis

DEFAULT_SAFETY_CAP = 500
# integrate's default cap on --j.  One integral holds every lower member of its
# two families, so its memory grows as j^3: integrate --kind ft --k 0 peaked at
# 72, 180 and 373 MB of resident memory at j = 1000, 1500 and 2000 (Python
# 3.11.7, 2-CPU x86-64 host), which puts j = 2500 near 730 MB, extrapolated.
INTEGRATE_SAFETY_CAP = 2500
# eval's fixed bounds on the size of its numbers.  An operand's text is held
# to 4,300 digits plus |exponent|, CPython's default int_max_str_digits, before
# it is parsed: Fraction("1e100000000") would build a 332-million-bit integer.
# The result's digits, estimated as the termination index times the digits of
# the operands, are held to 100,000 before a term is summed: Python 3.10 and
# 3.11 write an integer's decimal text in quadratic time.
EVAL_OPERAND_CAP = 4300
EVAL_DIGITS_CAP = 100_000
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
            raise ValueError(f"workers must be positive, got {self.workers}")


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
# The suite registry.  A task is a plain tuple (family, *args): SUITES maps
# each suite to its task grid over (jmax, qmax), yielded in emission order,
# and FAMILIES maps each family, the identity its verifier reports, to
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
    source = direction.source_polynomial(j)
    rebuilt = connection.reconstruct(j, direction)
    row = connection.row(j, direction)
    checks = [
        Check("round-trip", rebuilt, source),
        Check("oracle-match", connection.oracle_expand(source, direction.target_basis) == row, True),
    ]
    if direction.source_basis is Basis.FIBONACCI:
        checks.append(Check("coefficients-positive", all(n > 0 for n in row[1]), True))

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
    "cor51": lambda jmax, qmax: itertools.chain(
        (("cor5.1-T", j) for j in range(1, jmax + 1)),
        (("cor5.1-U", j) for j in range(1, jmax + 1)),
        (("cor5.1-fib", j) for j in range(jmax + 1)),
    ),
    "cor52": lambda jmax, qmax: (
        ("cor5.2", j, q) for j in range(jmax + 1) for q in range(1, qmax + 1)
    ),
    "complex": lambda jmax, qmax: (("complex", n) for n in range(jmax + 1)),
    "chain": lambda jmax, qmax: (("cor5.1-chain", j) for j in range(jmax + 1)),
    "laurent": lambda jmax, qmax: (
        ("laurent", j, x0) for j in range(jmax + 1) for x0 in LAURENT_POINTS
    ),
    "trig": lambda jmax, qmax: (("trig", j) for j in range(jmax + 1)),
    "fib2f1": lambda jmax, qmax: (("fib-2f1", n) for n in range(1, jmax + 1)),
    "lemma": lambda jmax, qmax: (
        ("lemma", j, m) for j in range(2, jmax + 1) for m in range(1, j // 2 + 1)
    ),
    "connection": lambda jmax, qmax: (
        ("connection", j, direction.value)
        for direction in connection.Direction
        for j in range(direction.min_index, jmax + 1)
    ),
    "integrals": lambda jmax, qmax: (
        (family, j, k)
        for j in range(jmax + 1)
        for k in range(j + 1)
        for family, _ in integrals.KINDS.values()
    ),
}


def build_tasks(config: RunConfig) -> Iterator[Task]:
    suites = SUITES if config.suite == "all" else (config.suite,)
    return (task for suite in suites for task in SUITES[suite](config.jmax, config.qmax))


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


def settle_all(config: RunConfig, output_format: str, share: int = 0, size: int = 1) -> tuple[Counter, list]:
    """Share ``share`` of ``size`` of the configured sweep, the tasks whose
    degree is ``share`` mod ``size``, settled for the ``output_format`` report.

    Returns ``(counts, records)``: a count per (identity, status value), and
    the (task position, record) of each report the format prints, in task order.
    """
    counts = Counter()
    records = []
    for position, task in enumerate(build_tasks(config)):
        if task[1] % size != share:
            continue
        report = execute_task(task)
        counts[report.identity, report.status.value] += 1
        if report.status is Status.PASS:
            continue
        if output_format == "json":
            records.append((position, report.json_record()))
        elif report.status is not Status.UNEVALUABLE:  # which the text report prints no line for
            records.append((position, report.text_line()))
    return counts, records


def pool_context():
    """The ``multiprocessing`` context that starts a sweep's children: fork
    wherever the platform has it (Python 3.14 defaults to forkserver on
    Linux), else spawn."""
    import multiprocessing  # here, so that a sweep on one worker does without it

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def _settle_share(writer, config: RunConfig, output_format: str, share: int, size: int) -> None:
    """A child's work: settle its share and send the counts and records to the parent."""
    with writer:
        writer.send(settle_all(config, output_format, share, size))


def _receive(child, reader) -> tuple[Counter, list]:
    """The counts and records ``child`` sent, once it has exited.

    Raises ValueError when it exited nonzero, was killed, or sent nothing.
    """
    try:
        verdicts = reader.recv()
    except (EOFError, OSError):  # the child ended before it sent them all
        verdicts = None
    child.join()
    code = child.exitcode
    if code == 0 and verdicts is not None:
        return verdicts
    cause = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
    if verdicts is None:
        cause += " before sending its verdicts"
    raise ValueError(f"a sweep worker {cause}")


def run_sweep(config: RunConfig, output_format: str = "text") -> list[tuple[Counter, list]]:
    """The ``settle_all`` result of each share of the configured sweep, for the ``output_format`` report.

    Raises ValueError for an invalid config or a failed child.
    """
    config.validate()
    # The sweep never takes more processes than there are CPUs it may run on,
    # tasks or degrees; the output does not depend on the count.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    degrees = {task[1] for task in build_tasks(config)}
    size = max(1, min(config.workers, cpus, len(degrees)))
    if size == 1:
        return [settle_all(config, output_format)]
    ctx = pool_context()
    children = []
    try:
        for share in range(1, size):
            reader, writer = ctx.Pipe(duplex=False)
            # The parent closes its copy of the write end at once, so that a
            # child that dies reads as EOF instead of blocking the parent.
            with writer:
                child = ctx.Process(target=_settle_share, args=(writer, config, output_format, share, size))
                child.start()
            children.append((child, reader))
        settled = [settle_all(config, output_format, 0, size)]
        settled += [_receive(child, reader) for child, reader in children]
    finally:  # on any error, no child is left running
        for child, reader in children:
            reader.close()
            if child.exitcode is None:
                child.terminate()
            child.join()
    return settled


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def summarize(config: RunConfig, settled: list[tuple[Counter, list]]) -> dict:
    """Status counts, overall and per identity, and the record strings in task
    order, of the settled shares that ``run_sweep`` returns."""
    zero = {s.value: 0 for s in Status}
    counts = dict(zero)
    per_identity: dict[str, dict[str, int]] = {}
    records = []
    for share_counts, share_records in settled:
        for (identity, status), count in share_counts.items():
            counts[status] += count
            per_identity.setdefault(identity, dict(zero))[status] += count
        records += share_records
    records.sort()  # by task position, each one distinct
    return {
        "config": {
            "suite": config.suite,
            "jmax": config.jmax,
            "qmax": config.qmax,
        },
        "counts": counts,
        "per_identity": per_identity,
        "records": [record for _, record in records],
    }


def _json_text(value, indent: str) -> str:
    """``value``, a str, int, dict or list, as ``json.dumps(indent=2, sort_keys=True)``
    writes it at the nesting level whose lines start with ``indent``: the
    summary's head, and the reference that ``Report.json_record`` matches."""
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
    already its text at the 4-space indent, as ``Report.json_record`` writes
    it), then the tail.

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
