"""Command-line interface: connection tables, identity sweeps, integrals.

Exit codes: 0 when no check failed, 1 when any verification failed, 2 for an
invalid invocation or a killed pool worker: ``main`` turns the ValueError of
either into one ``error:`` line.  PaperErratum records (printed form wrong,
corrected form exact) do not affect the exit code: findings, not failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import integrals, runner
from .connection import Direction, table_rows
from .hypergeometric import Hyp2F1, eval_2f1
from .report import Status

TABLE_FIELDS = ("j", "m", "target", "coefficient")


def rational(text: str) -> Fraction:
    """The type of the eval parameters: argparse names the flag and the text it rejects."""
    try:
        return Fraction(text)
    except ZeroDivisionError:  # "1/0" is as invalid as "abc"
        raise ValueError(text) from None


@lru_cache(maxsize=None)
def _power_of_two_text(k: int) -> str:
    return str(1 << k)


def dyadic_text(s: int, e: int) -> str:
    """``str(Fraction(s, 2**e))`` for e >= 0, reduced without a gcd.

    The denominator's only prime is 2, so with t the trailing zeros of s (the
    bit length of its lowest set bit, less one) the value is the integer
    s >> e when t >= e, and s >> t over 2^(e - t) in lowest terms otherwise.
    A table has few distinct denominators, so their texts are cached.
    """
    if not s:
        return "0"
    t = (s & -s).bit_length() - 1
    return str(s >> e) if t >= e else f"{s >> t}/{_power_of_two_text(e - t)}"


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="fibcheb",
        description="Exact Fibonacci-Chebyshev connection coefficients and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit connection-coefficient tables")
    table.add_argument(
        "--direction",
        required=True,
        choices=[d.value for d in Direction],
    )
    table.add_argument("--jmax", type=int, required=True)
    table.add_argument("--format", dest="output_format", choices=["json", "csv"], default="csv")
    table.add_argument("--cap", type=int, default=runner.DEFAULT_SAFETY_CAP)

    verify = sub.add_parser("verify", help="run verification sweeps")
    verify.add_argument("--suite", choices=["all", *runner.SUITES], default="all")
    verify.add_argument("--jmax", type=int, default=20)
    verify.add_argument("--qmax", type=int, default=5)
    verify.add_argument("--format", dest="output_format", choices=["json", "text"], default="text")
    verify.add_argument("--workers", type=int, default=1)
    verify.add_argument("--cap", type=int, default=runner.DEFAULT_SAFETY_CAP)

    integrate = sub.add_parser("integrate", help="evaluate one weighted integral")
    integrate.add_argument("--kind", required=True, choices=list(integrals.KINDS))
    integrate.add_argument("--j", type=int, required=True)
    integrate.add_argument("--k", type=int, required=True)

    evaluate = sub.add_parser(
        "eval",
        help="evaluate one terminating 2F1 series",
        epilog="Parameters are rational strings; write negative fractions attached (--b=-1/2).",
    )
    for flag in ("--a", "--b", "--c", "--z"):
        evaluate.add_argument(flag, required=True, type=rational)
    evaluate.add_argument("--cap", type=int, default=runner.DEFAULT_SAFETY_CAP)

    return parser


def _cmd_table(args) -> int:
    direction = Direction(args.direction)
    runner.check_limits(args.cap, jmax=args.jmax)
    label, shift = direction.target_basis.value, direction.target_basis.shift
    rows = table_rows(direction, args.jmax)
    # No field can hold a comma, a quote, a backslash or a line break, so
    # neither the CSV dialect's quoting nor JSON's escaping ever applies; in
    # both formats each row j is joined and written on its own, so the whole
    # table is never held at once.
    write = sys.stdout.write
    if args.output_format == "json":
        # The layout of json.dumps(entries, indent=2), one dict per entry.
        opening = "[\n"
        for j, row, e in rows:
            write(opening + ",\n".join(
                f'  {{\n    "j": {j},\n    "m": {m},\n    "target": "{label}_{j - 2 * m + shift}",\n'
                f'    "coefficient": "{dyadic_text(s, e)}"\n  }}' for m, s in enumerate(row)
            ))
            opening = ",\n"
        write("[]\n" if opening == "[\n" else "\n]\n")
    else:
        write(",".join(TABLE_FIELDS) + "\r\n")
        for j, row, e in rows:
            write("".join(
                f"{j},{m},{label}_{j - 2 * m + shift},{dyadic_text(s, e)}\r\n" for m, s in enumerate(row)
            ))
    return 0


def _cmd_verify(args) -> int:
    config = runner.RunConfig(
        suite=args.suite,
        jmax=args.jmax,
        qmax=args.qmax,
        workers=args.workers,
        safety_cap=args.cap,
    )
    verdicts = runner.run_sweep(config, args.output_format)
    summary = runner.summarize(config, verdicts)
    if args.output_format == "json":
        # Written a record at a time, like a table a row at a time.
        write = sys.stdout.write
        for piece in runner.json_pieces(summary):
            write(piece)
    else:
        sys.stdout.write(runner.render_text(summary))
    return 1 if summary["counts"]["Fail"] else 0


def _cmd_integrate(args) -> int:
    _, evaluate = integrals.KINDS[args.kind]
    value, report = evaluate(args.j, args.k)
    printed = integrals.audited_printed_value(value, report)
    print(f"oracle: {value.to_text()}")
    print(f"printed: {'unevaluable' if printed is None else printed.to_text()}")
    print(f"status: {report.status.value}")
    if report.note:
        print(f"note: {report.note}")
    return 1 if report.status is Status.FAIL else 0


def _cmd_eval(args) -> int:
    series = Hyp2F1(args.a, args.b, args.c, args.z)
    runner.check_limits(args.cap, termination_index=series.termination_index())
    print(eval_2f1(series))
    return 0


# The handler of each command, looked up when called, so a replaced module
# attribute (a tracing wrapper, say) is honored.
COMMANDS = {
    "table": lambda args: _cmd_table(args),
    "verify": lambda args: _cmd_verify(args),
    "integrate": lambda args: _cmd_integrate(args),
    "eval": lambda args: _cmd_eval(args),
}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    A handler raises ValueError only for invalid input or a broken pool, and
    only before it writes output.  Each such error ends here, as one
    ``error: <message>`` line on stderr and exit code 2.  While the handler runs,
    CPython's int-to-str digit limit (3.10.7+) is lifted, so exact values of any
    length print; the caller's limit is back in place when ``main`` returns.
    """
    args = build_parser().parse_args(argv)
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``fibcheb table ... | head``), which
        # is no fault of the command; stdout goes to the null device so that the
        # flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
