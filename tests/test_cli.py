"""CLI behavior: output formats, exit codes, determinism."""

import copy
import csv
import functools
import io
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fibcheb import Direction, GaussianRational, PiMultiple, Polynomial, integrals, runner
from fibcheb.cli import dyadic_text, main, operand_size
from fibcheb.report import Check, Report, Status

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"
# the last task of each family in a small sweep, in the order of the families' first tasks
ONE_TASK_PER_FAMILY = list({task[0]: task for task in runner.build_tasks(runner.RunConfig(jmax=3, qmax=2))}.values())


def run_cli(capsys, *argv):
    limit = sys.get_int_max_str_digits()
    code = main(list(argv))
    assert sys.get_int_max_str_digits() == limit  # main puts back the digit limit it lifts
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class SweepHung(BaseException):
    """Raised by ``deadline``; no handler of the program catches it."""


@pytest.fixture
def deadline():
    """A sweep whose real child never reports fails its test after 60 s instead of hanging it."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise SweepHung("the sweep did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def limit_cpus(monkeypatch, affinity, cpu_count=None):
    """A host of ``cpu_count`` CPUs, of which this process may run on
    ``affinity``, or where the platform has no affinity (None), on any."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)


class InlineContext:
    """A stand-in for ``runner.pool_context()`` that starts no process: each
    child runs its target in this process as it is started, and its args
    after the pipe end are recorded."""

    def __init__(self):
        self.started = []
        self.in_child = False

    def Pipe(self, duplex):
        assert not duplex
        sent = []
        return InlineEnd(sent), InlineEnd(sent)

    def Process(self, target, args):
        return InlineChild(self, target, args)


class InlineEnd:
    def __init__(self, sent):
        self.sent = sent

    def send(self, obj):
        self.sent.append(obj)

    def recv(self):
        return self.sent.pop()

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class InlineChild:
    exitcode = None

    def __init__(self, ctx, target, args):
        self.ctx, self.target, self.args = ctx, target, args

    def start(self):
        self.ctx.started.append(self.args[1:])
        self.ctx.in_child = True
        try:
            self.target(*self.args)
        finally:
            self.ctx.in_child = False
        self.exitcode = 0

    def join(self):
        pass


class TestEval:
    def test_rational_arguments(self, capsys):
        # negative fractions need the attached form to survive argparse
        code, out, _ = run_cli(capsys, "eval", "--a", "-1", "--b=-1/2", "--c=-2", "--z", "-4")
        assert code == 0
        assert out.strip() == "2"

    def test_termination_index_at_a_raised_cap_is_admitted(self, capsys):
        # at the default cap this series is rejected (tests/test_golden.py, REJECTED)
        at_cap = ("eval", "--a=-600", "--b", "1", "--c", "1", "--z", "1", "--cap", "600")
        assert run_cli(capsys, *at_cap) == (0, "0\n", "")  # (1 - 1)^600

    def test_exact_value_past_the_int_digit_limit(self, capsys):
        # (1 - z)^500 at z = 10^10 has 5,000 digits, past CPython's default limit of 4,300
        code, out, err = run_cli(capsys, "eval", "--a", "-500", "--b", "1", "--c", "1", "--z", "10000000000")
        assert (code, err) == (0, "")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{(1 - 10**10) ** 500}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert out == expected

    @pytest.mark.parametrize(
        "text, size", [("-1/2", 2), ("1.5e-3", 5), ("1E+10", 11), (" 2_000 ", 4), ("abc", 0), ("1e", 1)]
    )
    def test_operand_size_is_digits_plus_exponent(self, text, size):
        assert operand_size(text) == size

    def test_an_operand_past_its_bound_exits_before_it_is_parsed(self, capsys):
        # Fraction("1e100000000") would build a 332-million-bit integer first
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--a=-1", "--b", "2", "--c", "3", "--z", "1e100000000"])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert "argument --z: operand_size 100000001 exceeds safety cap 4300" in capsys.readouterr().err

    def test_an_operand_at_its_bound_is_admitted(self, capsys):
        at_bound = run_cli(capsys, "eval", "--a=-1", "--b", "1", "--c", "1", "--z", "1e4299")
        assert at_bound == (0, f"{1 - 10**4299}\n", "")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--a=-1", "--b", "1", "--c", "1", "--z=-" + "7" * 4301])
        assert exc.value.code == 2
        assert "argument --z: operand_size 4301 exceeds safety cap 4300" in capsys.readouterr().err

    def test_a_result_past_its_digit_estimate_exits_before_a_term_is_summed(self, capsys):
        # (1 - 10^3999)^500 has 2 million digits; its estimate is 500 * (4 + 2 + 2 + 4001)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", "--a", "-500", "--b", "1", "--c", "1", "--z", "1" + "0" * 3999)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", "error: estimated_digits 2004500 exceeds safety cap 100000\n")
        # 24 * 4009 digits estimated, 95,976 written
        code, out, _ = run_cli(capsys, "eval", "--a", "-24", "--b", "1", "--c", "1", "--z", "1" + "0" * 3999)
        assert code == 0 and len(out) == 95_977


class TestTable:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--direction", "f-in-u", "--jmax", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"j": "3", "m": "1", "target": "U_1", "coefficient": "5/4"} in rows

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--direction", "t-in-f", "--jmax", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {"j": 2, "m": 0, "target": "F_3", "coefficient": "2"} in rows
        assert {"j": 2, "m": 1, "target": "F_1", "coefficient": "-3"} in rows

    def test_edge_rows(self, capsys):
        header = "j,m,target,coefficient\r\n"
        jmax_zero = ("table", "--direction", "t-in-f", "--jmax", "0")
        assert run_cli(capsys, *jmax_zero) == (0, header, "")
        assert run_cli(capsys, *jmax_zero, "--format", "json") == (0, "[]\n", "")
        first_rows = {
            "t-in-f": "1,0,F_2,1\r\n",
            "u-in-f": "1,0,F_2,2\r\n",
            "f-in-t": "0,0,T_0,1\r\n1,0,T_1,1\r\n",
            "f-in-u": "0,0,U_0,1\r\n1,0,U_1,1/2\r\n",
        }
        for direction, rows in first_rows.items():
            assert run_cli(capsys, "table", "--direction", direction, "--jmax", "1") == (0, header + rows, "")

    @pytest.mark.parametrize("direction", [d.value for d in Direction])
    def test_json_and_csv_carry_the_same_rows(self, capsys, direction):
        command = ("table", "--direction", direction, "--jmax", "60")
        _, text, _ = run_cli(capsys, *command, "--format", "csv")
        _, dumped, _ = run_cli(capsys, *command, "--format", "json")
        rows = [{**row, "j": int(row["j"]), "m": int(row["m"])} for row in csv.DictReader(io.StringIO(text))]
        assert len(rows) == sum(j // 2 + 1 for j in range(Direction(direction).min_index, 61))
        # the streamed JSON is the json module's own layout, byte for byte
        assert dumped == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_a_reader_that_stops_early_ends_the_table_quietly(self, output_format):
        # both formats are written row by row, so a closed pipe interrupts the writes
        command = [sys.executable, "-m", "fibcheb.cli", "table", "--direction", "f-in-t", "--jmax", "300",
                   "--cap", "300", "--format", output_format]
        head = {
            "csv": b"j,m,target,coefficient\r\n0,0,T_0,1\r\n",
            "json": b'[\n  {\n    "j": 0,\n    "m": 0,\n    "target": "T_0",\n    "coefficient": "1"\n  },\n',
        }[output_format]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(100).startswith(head)
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")


class TestIntegrate:
    def test_huge_j_exits_at_once(self, capsys, monkeypatch):
        def no_integral(j, k):
            raise AssertionError("an integral evaluated past the cap")

        monkeypatch.setitem(integrals.KINDS, "ft", ("int-FT", no_integral))
        code, out, err = run_cli(capsys, "integrate", "--kind", "ft", "--j", "99999999999999999999", "--k", "0")
        assert (code, out) == (2, "")
        assert err == f"error: j 99999999999999999999 exceeds safety cap {runner.INTEGRATE_SAFETY_CAP}\n"

    def test_cap_override(self, capsys):
        assert run_cli(capsys, "integrate", "--kind", "ft", "--j", "3", "--k", "0", "--cap", "3")[0] == 0


class TestVerify:
    def test_small_sweep_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "cor51", "--jmax", "8")
        assert code == 0
        assert "result: OK" in out

    def test_json_report_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "chain", "--jmax", "6", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["Fail"] == 0
        assert report["counts"]["PaperErratum"] == 5  # j = 2..6
        erratum_params = {rec["params"]["j"] for rec in report["records"]}
        assert erratum_params == {"2", "3", "4", "5", "6"}

    def test_errata_listed_in_full_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--jmax", "6", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        identities = {rec["identity"] for rec in report["records"]}
        assert "cor5.1-T" in identities
        assert "int-FT" in identities
        ft_records = [r for r in report["records"] if r["identity"] == "int-FT"]
        assert all(r["params"]["k"] == "0" for r in ft_records)

    def test_deterministic_across_worker_counts(self, capsys):
        cases = [
            (("verify", "--suite", "cor52", "--jmax", "6", "--qmax", "3", "--format", "json"), "3"),
            # every family through a real pool, in the format that prints each record's fields
            (("verify", "--suite", "all", "--jmax", "8", "--qmax", "3", "--format", "text"), "2"),
            # and in the format that lists every record, Unevaluable ones included, in order
            (("verify", "--suite", "all", "--jmax", "8", "--format", "json"), "2"),
        ]
        for args, workers in cases:
            _, out1, _ = run_cli(capsys, *args, "--workers", "1")
            _, out2, _ = run_cli(capsys, *args, "--workers", workers)
            assert out1 == out2, args

    def test_empty_grid_on_a_pool(self, capsys, monkeypatch):
        # lemma starts at j = 2: no task, so no child is started for --workers 2
        def no_pool():
            raise AssertionError("a child was started for an empty grid")

        monkeypatch.setattr(runner, "pool_context", no_pool)
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma", "--jmax", "1", "--workers", "2")
        assert code == 0
        assert "result: OK (0 failing)" in out

    def test_records_in_numeric_order(self, capsys):
        # a display-string order would put j = 10, 11, 12 before j = 2
        _, out, _ = run_cli(capsys, "verify", "--suite", "cor52", "--jmax", "12", "--qmax", "2",
                            "--format", "json")
        params = [rec["params"] for rec in json.loads(out)["records"]]
        assert params == [{"j": str(j), "q": "2"} for j in range(1, 13)]

    def test_records_follow_the_task_order(self, capsys):
        config = runner.RunConfig(jmax=12)
        families = list(dict.fromkeys(task[0] for task in runner.build_tasks(config)))
        _, out, _ = run_cli(capsys, "verify", "--suite", "all", "--jmax", "12", "--format", "json")
        identities = list(dict.fromkeys(rec["identity"] for rec in json.loads(out)["records"]))
        assert len(identities) > 2
        assert identities == [family for family in families if family in identities]

    def test_json_report_of_an_empty_grid(self, capsys):
        # as json.dumps wrote it before the report was written in pieces
        expected = (
            '{\n  "config": {\n    "jmax": 1,\n    "qmax": 5,\n    "suite": "lemma"\n  },\n'
            '  "counts": {\n    "Fail": 0,\n    "PaperErratum": 0,\n    "Pass": 0,\n    "Unevaluable": 0\n  },\n'
            '  "per_identity": {},\n  "records": []\n}\n'
        )
        assert run_cli(capsys, "verify", "--suite", "lemma", "--jmax", "1", "--format", "json") == (0, expected, "")

    def test_json_report_is_written_record_by_record(self, capsys):
        config = runner.RunConfig(jmax=6)
        summary = runner.summarize(config, runner.run_sweep(config, "json"))
        pieces = list(runner.json_pieces(summary))
        assert len(pieces) == 1 + len(summary["records"]) + 1  # head, records, tail
        _, out, _ = run_cli(capsys, "verify", "--jmax", "6", "--format", "json")
        assert out == runner.render_json(summary) == "".join(pieces)
        # as json.dumps writes the summary with each record's dict in place of its piece
        reports = map(runner.execute_task, runner.build_tasks(config))
        records = [report.to_dict() for report in reports if report.status is not Status.PASS]
        assert out == json.dumps({**summary, "records": records}, indent=2, sort_keys=True) + "\n"

    def test_repeat_runs_byte_identical(self, capsys):
        args = ("verify", "--suite", "integrals", "--jmax", "8", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_qmax_over_cap_rejected_before_any_task_is_built(self, capsys, monkeypatch):
        def no_tasks(config):
            raise AssertionError("tasks built for a rejected config")

        monkeypatch.setattr(runner, "build_tasks", no_tasks)
        code, out, err = run_cli(capsys, "verify", "--suite", "cor52", "--jmax", "0", "--qmax", "501")
        assert code == 2
        assert out == ""
        assert "qmax 501 exceeds safety cap 500" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_raising_task_is_a_fail_report(self, capsys, monkeypatch, workers):
        # a pool forks after the patch, so its workers run the raising entry too
        verify_chain = runner.FAMILIES["cor5.1-chain"]

        def chain_raising_at_three(j):
            if j == 3:
                raise ZeroDivisionError("injected")
            return verify_chain(j)

        monkeypatch.setitem(runner.FAMILIES, "cor5.1-chain", chain_raising_at_three)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "chain", "--jmax", "6", "--workers", workers, "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["counts"] == {"Pass": 2, "PaperErratum": 4, "Fail": 1, "Unevaluable": 0}
        failed = [rec for rec in report["records"] if rec["status"] == "Fail"]
        assert failed == [
            {"identity": "cor5.1-chain", "params": {"j": "3"}, "status": "Fail",
             "error": "ZeroDivisionError: injected"}
        ]
        # the error shows in the text report too, and no report without one carries the field
        assert all("error" not in rec for rec in report["records"] if rec["status"] != "Fail")
        _, text, _ = run_cli(capsys, "verify", "--suite", "chain", "--jmax", "6", "--workers", workers)
        assert "  cor5.1-chain(j=3): Fail error=ZeroDivisionError: injected" in text.splitlines()

    def test_raising_task_keeps_its_identity_row(self, capsys, monkeypatch):
        verify_sum_u = runner.FAMILIES["cor5.1-U"]

        def sum_u_raising_at_two(j):
            if j == 2:
                raise ValueError("injected")
            return verify_sum_u(j)

        monkeypatch.setitem(runner.FAMILIES, "cor5.1-U", sum_u_raising_at_two)
        code, out, _ = run_cli(capsys, "verify", "--suite", "cor51", "--jmax", "3", "--format", "json")
        assert code == 1
        per_identity = json.loads(out)["per_identity"]
        assert sorted(per_identity) == ["cor5.1-T", "cor5.1-U", "cor5.1-fib"]
        assert per_identity["cor5.1-U"] == {"Pass": 2, "PaperErratum": 0, "Fail": 1, "Unevaluable": 0}

    @pytest.mark.parametrize("task", ONE_TASK_PER_FAMILY, ids=lambda task: task[0])
    def test_raising_task_names_its_params(self, monkeypatch, task):
        # named and ordered as in the report of the same task when it does not raise
        family = task[0]
        passing = runner.execute_task(task)

        @functools.wraps(runner.FAMILIES[family])  # the verifier's signature, from which the params are named
        def raising(*args):
            raise ZeroDivisionError("injected")

        monkeypatch.setitem(runner.FAMILIES, family, raising)
        failing = runner.execute_task(task)
        assert (failing.status, failing.error) == (Status.FAIL, "ZeroDivisionError: injected")
        assert (failing.identity, failing.params) == (family, passing.params)
        assert passing.identity == family

    def test_settled_counts_and_records_match_the_reports(self):
        config = runner.RunConfig(jmax=3, qmax=2)
        reports = list(map(runner.execute_task, runner.build_tasks(config)))
        assert {report.identity for report in reports} == set(runner.FAMILIES)
        assert {report.status for report in reports} == {Status.PASS, Status.PAPER_ERRATUM, Status.UNEVALUABLE}
        counts = Counter((report.identity, report.status.value) for report in reports)
        # a Pass prints no record, and an Unevaluable report prints one in JSON only
        as_json = [(position, runner._json_text(report.to_dict(), "    "))
                   for position, report in enumerate(reports) if report.status is not Status.PASS]
        as_text = [(position, report.text_line()) for position, report in enumerate(reports)
                   if report.status not in (Status.PASS, Status.UNEVALUABLE)]
        assert runner.settle_all(config, "json") == (counts, as_json)
        assert runner.settle_all(config, "text") == (counts, as_text)

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_settled_records_are_strings_and_text_omits_unevaluable(self, monkeypatch, output_format):
        def no_dict(report):
            raise AssertionError("a text sweep built a record dict")

        if output_format == "text":
            monkeypatch.setattr(Report, "to_dict", no_dict)
        config = runner.RunConfig(suite="integrals", jmax=6)
        [(counts, records)] = runner.run_sweep(config, output_format)
        assert {status for _, status in counts} == {"Pass", "PaperErratum", "Unevaluable"}
        assert all(isinstance(record, str) for _, record in records)
        tasks = list(runner.build_tasks(config))
        printed = {runner.execute_task(tasks[position]).status.value for position, _ in records}
        assert printed == ({"PaperErratum"} if output_format == "text" else {"PaperErratum", "Unevaluable"})

    def test_text_line_of_a_fail_without_residuals(self):
        report = Report("lemma", (("m", 1), ("j", 4)), Status.FAIL, lhs=False, rhs=True)
        assert report.text_line() == "lemma(j=4,m=1): Fail"

    def test_text_line_of_an_erratum(self):
        report = runner.execute_task(("int-FT", 2, 0))
        assert report.status is Status.PAPER_ERRATUM
        assert report.text_line() == "int-FT(j=2,k=0): PaperErratum printed_residual=-3/4 corrected_residual=0"

    def test_text_line_without_a_corrected_residual(self):
        report = Report("cor5.2", (("j", 3), ("q", Fraction(1, 2))), Status.FAIL, printed_residual=Fraction(-5, 2))
        assert report.text_line() == "cor5.2(j=3,q=1/2): Fail printed_residual=-5/2 corrected_residual=-"

    def test_a_failing_round_trip_prints_its_polynomials_by_str(self, monkeypatch):
        reconstruct = runner.connection.reconstruct
        monkeypatch.setattr(runner.connection, "reconstruct", lambda j, direction: reconstruct(j, direction) + 1)
        report = runner.execute_task(("connection", 2, "t-in-f"))
        assert report.status is Status.FAIL
        first = {"name": "round-trip", "lhs": "2*x^2", "rhs": "2*x^2 - 1", "residual": "1"}
        assert report.to_dict()["checks"][0] == first

    @pytest.mark.parametrize("value", [PiMultiple(Fraction(3, 2)), GaussianRational(Fraction(1, 2), -3), 1.5e-17])
    def test_a_record_prints_each_value_by_str(self, value):
        report = Report(
            "x", (("v", value),), Status.FAIL, lhs=value, rhs=value, printed_residual=value, corrected_residual=value
        )
        text = str(value)
        record = json.loads(runner._json_text(report.to_dict(), "    "))
        assert record["params"]["v"] == record["lhs"] == record["rhs"] == text
        assert record["printed_residual"] == record["corrected_residual"] == text
        assert record["residual"] == str(value - value)
        assert report.text_line() == f"x(v={text}): Fail printed_residual={text} corrected_residual={text}"

    def test_raising_task_record_carries_the_error(self, monkeypatch):
        def chain_raising(j):
            raise ZeroDivisionError("injected")

        monkeypatch.setitem(runner.FAMILIES, "cor5.1-chain", chain_raising)
        report = runner.execute_task(("cor5.1-chain", 3))
        # share 3 of 4 of chain at jmax 3: its one task of degree 3, the fourth
        config = runner.RunConfig(suite="chain", jmax=3)
        counts, [(position, as_json)] = runner.settle_all(config, "json", 3, 4)
        assert (counts, position) == ({("cor5.1-chain", "Fail"): 1}, 3)
        assert as_json == runner._json_text(report.to_dict(), "    ")
        assert json.loads(as_json)["error"] == "ZeroDivisionError: injected"
        assert runner.settle_all(config, "text", 3, 4) == (
            counts, [(3, "cor5.1-chain(j=3): Fail error=ZeroDivisionError: injected")]
        )

    def test_json_record_is_the_dict_written_for_every_report_of_a_sweep(self, monkeypatch):
        reports = [runner.execute_task(task) for task in runner.build_tasks(runner.RunConfig(jmax=12, qmax=5))]
        # a report whose lhs comes from no check: the float trig form
        trig = next(report for report in reports if report.identity == "trig")
        assert trig.lhs is not None and not trig.checks
        # a raising task's report, which has an error and no lhs
        monkeypatch.setitem(runner.FAMILIES, "cor5.1-chain", lambda j: 1 / 0)
        raising = runner.execute_task(("cor5.1-chain", 3))
        assert raising.error == "ZeroDivisionError: division by zero"
        written = [report for report in reports if report.status is not Status.PASS] + [trig, raising]
        assert {report.status for report in written} == set(Status)
        for report in written:
            assert report.json_record() == runner._json_text(report.to_dict(), "    ")

    def test_a_json_sweep_builds_no_record_dict(self, monkeypatch):
        def no_dict(report):
            raise AssertionError("a JSON sweep built a record dict")

        monkeypatch.setattr(Report, "to_dict", no_dict)
        [(_, records)] = runner.run_sweep(runner.RunConfig(suite="integrals", jmax=6), "json")
        assert {json.loads(record)["status"] for _, record in records} == {"PaperErratum", "Unevaluable"}

    @pytest.mark.parametrize(
        "workers, affinity, cpu_count, expected",
        # lemma at jmax 6 has 9 tasks of 5 degrees (j = 2 .. 6); the CPUs are
        # those this process may run on, or where the platform has no
        # affinity (None), os.cpu_count(), of which None counts as one
        [(5000, 4, 64, 4), (3, 4, 4, 3), (2, 1, 2, 1), (2, None, 2, 2), (2, None, None, 1), (5000, 64, 64, 5)],
    )
    def test_pool_is_bounded_by_cpus_and_tasks(self, monkeypatch, workers, affinity, cpu_count, expected):
        # children run in this process: no real child is ever started with a
        # large count, and none of one worker
        contexts = []

        def inline_pool():
            contexts.append(InlineContext())
            return contexts[-1]

        monkeypatch.setattr(runner, "pool_context", inline_pool)
        limit_cpus(monkeypatch, affinity, cpu_count)
        config = runner.RunConfig(suite="lemma", jmax=6, workers=workers)
        assert sum(1 for _ in runner.build_tasks(config)) == 9
        settled = runner.run_sweep(config)
        assert len(settled) == expected
        assert [len(ctx.started) + 1 for ctx in contexts] == ([] if expected == 1 else [expected])
        serial = runner.run_sweep(config._replace(workers=1))
        assert runner.summarize(config, settled) == runner.summarize(config, serial)

    def test_pool_shares_are_the_residue_classes_of_the_degree(self, monkeypatch):
        # of three shares, the caller settles share 0 after it started two
        # children, for shares 1 and 2; they run in this process
        ctx = InlineContext()
        calls = []  # (share, size, settled in a child, the tasks it executed)

        def recording_settle_all(config, output_format, share=0, size=1):
            calls.append((share, size, ctx.in_child, []))
            return settle_all(config, output_format, share, size)

        def recording_execute_task(task):
            calls[-1][3].append(task)
            return execute_task(task)

        settle_all, execute_task = runner.settle_all, runner.execute_task
        monkeypatch.setattr(runner, "settle_all", recording_settle_all)
        monkeypatch.setattr(runner, "execute_task", recording_execute_task)
        monkeypatch.setattr(runner, "pool_context", lambda: ctx)
        limit_cpus(monkeypatch, 3)
        config = runner.RunConfig(jmax=7, qmax=2, workers=3)
        positions = {task: position for position, task in enumerate(runner.build_tasks(config))}
        for output_format in ("text", "json"):
            ctx.started.clear()
            calls.clear()
            settled = runner.run_sweep(config, output_format)
            # each child's args carry the config and its share, and no task
            assert ctx.started == [(config, output_format, 1, 3), (config, output_format, 2, 3)]
            assert [call[:3] for call in calls] == [(1, 3, True), (2, 3, True), (0, 3, False)]
            # the shares' positions cover every task exactly once
            executed = sorted(positions[task] for *_, tasks in calls for task in tasks)
            assert executed == list(range(len(positions)))
            for share, _, _, tasks in calls:  # each share holds one residue class of the degree
                assert {task[1] % 3 for task in tasks} == {share}
            # run_sweep returns share 0 first; each share's records are its own tasks', in task order
            for (_, records), (*_, tasks) in zip(settled, [calls[2], calls[0], calls[1]], strict=True):
                record_positions = [position for position, _ in records]
                assert record_positions == sorted(record_positions)
                assert set(record_positions) <= {positions[task] for task in tasks}
            serial = runner.run_sweep(config._replace(workers=1), output_format)
            assert runner.summarize(config, settled) == runner.summarize(config, serial)

    def test_a_single_degree_starts_no_pool(self, capsys, monkeypatch):
        # integrals at jmax 0 are four tasks, all of degree 0
        def no_pool():
            raise AssertionError("a child was started for a single degree")

        monkeypatch.setattr(runner, "pool_context", no_pool)
        limit_cpus(monkeypatch, 2)
        code, out, _ = run_cli(capsys, "verify", "--suite", "integrals", "--jmax", "0", "--workers", "2")
        assert code == 0
        assert "result: OK (0 failing)" in out

    def test_default_is_one_worker_without_a_pool(self, capsys, monkeypatch):
        def no_pool():
            raise AssertionError("a child was started without --workers")

        monkeypatch.setattr(runner, "pool_context", no_pool)
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma", "--jmax", "6")
        assert code == 0
        assert "result: OK" in out

    def test_children_are_forked_where_the_platform_forks(self, monkeypatch):
        expected = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        assert runner.pool_context().get_start_method() == expected
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
        assert runner.pool_context().get_start_method() == "spawn"

    def test_spawned_children_give_the_same_report(self, monkeypatch, deadline):
        # one real child, started by spawn: it imports fibcheb afresh and
        # receives its pipe end, the config and its share pickled
        spawn = multiprocessing.get_context("spawn")
        started = []

        def recording_process(target, args):
            started.append(args[1:])
            return type(spawn).Process(target=target, args=args)

        monkeypatch.setattr(spawn, "Process", recording_process)
        monkeypatch.setattr(runner, "pool_context", lambda: spawn)
        limit_cpus(monkeypatch, 2)
        config = runner.RunConfig(suite="lemma", jmax=6, workers=2)
        pooled = runner.summarize(config, runner.run_sweep(config, "json"))
        assert started == [(config, "json", 1, 2)]  # the config and no task
        assert pooled == runner.summarize(config, runner.run_sweep(config._replace(workers=1), "json"))
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the dying family tells the child by its pid, after a fork")
    @pytest.mark.parametrize("death, cause", [
        ("SIGKILL", "was killed by signal 9"),
        # execute_task turns an Exception into a Fail report; SystemExit is none
        ("SystemExit(3)", "exited with code 3"),
    ], ids=["SIGKILL", "SystemExit"])
    def test_a_failed_child_is_a_clean_error(self, capsys, monkeypatch, deadline, death, cause):
        # one real child, for the odd degrees, dies; this process settles the even ones
        parent = os.getpid()
        lemma = runner.FAMILIES["lemma"]

        def lemma_dying_in_a_child(j, m):
            if os.getpid() != parent:
                if death == "SIGKILL":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise SystemExit(3)
            return lemma(j, m)

        monkeypatch.setitem(runner.FAMILIES, "lemma", lemma_dying_in_a_child)
        limit_cpus(monkeypatch, 2)
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma", "--jmax", "6", "--workers", "2")
        assert (code, out) == (2, "")
        assert err == f"error: a sweep worker {cause} before sending its verdicts\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("argv, loaded", [
        ("", ""),
        ("verify --suite lemma --jmax 6", ""),
        # the children are started by multiprocessing alone: no executor,
        # logging or queue, and no thread
        ("verify --suite lemma --jmax 6 --workers 2", "multiprocessing"),
    ], ids=["import", "one-worker", "two-workers"])
    def test_import_loads_no_pool(self, argv, loaded):
        # run_sweep imports multiprocessing when it starts a child; the CLI never names it
        names = "{'concurrent.futures', 'multiprocessing', 'logging', 'queue'}"
        probe = (
            "import contextlib, io, os, sys, threading\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # two workers make a child on any host\n"
            "import fibcheb.cli\n"
            "argv = sys.argv[1:]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = fibcheb.cli.main(argv) if argv else 0\n"
            f"print(code, threading.active_count(), *sorted({names} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-c", probe, *argv.split()],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stdout.split(), run.stderr) == (0, ["0", "1", *loaded.split()], "")

    @pytest.mark.parametrize("module", ["fibcheb", "fibcheb.cli"])
    def test_import_loads_no_source_introspection(self, module):
        # No record is a dataclass, runner imports inspect on a task's error
        # path alone, and it takes the JSON string escaper from _json, without
        # the json package.  A fresh interpreter, since pytest itself imports inspect.
        names = "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'json', 'json.decoder', 'json.scanner', 'json.encoder'}"
        probe = f"import sys; before = set(sys.modules); import {module}; print(*{names} & set(sys.modules) - before)"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert (loaded.returncode, loaded.stdout.split(), loaded.stderr) == (0, [], "")

    def test_check_report_and_config_are_immutable_values(self):
        check = Check(name="recurrence", lhs=False, rhs=True)
        report = Report(identity="lemma", params=(("j", 4), ("m", 1)), status=Status.FAIL, lhs=False, rhs=True)
        config = runner.RunConfig(suite="lemma")
        for record, field in ((check, "lhs"), (report, "status"), (config, "jmax")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
                assert copied == record and type(copied) is type(record)
        assert pickle.loads(pickle.dumps(report)).text_line() == "lemma(j=4,m=1): Fail"
        # keyword construction fills the same fields and defaults as before, and
        # positional construction takes them in the same order
        fields = (
            (check, {"name": "recurrence", "lhs": False, "rhs": True}),
            (report, {
                "identity": "lemma", "params": (("j", 4), ("m", 1)), "status": Status.FAIL, "lhs": False,
                "rhs": True, "checks": (), "printed_residual": None, "corrected_residual": None, "note": "",
                "error": "",
            }),
            (config, {"suite": "lemma", "jmax": 20, "qmax": 5, "workers": 1, "safety_cap": 500}),
        )
        for record, expected in fields:
            assert {name: getattr(record, name) for name in expected} == expected
            assert type(record)(*expected.values()) == record
        assert check.residual == -1 and not check.ok
        assert report.residual == -1


# The inputs that argparse accepts but a command rejects, and their error lines,
# are declared once, as REJECTED in tests/test_golden.py.
@pytest.mark.parametrize("argv, start", [
    (("table", "--direction", "nope", "--jmax", "3"), "--direction: invalid choice"),
    (("verify", "--suite", "bogus"), "--suite: invalid choice"),
    (("eval", "--a=-2", "--b=1", "--c=1", "--z=1/0"), "--z: invalid rational value: '1/0'"),
    (("eval", "--a=-2", "--b=abc", "--c=1", "--z=1"), "--b: invalid rational value: 'abc'"),
])
def test_argparse_rejections_name_their_flag_last(capsys, argv, start):
    # only the start of the line: argparse words the rest differently across Python versions
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"fibcheb {argv[0]}: error: argument {start}")


@pytest.mark.parametrize("command", [("table", "--direction", "f-in-t"), ("verify", "--suite", "lemma")])
def test_jmax_at_the_cap_is_accepted(capsys, command):
    assert run_cli(capsys, *command, "--jmax", "5", "--cap", "5")[0] == 0  # verify's qmax is 5 too


def test_readme_command_lines_run(capsys):
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    lines = [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("fibcheb ")]
    assert [argv[0] for argv in lines] == ["table", "verify", "verify", "integrate", "eval"]
    for argv in lines:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "eval":
            assert out == "11/3\n"


def test_readme_library_tour_reprs():
    # each expression's repr is its comment, up to the first run of two or more spaces
    block = re.search(r"^## Library tour\n+```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    namespace = {}
    exec(block, namespace)
    pairs = re.findall(r"^([^#\s].*)\n# (.+?)(?: {2,}|$)", block, re.M)
    assert len(pairs) == 5
    for expression, comment in pairs:
        assert repr(eval(expression, namespace)) == comment, expression


def test_readme_suite_list_matches_registry():
    paragraph = re.search(r"^Suites: (.*?or `all`)", README.read_text(), re.M | re.S).group(1)
    assert re.findall(r"`([^`]+)`", paragraph) == [*runner.SUITES, "all"]


@given(
    s=st.one_of(st.integers(), st.builds(lambda k, z: k << z, st.integers(), st.integers(0, 1100))),
    e=st.integers(0, 1000),
)
@example(s=0, e=0)
@example(s=0, e=7)
@example(s=-3, e=2)
@example(s=5, e=0)
@example(s=-(1 << 40), e=40)
@example(s=3 << 1000, e=1000)
@example(s=-(5 << 9), e=4)
@example(s=12, e=1000)
def test_dyadic_text_is_the_reduced_fraction(s, e):
    assert dyadic_text(s, e) == str(Fraction(s, 2**e))


# Quotes, backslashes, control characters and non-ASCII text, each escaped by JSON.
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\U0001f600'), st.characters()), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(JSON_TEXT, st.integers()),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(JSON_TEXT, inner, max_size=3)),
    max_leaves=12,
)


@given(
    summary=st.fixed_dictionaries({
        "config": st.dictionaries(JSON_TEXT, st.one_of(JSON_TEXT, st.integers()), max_size=3),
        "counts": st.dictionaries(JSON_TEXT, st.integers(), max_size=4),
        "per_identity": st.dictionaries(JSON_TEXT, st.dictionaries(JSON_TEXT, st.integers(), max_size=4), max_size=3),
        "records": st.lists(st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5), max_size=4),
    }) | st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4)
)
@example(summary={})
@example(summary={"config": {}, "counts": {}, "per_identity": {}, "records": []})
@example(summary={"records": [{}, {"params": {}, "checks": []}], "z\\\"\x01é": [[], [1]]})
def test_json_writer_matches_json_dumps(summary):
    # each top-level list holds its items already written, as a sweep's records are
    pieces = {
        key: [runner._json_text(item, "    ") for item in value] if isinstance(value, list) else value
        for key, value in summary.items()
    }
    assert runner.render_json(pieces) == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def same_type_pairs(values):
    return st.tuples(values, values)


# Pairs of values of one type, so that lhs - rhs is defined, as in every report.
RECORD_PAIRS = st.one_of(
    same_type_pairs(st.integers()),
    same_type_pairs(st.fractions()),
    same_type_pairs(st.fractions().map(PiMultiple)),
    same_type_pairs(st.builds(GaussianRational, st.fractions(), st.fractions())),
    same_type_pairs(st.floats()),
    same_type_pairs(st.lists(st.fractions(), max_size=3).map(Polynomial)),
)
RECORD_VALUES = RECORD_PAIRS.map(lambda pair: pair[0])
HEAD_CHECK = Check("c", Fraction(1, 3), Fraction(1, 2))


@st.composite
def reports(draw):
    checks = draw(st.lists(st.tuples(JSON_TEXT, RECORD_PAIRS).map(lambda c: Check(c[0], *c[1])), max_size=3))
    # the head is one check's objects, as make_report takes it, or values of its own
    shapes = ["none", "rhs only", "own"] + (["check", "check's lhs twice"] if checks else [])
    shape = draw(st.sampled_from(shapes))
    if shape.startswith("check"):
        head = draw(st.sampled_from(checks))
        lhs, rhs = (head.lhs, head.rhs) if shape == "check" else (head.lhs, head.lhs)
    elif shape == "own":
        lhs, rhs = draw(RECORD_PAIRS)
    else:
        lhs, rhs = None, (draw(RECORD_VALUES) if shape == "rhs only" else None)
    optional = st.none() | RECORD_VALUES
    return Report(
        identity=draw(JSON_TEXT),
        params=tuple(draw(st.lists(st.tuples(JSON_TEXT, RECORD_VALUES), max_size=3))),
        status=draw(st.sampled_from(Status)),
        lhs=lhs,
        rhs=rhs,
        checks=tuple(checks),
        printed_residual=draw(optional),
        corrected_residual=draw(optional),
        note=draw(JSON_TEXT),
        error=draw(JSON_TEXT),
    )


@given(report=reports())
@example(report=Report("x", (), Status.FAIL))
@example(report=Report("x", (("b", 1), ("a", 2), ("b", 3)), Status.PASS, rhs=Fraction(1, 2)))
@example(report=Report("x", (), Status.FAIL, lhs=HEAD_CHECK.lhs, rhs=HEAD_CHECK.lhs, checks=(HEAD_CHECK,)))
def test_json_record_is_the_dict_written_by_the_json_writer(report):
    assert report.json_record() == runner._json_text(report.to_dict(), "    ")


@pytest.mark.parametrize("value", [1.5, True, None, (1,)])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        runner._json_text({"lhs": value}, "    ")
