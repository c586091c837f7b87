"""CLI behavior: output formats, exit codes, determinism."""

import concurrent.futures
import copy
import csv
import io
import json
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fibcheb import Direction, runner
from fibcheb.cli import dyadic_text, main
from fibcheb.report import Check, Report, Status

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def run_cli(capsys, *argv):
    limit = sys.get_int_max_str_digits()
    code = main(list(argv))
    assert sys.get_int_max_str_digits() == limit  # main puts back the digit limit it lifts
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--a", "-1", "--b", "2", "--c", "3", "--z", "-4")
        assert code == 0
        assert out.strip() == "11/3"

    def test_rational_arguments(self, capsys):
        # negative fractions need the attached form to survive argparse
        code, out, _ = run_cli(capsys, "eval", "--a", "-1", "--b=-1/2", "--c=-2", "--z", "-4")
        assert code == 0
        assert out.strip() == "2"

    def test_nonterminating_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--a", "1/2", "--b", "3/2", "--c", "1", "--z", "1/3")
        assert code == 2
        assert "terminate" in err

    def test_termination_index_over_the_cap_exits_cleanly(self, capsys):
        # a series of 10^8 terms is refused before a term is summed
        huge = ("eval", "--a=-100000000", "--b", "1", "--c", "1", "--z", "1")
        assert run_cli(capsys, *huge) == (2, "", "error: termination_index 100000000 exceeds safety cap 500\n")
        at_cap = ("eval", "--a=-600", "--b", "1", "--c", "1", "--z", "1")
        assert run_cli(capsys, *at_cap)[0] == 2
        assert run_cli(capsys, *at_cap, "--cap", "600") == (0, "0\n", "")  # (1 - 1)^600
        negative = (2, "", "error: safety cap must be nonnegative, got -1\n")
        assert run_cli(capsys, *at_cap, "--cap", "-1") == negative

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

    @pytest.mark.parametrize("flag, text", [("--z", "1/0"), ("--b", "abc")])
    def test_unparsable_parameter_names_its_flag(self, capsys, flag, text):
        argv = {"--a": "-2", "--b": "1", "--c": "1", "--z": "1"} | {flag: text}
        with pytest.raises(SystemExit) as exc:
            main(["eval", *(f"{k}={v}" for k, v in argv.items())])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid rational value: '{text}'" in capsys.readouterr().err


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

    def test_jmax_over_cap_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table", "--direction", "f-in-t", "--jmax", "501")
        assert code == 2
        assert "jmax" in err

    def test_negative_cap_rejected(self, capsys):
        code, out, err = run_cli(capsys, "table", "--direction", "f-in-t", "--jmax", "0", "--cap", "-5")
        assert (code, out) == (2, "")
        assert err == "error: safety cap must be nonnegative, got -5\n"

    def test_bad_direction_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "table", "--direction", "nope", "--jmax", "3")
        assert exc.value.code == 2


class TestIntegrate:
    def test_erratum_case(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--kind", "ft", "--j", "2", "--k", "0")
        assert code == 0
        assert "oracle: 3/2 * pi" in out
        assert "printed: 3/4 * pi" in out
        assert "status: PaperErratum" in out

    def test_agreeing_case(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--kind", "fu", "--j", "2", "--k", "0")
        assert code == 0
        assert "oracle: 5/8 * pi" in out
        assert "printed: 5/8 * pi" in out
        assert "status: Pass" in out

    def test_unevaluable_case(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--kind", "ff1", "--j", "1", "--k", "1")
        assert code == 0
        assert "oracle: 1/2 * pi" in out
        assert "printed: unevaluable" in out
        assert "status: Unevaluable" in out

    def test_k_above_j_rejected(self, capsys):
        rejected = (2, "", "error: requires j >= k >= 0, got j=1, k=2\n")
        assert run_cli(capsys, "integrate", "--kind", "ft", "--j", "1", "--k", "2") == rejected


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
        # lemma starts at j = 2: no task, so no pool is started for --workers 2
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for an empty grid")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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

    def test_invalid_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "bogus")
        assert exc.value.code == 2

    def test_negative_jmax_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "cor51", "--jmax", "-1")
        assert code == 2
        assert "nonnegative" in err

    def test_qmax_over_cap_rejected_before_any_task_is_built(self, capsys, monkeypatch):
        def no_tasks(config):
            raise AssertionError("tasks built for a rejected config")

        monkeypatch.setattr(runner, "build_tasks", no_tasks)
        code, out, err = run_cli(capsys, "verify", "--suite", "cor52", "--jmax", "0", "--qmax", "501")
        assert code == 2
        assert out == ""
        assert "qmax 501 exceeds safety cap 500" in err

    def test_negative_cap_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma", "--jmax", "0", "--cap", "-1")
        assert (code, out) == (2, "")
        assert err == "error: safety cap must be nonnegative, got -1\n"

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

    def test_raising_connection_task_names_its_params(self, monkeypatch):
        # named and ordered as in the report of the same task when it does not raise
        passing = runner.execute_task(("connection", 2, "f-in-t"))

        def raising_expand(j, direction):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(runner.connection, "expand", raising_expand)
        failing = runner.execute_task(("connection", 2, "f-in-t"))
        assert failing.error == "ZeroDivisionError: injected"
        assert failing.params == passing.params == (("direction", "f-in-t"), ("j", 2))

    def test_verdict_matches_report(self):
        tasks = runner.build_tasks(runner.RunConfig(jmax=3, qmax=2))
        assert {task[0] for task in tasks} == set(runner.FAMILIES)
        statuses = set()
        verdicts = zip(runner.settle_all(tasks, "json"), runner.settle_all(tasks, "text"), strict=True)
        for task, (as_json, as_text) in zip(tasks, verdicts, strict=True):
            report = runner.execute_task(task)
            for verdict in (as_json, as_text):
                assert verdict.identity == report.identity
                assert verdict.status == report.status.value
            json_record = runner._json_text(report.to_dict(), "    ")
            assert as_json.record == (None if report.status is Status.PASS else json_record)
            printed = report.status not in (Status.PASS, Status.UNEVALUABLE)
            assert as_text.record == (report.text_line() if printed else None)
            statuses.add(report.status)
        assert statuses == {Status.PASS, Status.PAPER_ERRATUM, Status.UNEVALUABLE}

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_verdict_records_are_strings_and_text_omits_unevaluable(self, monkeypatch, output_format):
        def no_dict(report):
            raise AssertionError("a text sweep built a record dict")

        if output_format == "text":
            monkeypatch.setattr(Report, "to_dict", no_dict)
        verdicts = runner.run_sweep(runner.RunConfig(suite="integrals", jmax=6), output_format)
        assert {v.status for v in verdicts} == {"Pass", "PaperErratum", "Unevaluable"}
        assert all(v.record is None or isinstance(v.record, str) for v in verdicts)
        printed = {v.status for v in verdicts if v.record is not None}
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

    def test_raising_task_verdict_carries_the_error(self, monkeypatch):
        def chain_raising(j):
            raise ZeroDivisionError("injected")

        monkeypatch.setitem(runner.FAMILIES, "cor5.1-chain", chain_raising)
        report = runner.execute_task(("cor5.1-chain", 3))
        [as_json] = runner.settle_all([("cor5.1-chain", 3)], "json")
        [as_text] = runner.settle_all([("cor5.1-chain", 3)], "text")
        assert as_json == ("cor5.1-chain", "Fail", runner._json_text(report.to_dict(), "    "))
        assert json.loads(as_json.record)["error"] == "ZeroDivisionError: injected"
        assert as_text == ("cor5.1-chain", "Fail", "cor5.1-chain(j=3): Fail error=ZeroDivisionError: injected")

    @pytest.mark.parametrize(
        "workers, cpus, expected",
        # lemma at jmax 6 has 9 tasks of 5 degrees (j = 2 .. 6)
        [(5000, 4, 4), (3, 4, 3), (2, None, 1), (5000, 64, 5)],
    )
    def test_pool_is_bounded_by_cpus_and_tasks(self, monkeypatch, workers, cpus, expected):
        # a fake pool records its size and runs in this process: no real
        # pool is ever started with a large count, and none of one worker
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, shares):
                return map(fn, shares)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        config = runner.RunConfig(suite="lemma", jmax=6, workers=workers)
        assert len(runner.build_tasks(config)) == 9
        verdicts = runner.run_sweep(config)
        assert sizes == ([] if expected == 1 else [expected])
        serial = runner.run_sweep(runner.RunConfig(suite="lemma", jmax=6, workers=1))
        assert verdicts == serial

    def test_pool_shares_are_the_residue_classes_of_the_degree(self, monkeypatch):
        # a fake pool of three settles its shares in this process, last share first
        shares = []

        class ReversingPool:
            def __init__(self, max_workers):
                assert max_workers == 3

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, given):
                shares.extend(given)
                return reversed([fn(share) for share in reversed(given)])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversingPool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)
        config = runner.RunConfig(jmax=7, qmax=2, workers=3)
        tasks = runner.build_tasks(config)
        for output_format in ("text", "json"):
            shares.clear()
            verdicts = runner.run_sweep(config, output_format)
            assert len(shares) == 3
            for w, share in enumerate(shares):
                assert share == [task for task in tasks if task[1] % 3 == w]
            serial = runner.run_sweep(runner.RunConfig(jmax=7, qmax=2), output_format)
            assert verdicts == serial == runner.settle_all(tasks, output_format)

    def test_a_single_degree_starts_no_pool(self, capsys, monkeypatch):
        # integrals at jmax 0 are four tasks, all of degree 0
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for a single degree")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        code, out, _ = run_cli(capsys, "verify", "--suite", "integrals", "--jmax", "0", "--workers", "2")
        assert code == 0
        assert "result: OK (0 failing)" in out

    def test_broken_pool_is_a_clean_error(self, capsys, monkeypatch):
        # a fake pool raises as a real one does when the OS kills a worker;
        # no process is started
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, shares):
                raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma", "--jmax", "6", "--workers", "2")
        assert code == 2
        assert out == ""
        assert err == "error: A process in the process pool was terminated abruptly\n"

    def test_default_is_one_worker_without_a_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started without --workers")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma", "--jmax", "6")
        assert code == 0
        assert "result: OK" in out

    def test_import_loads_no_pool(self):
        # run_sweep imports the pool when it starts one; the CLI never names it
        names = "{'concurrent.futures.process', 'multiprocessing', 'logging'}"
        probe = f"import sys, fibcheb.cli; print(*{names} & set(sys.modules))"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert (loaded.returncode, loaded.stdout.split(), loaded.stderr) == (0, [], "")

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


LIMITED_COMMANDS = [("table", "--direction", "f-in-t"), ("verify", "--suite", "lemma")]


@pytest.mark.parametrize(
    "limits, message",
    [
        (("--jmax", "-1"), "jmax must be nonnegative, got -1"),
        (("--jmax", "501"), "jmax 501 exceeds safety cap 500"),
        (("--jmax", "0", "--cap", "-3"), "safety cap must be nonnegative, got -3"),
    ],
)
@pytest.mark.parametrize("command", LIMITED_COMMANDS)
def test_table_and_verify_share_the_limit_messages(capsys, command, limits, message):
    assert run_cli(capsys, *command, *limits) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", LIMITED_COMMANDS)
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
    assert len(pairs) == 3
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


@pytest.mark.parametrize("value", [1.5, True, None, (1,)])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        runner._json_text({"lhs": value}, "    ")
