"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Run from the root of a source checkout.  It runs the program on small grids,
shows that ``checks.py`` accepts the genuine outputs, and then shows that
every check rejects a deliberately corrupted copy.  Exits 0 only when each
corruption is rejected and no genuine output is.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

from checks import check_call
from run import OutputChecker, child_env, compare_to_reference

TABLE_T = ["table", "--direction", "f-in-t", "--jmax", "12", "--format", "csv"]
TABLE_F = ["table", "--direction", "u-in-f", "--jmax", "12", "--format", "csv"]
VERIFY_ALL = ["verify", "--suite", "all", "--jmax", "6", "--qmax", "3", "--workers", "1", "--format", "json"]
VERIFY_TRIG = ["verify", "--suite", "trig", "--jmax", "32", "--qmax", "5", "--workers", "1", "--format", "json"]


def run_cli(argv: list[str]) -> tuple[str, int]:
    proc = subprocess.run([sys.executable, "-m", "fibcheb.cli", *argv], env=child_env(os.getcwd()),
                          capture_output=True, text=True, timeout=120)
    return proc.stdout, proc.returncode


def edit_table(text: str, edit) -> str:
    lines = text.splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def edit_summary(text: str, edit) -> str:
    summary = json.loads(text)
    edit(summary)
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def find(summary: dict, identity: str, **params) -> dict:
    want = {k: str(v) for k, v in params.items()}
    return next(r for r in summary["records"] if r["identity"] == identity and r["params"] == want)


def move(summary: dict, identity: str, src: str, dst: str) -> None:
    for bucket in (summary["per_identity"][identity], summary["counts"]):
        bucket[src] -= 1
        bucket[dst] += 1


def drop_record(summary: dict, identity: str, **params) -> None:
    record = find(summary, identity, **params)
    summary["records"].remove(record)
    move(summary, identity, record["status"], "Pass")


def set_status(summary: dict, identity: str, status: str, **params) -> None:
    record = find(summary, identity, **params)
    move(summary, identity, record["status"], status)
    record["status"] = status


def add_record(summary: dict, identity: str, status: str, **params) -> None:
    params = {k: str(v) for k, v in params.items()}
    summary["records"].append({"identity": identity, "params": params, "status": status})
    move(summary, identity, "Pass", status)


def scale_coefficient(lines: list[str]) -> None:
    j, m, target, c = lines[20].split(",")
    lines[20] = ",".join([j, m, target, str(Fraction(c) * 2)])


def unreduce_coefficient(lines: list[str]) -> None:
    i = next(i for i, line in enumerate(lines[1:], 1) if "/" in line)
    j, m, target, c = lines[i].split(",")
    num, den = c.split("/")
    lines[i] = ",".join([j, m, target, f"{2 * int(num)}/{2 * int(den)}"])


def relabel_target(lines: list[str]) -> None:
    j, m, target, c = lines[20].split(",")
    lines[20] = ",".join([j, m, target[:2] + str(int(target[2:]) + 2), c])


def main() -> int:
    genuine = {tuple(argv): run_cli(argv) for argv in (TABLE_T, TABLE_F, VERIFY_ALL, VERIFY_TRIG)}
    failures = 0

    for argv, (text, _) in genuine.items():
        problems = check_call(list(argv), text).problems
        print(f"genuine {' '.join(argv[:3])}: {'accepted' if not problems else problems[:3]}")
        failures += bool(problems)

    table_t, table_f = genuine[tuple(TABLE_T)][0], genuine[tuple(TABLE_F)][0]
    everything, trig = genuine[tuple(VERIFY_ALL)][0], genuine[tuple(VERIFY_TRIG)][0]
    cases = [
        ("table: a coefficient doubled", TABLE_T, edit_table(table_t, scale_coefficient)),
        ("table: a coefficient doubled (F target)", TABLE_F, edit_table(table_f, scale_coefficient)),
        ("table: a row dropped", TABLE_T, edit_table(table_t, lambda lines: lines.pop(30))),
        ("table: a coefficient not in lowest terms", TABLE_T, edit_table(table_t, unreduce_coefficient)),
        ("table: a target index shifted", TABLE_F, edit_table(table_f, relabel_target)),
        ("table: every row of the last j dropped", TABLE_T, edit_table(
            table_t, lambda lines: lines.__setitem__(slice(None), [x for x in lines if not x.startswith("12,")]))),
        ("verify: one report too many", VERIFY_ALL, edit_summary(
            everything, lambda s: (s["per_identity"]["laurent"].__setitem__("Pass", 36),
                                   s["counts"].__setitem__("Pass", s["counts"]["Pass"] + 1)))),
        ("verify: cor5.1-T erratum missing at j=3", VERIFY_ALL,
         edit_summary(everything, lambda s: drop_record(s, "cor5.1-T", j=3))),
        ("verify: cor5.1-T printed residual wrong", VERIFY_ALL, edit_summary(
            everything, lambda s: find(s, "cor5.1-T", j=4).__setitem__("printed_residual", "-1/4"))),
        ("verify: cor5.1-chain erratum missing at j=2", VERIFY_ALL,
         edit_summary(everything, lambda s: drop_record(s, "cor5.1-chain", j=2))),
        ("verify: cor5.2 erratum at q=2 missing", VERIFY_ALL,
         edit_summary(everything, lambda s: drop_record(s, "cor5.2", j=5, q=2))),
        ("verify: int-FT printed residual wrong", VERIFY_ALL, edit_summary(
            everything, lambda s: find(s, "int-FT", j=4, k=0).__setitem__("printed_residual", "-1"))),
        ("verify: erratum with nonzero corrected residual", VERIFY_ALL, edit_summary(
            everything, lambda s: find(s, "cor5.2", j=2, q=3).__setitem__("corrected_residual", "1"))),
        ("verify: an erratum reported as Fail", VERIFY_ALL,
         edit_summary(everything, lambda s: set_status(s, "cor5.2", "Fail", j=2, q=3))),
        ("verify: an unexpected Fail", VERIFY_ALL,
         edit_summary(everything, lambda s: add_record(s, "lemma", "Fail", j=4, m=1))),
        ("verify: int-FF2 diagonal Unevaluable", VERIFY_ALL,
         edit_summary(everything, lambda s: add_record(s, "int-FF2", "Unevaluable", j=3, k=3))),
        ("verify: known trig Fail at j=31 missing", VERIFY_TRIG,
         edit_summary(trig, lambda s: drop_record(s, "trig", j=31))),
        ("verify: wrong config", VERIFY_ALL,
         edit_summary(everything, lambda s: s["config"].__setitem__("jmax", 7))),
        ("verify: not JSON", VERIFY_ALL, everything[:-40]),
    ]
    for name, argv, text in cases:
        problems = check_call(argv, text).problems
        print(f"{name}: {'rejected: ' + problems[0] if problems else 'NOT REJECTED'}")
        failures += not problems

    # Round-level checks: exit codes, rounds that disagree, a two-worker output
    # that is not byte-identical to the one-worker one.
    checker = OutputChecker([VERIFY_TRIG])
    checker.check_round({"outputs": [trig], "codes": [0]})
    print(f"round: verify with Fail reports exiting 0: {'rejected' if checker.problems else 'NOT REJECTED'}")
    failures += not checker.problems

    checker = OutputChecker([VERIFY_ALL])
    checker.check_round({"outputs": [everything], "codes": [0]})
    checker.check_round({"outputs": [everything.replace("\n", "\n ", 1)], "codes": [0]})
    print(f"round: outputs differing between rounds: {'rejected' if checker.problems else 'NOT REJECTED'}")
    failures += not checker.problems

    checker = OutputChecker([VERIFY_ALL])
    checker.check_round({"outputs": [everything], "codes": [0]})
    compare_to_reference(checker, [everything])
    print(f"round: identical two-worker output: {'accepted' if not checker.problems else checker.problems}")
    failures += bool(checker.problems)
    flipped = everything[:100] + ("x" if everything[100] != "x" else "y") + everything[101:]
    compare_to_reference(checker, [flipped])
    print(f"round: two-worker output with one byte changed: {'rejected' if checker.problems else 'NOT REJECTED'}")
    failures += not checker.problems

    print("self-test", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
