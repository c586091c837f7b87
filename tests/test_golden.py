"""Golden outputs: the CLI must reproduce each fixture under tests/golden byte for byte.

A fixture named ``*.sha256`` holds the SHA-256 digest of an output too large
to keep verbatim.  A change to a fixture is a change to the program's output;
make it on purpose, in a change of its own, and explain the diff.

``REJECTED`` declares every input that argparse accepts but a command
rejects, with the one ``error:`` line it ends as.

Run as a script (``PYTHONPATH=src python tests/test_golden.py``, or from
outside the checkout to check an installed copy), the module checks every
fixture of both tables and every rejected input in a fresh interpreter; see
``ci_main``.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fibcheb
from fibcheb.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"

# fixture file -> (argv, exit code).  No argv names --workers: ci_main adds it.
GOLDEN = {
    "verify_all_j12_q5.json": (
        ["verify", "--suite", "all", "--jmax", "12", "--qmax", "5", "--format", "json"], 0),
    "verify_all_j12_q3.txt": (
        ["verify", "--suite", "all", "--jmax", "12", "--qmax", "3", "--format", "text"], 0),
    # j = 31..36 fail: the float trig check's known false Fails.
    "verify_trig_j36.json": (["verify", "--suite", "trig", "--jmax", "36", "--format", "json"], 1),
    "verify_all_j30_q5.json.sha256": (
        ["verify", "--suite", "all", "--jmax", "30", "--qmax", "5", "--format", "json"], 0),
    # the two suites whose sums run on cached basis values
    "verify_cor52_j36_q5.json.sha256": (
        ["verify", "--suite", "cor52", "--jmax", "36", "--qmax", "5", "--format", "json"], 0),
    "verify_complex_j36.json.sha256": (
        ["verify", "--suite", "complex", "--jmax", "36", "--format", "json"], 0),
    # the other exact identity suites at the same grid, each held byte for byte
    **{
        f"verify_{suite}_j36_q5.json.sha256": (
            ["verify", "--suite", suite, "--jmax", "36", "--qmax", "5", "--format", "json"], 0)
        for suite in ("cor51", "chain", "laurent", "fib2f1", "lemma", "connection")
    },
    # the integral sweep: two exact routes and the quadrature for every (j, k, kind)
    "verify_integrals_j40.json.sha256": (
        ["verify", "--suite", "integrals", "--jmax", "40", "--format", "json"], 0),
    # its text report: the int-FT errata's lines, and no line for an Unevaluable record
    "verify_integrals_j40.txt": (["verify", "--suite", "integrals", "--jmax", "40"], 0),
    # the only CLI output whose quadrature takes the 2^-e scaling path (e > 0)
    # (ci_main's 30 s bound fails a row cache that fills whole rows: this then runs for minutes)
    "integrate_ft_1500_0.txt": (["integrate", "--kind", "ft", "--j", "1500", "--k", "0"], 0),
    **{
        f"table_{direction}_j{jmax}.csv{suffix}": (
            ["table", "--direction", direction, "--jmax", str(jmax)], 0)
        for direction in ("t-in-f", "u-in-f", "f-in-t", "f-in-u")
        for jmax, suffix in ((60, ""), (200, ".sha256"))
    },
    "table_u-in-f_j30.json": (
        ["table", "--direction", "u-in-f", "--jmax", "30", "--format", "json"], 0),
    **{
        f"integrate_{kind}_{j}_{k}.txt": (
            ["integrate", "--kind", kind, "--j", str(j), "--k", str(k)], 0)
        for kind, j, k in (("ft", 2, 0), ("fu", 2, 0), ("ff1", 1, 1), ("ff2", 3, 3), ("ff2", 4, 2))
    },
}

# Outputs that take a second or more each, too slow for the tier-1 suite;
# ci_main checks them with GOLDEN.
CI_ONLY = {
    **{
        f"table_{direction}_j900.csv.sha256": (
            ["table", "--direction", direction, "--jmax", "900", "--cap", "900"], 0)
        for direction in ("f-in-t", "f-in-u")
    },
    # every exact identity suite but trig, where its integers are large
    **{
        f"verify_{suite}_j80_q8.json.sha256": (
            ["verify", "--suite", suite, "--jmax", "80", "--qmax", "8", "--format", "json"], 0)
        for suite in ("cor51", "cor52", "complex", "chain", "laurent", "fib2f1", "lemma", "connection")
    },
    # the round trip adds integers of hundreds of digits per row
    "verify_connection_j200.json.sha256": (
        ["verify", "--suite", "connection", "--jmax", "200", "--format", "json"], 0),
    # the corollary sums far past jmax 36, where their basis-value columns are rescaled many times
    "verify_laurent_j200.json.sha256": (
        ["verify", "--suite", "laurent", "--jmax", "200", "--format", "json"], 0),
    "verify_cor52_j120_q10.json.sha256": (
        ["verify", "--suite", "cor52", "--jmax", "120", "--qmax", "10", "--format", "json"], 0),
    "verify_complex_j100.json.sha256": (
        ["verify", "--suite", "complex", "--jmax", "100", "--format", "json"], 0),
    # the integral sweep with its float quadrature; text records are cut down to their lines in the workers
    "verify_integrals_j60.json.sha256": (
        ["verify", "--suite", "integrals", "--jmax", "60", "--format", "json"], 0),
    "verify_integrals_j60.txt.sha256": (
        ["verify", "--suite", "integrals", "--jmax", "60", "--format", "text"], 0),
    # the rows' moment vectors at large j
    "verify_integrals_j120.json.sha256": (
        ["verify", "--suite", "integrals", "--jmax", "120", "--format", "json"], 0),
    # every quadrature deviation's bits at scale, on rows of up to 201 nodes
    "verify_integrals_j200.json.sha256": (
        ["verify", "--suite", "integrals", "--jmax", "200", "--format", "json"], 0),
    # the full sweep's text report
    "verify_all_j30_q5.txt.sha256": (
        ["verify", "--suite", "all", "--jmax", "30", "--qmax", "5", "--format", "text"], 0),
}


# (argv, message): each input that argparse accepts but its command rejects
# exits 2 with nothing on stdout and the one stderr line ``error: <message>``.
# ci_main runs each argv as given, --workers 0 among them.
REJECTED = [
    (["table", "--direction", "f-in-t", "--jmax", "5", "--cap", "1"], "jmax 5 exceeds safety cap 1"),
    (["table", "--direction", "f-in-t", "--jmax", "-1"], "jmax must be nonnegative, got -1"),
    (["table", "--direction", "f-in-t", "--jmax", "501"], "jmax 501 exceeds safety cap 500"),
    (["table", "--direction", "f-in-t", "--jmax", "0", "--cap", "-3"], "safety cap must be nonnegative, got -3"),
    (["verify", "--suite", "lemma", "--jmax", "-1"], "jmax must be nonnegative, got -1"),
    (["verify", "--suite", "lemma", "--jmax", "501"], "jmax 501 exceeds safety cap 500"),
    (["verify", "--suite", "lemma", "--jmax", "0", "--cap", "-3"], "safety cap must be nonnegative, got -3"),
    (["verify", "--suite", "cor52", "--jmax", "0", "--qmax", "501"], "qmax 501 exceeds safety cap 500"),
    (["verify", "--suite", "lemma", "--jmax", "3", "--workers", "0"], "workers must be positive, got 0"),
    (["integrate", "--kind", "fu", "--j", "1", "--k", "3"], "requires j >= k >= 0, got j=1, k=3"),
    (["integrate", "--kind", "ft", "--j", "99999999999999999999", "--k", "0"],
     "j 99999999999999999999 exceeds safety cap 2500"),
    (["integrate", "--kind", "ft", "--j", "3", "--k", "0", "--cap", "2"], "j 3 exceeds safety cap 2"),
    (["eval", "--a=-3", "--b", "2", "--c=-1", "--z", "2"],
     "2F1(-3, 2; -1; 2): lower parameter vanishes at term 2 of 3"),
    (["eval", "--a", "1/2", "--b", "3/2", "--c", "1", "--z", "1/3"],
     "2F1(1/2, 3/2; 1; 1/3) does not terminate: neither upper parameter is a nonpositive integer"),
    # a series of 10^8 terms is refused before a term is summed
    (["eval", "--a=-100000000", "--b", "1", "--c", "1", "--z", "1"],
     "termination_index 100000000 exceeds safety cap 500"),
    (["eval", "--a=-600", "--b", "1", "--c", "1", "--z", "1"], "termination_index 600 exceeds safety cap 500"),
    (["eval", "--a=-600", "--b", "1", "--c", "1", "--z", "1", "--cap", "-1"],
     "safety cap must be nonnegative, got -1"),
    # (1 - 10^3999)^500 has 2 million digits; its estimate is 500 * (4 + 2 + 2 + 4001)
    (["eval", "--a", "-500", "--b", "1", "--c", "1", "--z", "1e3999"],
     "estimated_digits 2004500 exceeds safety cap 100000"),
]


def matches(fixture: Path, out: bytes) -> bool:
    """Whether ``out`` is the fixture's bytes, or has its digest if it is a ``*.sha256`` file."""
    if fixture.name.endswith(".sha256"):
        return hashlib.sha256(out).hexdigest() == fixture.read_text().strip()
    return out == fixture.read_bytes()


def ci_main(table=None, golden_dir=GOLDEN_DIR, rejected=REJECTED) -> int:
    """Check each fixture of ``table`` (GOLDEN and CI_ONLY) and each ``rejected`` input in a fresh
    interpreter; 0 if all match, else 1.

    Each command runs as ``python -X dev -W error -m fibcheb.cli``, each
    fixture's ``verify`` once on one worker and once on two, and each run must
    end within 30 s with the fixture's exit code and output and nothing on
    stderr: development mode warns of a file left unclosed and, on 3.12+, of a
    fork while threads run.  A rejected input runs once, as given, and must
    exit 2 with nothing on stdout and its one ``error:`` line on stderr.  The
    first line names the package imported, then one line per run names it,
    with the exit code and stderr of a failing run.
    """
    table = {**GOLDEN, **CI_ONLY} if table is None else table
    print(f"checking {fibcheb.__file__}")
    # (label, command, exit code, stdout's fixture or None for an empty stdout, stderr)
    runs = [
        (name, command, code, golden_dir / name, b"")
        for name, (argv, code) in sorted(table.items())
        for command in ([[*argv, "--workers", w] for w in "12"] if argv[0] == "verify" else [argv])
    ]
    runs += [("rejected", argv, 2, None, f"error: {message}\n".encode()) for argv, message in rejected]
    failed = 0
    for label, command, code, fixture, stderr in runs:
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-X", "dev", "-W", "error", "-m", "fibcheb.cli", *command],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True) as run:
            try:
                out, err = run.communicate(timeout=30)
                ok = (run.returncode, err) == (code, stderr) and (matches(fixture, out) if fixture else not out)
                err = err.decode(errors="replace")
            except subprocess.TimeoutExpired:
                # the run's forked workers share its process group: end them with it
                os.killpg(run.pid, signal.SIGKILL)
                run.communicate()
                ok, err = False, "timed out after 30 s\n"
        print(f"{'ok' if ok else 'FAIL'} {time.perf_counter() - start:6.2f} s  {label}: {' '.join(command)}")
        if not ok:
            failed += 1
            print(f"exit {run.returncode}\n{err}", end="")
    print(f"{failed} runs failed" if failed else "every run matched")
    return 1 if failed else 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_fixture(name, capsys):
    argv, expected_code = GOLDEN[name]
    code = main(argv)
    assert matches(GOLDEN_DIR / name, capsys.readouterr().out.encode())
    assert code == expected_code


@pytest.mark.parametrize("argv, message", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED])
def test_rejected_input_is_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_every_fixture_is_checked():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted([*GOLDEN, *CI_ONLY])


def test_every_command_parses_and_leaves_the_workers_to_ci_main():
    for argv, _ in {**GOLDEN, **CI_ONLY}.values():
        build_parser().parse_args(argv)
        assert "--workers" not in argv, argv
    for argv, _ in REJECTED:  # the command rejects each, not argparse
        build_parser().parse_args(argv)


EVAL = ["eval", "--a", "-1", "--b", "2", "--c", "3", "--z", "-4"]
EVAL_DIGEST = hashlib.sha256(b"11/3\n").hexdigest()
CAPPED = ["table", "--direction", "f-in-t", "--jmax", "5", "--cap", "1"]


@pytest.mark.parametrize("digest, code, rejected, result", [
    (EVAL_DIGEST, 0, [], 0),
    ("0" * 64, 0, [], 1),
    (EVAL_DIGEST, 2, [], 1),
    (EVAL_DIGEST, 0, [(CAPPED, "jmax 5 exceeds safety cap 1")], 0),
    (EVAL_DIGEST, 0, [(CAPPED, "jmax 5 exceeds safety cap 2")], 1),
    (EVAL_DIGEST, 0, [(EVAL, "jmax 5 exceeds safety cap 1")], 1),  # exits 0
], ids=["right", "wrong-digest", "wrong-exit-code", "rejected", "wrong-message", "accepted"])
def test_ci_main_fails_a_wrong_digest_or_exit_code(tmp_path, capsys, digest, code, rejected, result):
    (tmp_path / "eval.sha256").write_text(digest + "\n")
    assert ci_main({"eval.sha256": (EVAL, code)}, tmp_path, rejected) == result
    out = capsys.readouterr().out
    assert out.startswith(f"checking {fibcheb.__file__}\n")
    assert ("FAIL" in out) == bool(result)


if __name__ == "__main__":
    sys.exit(ci_main())
