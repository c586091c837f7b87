"""Golden outputs: the CLI must reproduce each fixture under tests/golden byte for byte.

A fixture named ``*.sha256`` holds the SHA-256 digest of an output too large
to keep verbatim.  A change to a fixture is a change to the program's output;
make it on purpose, in a change of its own, and explain the diff.

Run as a script (``PYTHONPATH=src python tests/test_golden.py``), the module
checks every fixture of both tables in a fresh interpreter; see ``ci_main``.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

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
    # the full sweep's text report
    "verify_all_j30_q5.txt.sha256": (
        ["verify", "--suite", "all", "--jmax", "30", "--qmax", "5", "--format", "text"], 0),
}


def matches(fixture: Path, out: bytes) -> bool:
    """Whether ``out`` is the fixture's bytes, or has its digest if it is a ``*.sha256`` file."""
    if fixture.name.endswith(".sha256"):
        return hashlib.sha256(out).hexdigest() == fixture.read_text().strip()
    return out == fixture.read_bytes()


def ci_main(table=None, golden_dir=GOLDEN_DIR) -> int:
    """Check each fixture of ``table`` (GOLDEN and CI_ONLY) in a fresh interpreter; 0 if all match, else 1.

    Each command runs as ``python -X dev -W error -m fibcheb.cli``, each
    ``verify`` once on one worker and once on two, and each run must end
    within 30 s with the fixture's exit code and output and nothing on stderr:
    development mode warns of a file left unclosed and, on 3.12+, of a fork
    while threads run.  One line per run names it, with the stderr of a failing run.
    """
    table = {**GOLDEN, **CI_ONLY} if table is None else table
    failed = 0
    for name, (argv, code) in sorted(table.items()):
        for command in [[*argv, "--workers", w] for w in "12"] if argv[0] == "verify" else [argv]:
            start = time.perf_counter()
            with subprocess.Popen([sys.executable, "-X", "dev", "-W", "error", "-m", "fibcheb.cli", *command],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True) as run:
                try:
                    out, err = run.communicate(timeout=30)
                    ok = run.returncode == code and not err and matches(golden_dir / name, out)
                    err = err.decode(errors="replace")
                except subprocess.TimeoutExpired:
                    # the run's forked workers share its process group: end them with it
                    os.killpg(run.pid, signal.SIGKILL)
                    run.communicate()
                    ok, err = False, "timed out after 30 s\n"
            print(f"{'ok' if ok else 'FAIL'} {time.perf_counter() - start:6.2f} s  {name}: {' '.join(command)}")
            if not ok:
                failed += 1
                print(err, end="")
    print(f"{failed} runs failed" if failed else "every run matched its fixture")
    return 1 if failed else 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_fixture(name, capsys):
    argv, expected_code = GOLDEN[name]
    code = main(argv)
    assert matches(GOLDEN_DIR / name, capsys.readouterr().out.encode())
    assert code == expected_code


def test_every_fixture_is_checked():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted([*GOLDEN, *CI_ONLY])


def test_every_command_parses_and_leaves_the_workers_to_ci_main():
    for argv, _ in {**GOLDEN, **CI_ONLY}.values():
        build_parser().parse_args(argv)
        assert "--workers" not in argv, argv


EVAL_DIGEST = hashlib.sha256(b"11/3\n").hexdigest()


@pytest.mark.parametrize("digest, code, result", [
    (EVAL_DIGEST, 0, 0),
    ("0" * 64, 0, 1),
    (EVAL_DIGEST, 2, 1),
], ids=["right", "wrong-digest", "wrong-exit-code"])
def test_ci_main_fails_a_wrong_digest_or_exit_code(tmp_path, capsys, digest, code, result):
    (tmp_path / "eval.sha256").write_text(digest + "\n")
    table = {"eval.sha256": (["eval", "--a", "-1", "--b", "2", "--c", "3", "--z", "-4"], code)}
    assert ci_main(table, tmp_path) == result
    assert ("FAIL" in capsys.readouterr().out) == bool(result)


if __name__ == "__main__":
    sys.exit(ci_main())
