"""Golden outputs: the CLI must reproduce each fixture under tests/golden byte for byte.

A fixture named ``*.sha256`` holds the SHA-256 digest of an output too large
to keep verbatim.  A change to a fixture is a change to the program's output;
make it on purpose, in a change of its own, and explain the diff.
"""

import hashlib
from pathlib import Path

import pytest

from fibcheb.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# fixture file -> (argv, exit code)
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

# Digests of outputs that take a second or more each, too slow for the tier-1
# suite; the CI workflow checks them (.github/workflows/tests.yml).
CI_ONLY = [f"table_{direction}_j900.csv.sha256" for direction in ("f-in-t", "f-in-u")]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_fixture(name, capsys):
    argv, expected_code = GOLDEN[name]
    code = main(argv)
    out = capsys.readouterr().out
    if name.endswith(".sha256"):
        assert hashlib.sha256(out.encode()).hexdigest() == (GOLDEN_DIR / name).read_text().strip()
    else:
        assert out.encode() == (GOLDEN_DIR / name).read_bytes()
    assert code == expected_code


def test_every_fixture_is_checked():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted([*GOLDEN, *CI_ONLY])
