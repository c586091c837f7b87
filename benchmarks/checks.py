"""Output checks computed apart from the program.

Every expectation here comes from the benchmark's own arithmetic: integer
recurrences for the Fibonacci and Chebyshev polynomials, closed counts of each
suite's parameter grid, and the placement of the four audited errata.  Nothing
is imported from ``fibcheb``, so a fault in the program cannot also hide in the
check.

``check_call(argv, text)`` checks the output of one CLI call and returns a
``Verdict``: how many operations it holds (table rows or verify reports), how
many of them failed, and the list of problems found.  Every failure other than
the known ``trig`` fault is a problem, and a run is correct when no call has
one.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

# ``runner._run_trig`` holds a float residual to an absolute 1e-9, which the
# cancellation between terms of size about 2^j exceeds for every j >= 31.
TRIG_KNOWN_FAIL_FROM = 31

LAURENT_POINT_COUNT = 5


@dataclass
class Verdict:
    operations: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.operations += other.operations
        self.failed += other.failed
        self.problems += other.problems


def argv_value(argv: list[str], flag: str, default: str | None = None) -> str:
    if flag in argv:
        return argv[argv.index(flag) + 1]
    if default is None:
        raise ValueError(f"{flag} missing from {argv}")
    return default


def check_call(argv: list[str], text: str) -> Verdict:
    if argv[0] == "table":
        return check_table(argv_value(argv, "--direction"), int(argv_value(argv, "--jmax")), text)
    if argv[0] == "verify":
        return check_verify(
            argv_value(argv, "--suite", "all"),
            int(argv_value(argv, "--jmax", "20")),
            int(argv_value(argv, "--qmax", "5")),
            text,
        )
    raise ValueError(f"no check for command {argv[0]!r}")


# ---------------------------------------------------------------------------
# table: rebuild each source polynomial from the printed coefficients
# ---------------------------------------------------------------------------


def _family(kind: str, count: int) -> list[list[int]]:
    """The first ``count`` members of F, T or U as ascending integer lists."""
    # F_{n+2} = x F_{n+1} + F_n;  T_{n+2}, U_{n+2} = 2x P_{n+1} - P_n.
    seq, step, sign = {
        "F": ([[], [1]], 1, 1),
        "T": ([[1], [0, 1]], 2, -1),
        "U": ([[1], [0, 2]], 2, -1),
    }[kind]
    while len(seq) < count:
        hi, lo = seq[-1], seq[-2]
        nxt = [0] + [step * c for c in hi]
        for i, c in enumerate(lo):
            nxt[i] += sign * c
        while nxt and nxt[-1] == 0:
            nxt.pop()
        seq.append(nxt)
    return seq[:count]


def check_table(direction: str, jmax: int, text: str) -> Verdict:
    verdict = Verdict()
    source_kind = {"t-in-f": "T", "u-in-f": "U", "f-in-t": "F", "f-in-u": "F"}[direction]
    target_kind = {"t-in-f": "F", "u-in-f": "F", "f-in-t": "T", "f-in-u": "U"}[direction]
    jmin = 1 if target_kind == "F" else 0
    sources = _family(source_kind, jmax + 2)
    targets = _family(target_kind, jmax + 2)

    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["j", "m", "target", "coefficient"]:
        verdict.problems.append(f"table {direction}: bad header {rows[:1]}")
        return verdict
    body = rows[1:]
    verdict.operations = len(body)
    groups: dict[int, list[list[str]]] = {}
    for row in body:
        try:
            groups.setdefault(int(row[0]), []).append(row)
        except (ValueError, IndexError):
            verdict.failed += 1
            verdict.problems.append(f"table {direction}: malformed row {row}")
    if sorted(groups) != list(range(jmin, jmax + 1)):
        verdict.problems.append(f"table {direction}: j values {sorted(groups)[:3]}... != {jmin}..{jmax}")
    for j, group in groups.items():
        problem = _check_table_group(j, group, target_kind, sources, targets)
        if problem:
            verdict.failed += len(group)
            verdict.problems.append(f"table {direction} j={j}: {problem}")
    return verdict


def _check_table_group(j, group, target_kind, sources, targets) -> str:
    if j + 1 >= len(sources):
        return "j out of range"
    if any(len(row) != 4 for row in group):
        return "a row without four fields"
    expected_m = list(range(j // 2 + 1))
    if [row[1] for row in group] != [str(m) for m in expected_m]:
        return f"m column {[row[1] for row in group]} != {expected_m}"
    shift = 1 if target_kind == "F" else 0
    coeffs = []
    for m, (_, _, label, text) in zip(expected_m, group):
        if label != f"{target_kind}_{j - 2 * m + shift}":
            return f"target {label} at m={m}"
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            return f"coefficient {text!r} is not a rational"
        if str(value) != text:
            return f"coefficient {text!r} is not in lowest terms"
        coeffs.append(value)
    # Sum c_m * target_{j-2m+shift} over a common denominator, in integers.
    denom = math.lcm(*(c.denominator for c in coeffs))
    total = [0] * (j + 1)
    for m, c in zip(expected_m, coeffs):
        scale = c.numerator * (denom // c.denominator)
        for i, t in enumerate(targets[j - 2 * m + shift]):
            total[i] += scale * t
    source = sources[j + 1] if target_kind != "F" else sources[j]
    want = [denom * c for c in source] + [0] * (j + 1 - len(source))
    if total != want:
        return "coefficients do not rebuild the source polynomial"
    return ""


# ---------------------------------------------------------------------------
# verify: report grids, errata placement, and the known trig fault
# ---------------------------------------------------------------------------

SUITE_IDENTITIES = {
    "cor51": ("cor5.1-T", "cor5.1-U", "cor5.1-fib"),
    "cor52": ("cor5.2",),
    "complex": ("complex",),
    "chain": ("cor5.1-chain",),
    "laurent": ("laurent",),
    "trig": ("trig",),
    "fib2f1": ("fib-2f1",),
    "lemma": ("lemma",),
    "connection": ("connection",),
    "integrals": ("int-FT", "int-FU", "int-FF1", "int-FF2"),
}
ALL_SUITES = tuple(SUITE_IDENTITIES)


def grid_counts(suite: str, jmax: int, qmax: int) -> dict[str, int]:
    """Number of reports per identity for one suite's parameter grid."""
    J, Q = jmax, qmax
    pairs = (J + 1) * (J + 2) // 2
    counts = {
        "cor5.1-T": J,
        "cor5.1-U": J,
        "cor5.1-fib": J + 1,
        "cor5.2": (J + 1) * Q,
        "complex": J + 1,
        "cor5.1-chain": J + 1,
        "laurent": LAURENT_POINT_COUNT * (J + 1),
        "trig": J + 1,
        "fib-2f1": J,
        "lemma": sum(j // 2 for j in range(2, J + 1)),
        "connection": 2 * J + 2 * (J + 1),
        "int-FT": pairs,
        "int-FU": pairs,
        "int-FF1": pairs,
        "int-FF2": pairs,
    }
    suites = ALL_SUITES if suite == "all" else (suite,)
    return {name: counts[name] for s in suites for name in SUITE_IDENTITIES[s]}


def _key(identity: str, **params) -> tuple:
    return identity, tuple(sorted((k, str(v)) for k, v in params.items()))


def expected_non_pass(suite: str, jmax: int, qmax: int) -> dict[tuple, tuple[str, str | None]]:
    """(identity, params) -> (status, printed_residual or None) for every non-Pass report."""
    J, Q = jmax, qmax
    out: dict[tuple, tuple[str, str | None]] = {}
    suites = ALL_SUITES if suite == "all" else (suite,)
    if "cor51" in suites:
        for j in range(2, J + 1):
            out[_key("cor5.1-T", j=j)] = ("PaperErratum", str(Fraction(1, j) - 1))
    if "chain" in suites:
        for j in range(2, J + 1):
            out[_key("cor5.1-chain", j=j)] = ("PaperErratum", None)
    if "cor52" in suites:
        for j in range(1, J + 1):
            for q in range(2, Q + 1):
                out[_key("cor5.2", j=j, q=q)] = ("PaperErratum", None)
    if "trig" in suites:
        for j in range(TRIG_KNOWN_FAIL_FROM, J + 1):
            out[_key("trig", j=j)] = ("Fail", None)
    if "integrals" in suites:
        fib = _family("F", J + 2)
        for j in range(0, J + 1, 2):
            out[_key("int-FT", j=j, k=0)] = ("PaperErratum", str(-_first_kind_integral(fib[j + 1]) / 2))
        for j in range(J + 1):
            for k in range(j + 1):
                out[_key("int-FF1", j=j, k=k)] = ("Unevaluable", None)
                if k != j:
                    out[_key("int-FF2", j=j, k=k)] = ("Unevaluable", None)
    return out


def _first_kind_integral(coeffs: list[int]) -> Fraction:
    """Integral of p(x)/sqrt(1-x^2) over [-1, 1], in units of pi."""
    return sum(
        (Fraction(c * math.comb(i, i // 2), 2**i) for i, c in enumerate(coeffs) if i % 2 == 0),
        Fraction(0),
    )


def check_verify(suite: str, jmax: int, qmax: int, text: str) -> Verdict:
    verdict = Verdict()
    problems = verdict.problems
    label = f"verify {suite} jmax={jmax}"
    try:
        summary = json.loads(text)
        per_identity = summary["per_identity"]
        counts = summary["counts"]
        records = summary["records"]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{label}: unreadable output ({exc})")
        return verdict

    if summary.get("config") != {"suite": suite, "jmax": jmax, "qmax": qmax}:
        problems.append(f"{label}: config {summary.get('config')}")
    grid = grid_counts(suite, jmax, qmax)
    if set(per_identity) != set(grid):
        problems.append(f"{label}: identities {sorted(per_identity)} != {sorted(grid)}")
    for identity, want in grid.items():
        got = sum(per_identity.get(identity, {}).values())
        if got != want:
            problems.append(f"{label}: {identity} has {got} reports, grid has {want}")
    statuses = ("Pass", "PaperErratum", "Fail", "Unevaluable")
    for status in statuses:
        total = sum(bucket.get(status, 0) for bucket in per_identity.values())
        if counts.get(status) != total:
            problems.append(f"{label}: counts[{status}]={counts.get(status)} != {total}")
    verdict.operations = sum(counts.get(s, 0) for s in statuses)
    verdict.failed = counts.get("Fail", 0)

    expected = expected_non_pass(suite, jmax, qmax)
    seen = set()
    for rec in records:
        key = _key(rec.get("identity"), **rec.get("params", {}))
        seen.add(key)
        status = rec.get("status")
        want = expected.get(key)
        if want is None:
            problems.append(f"{label}: unexpected {status} for {key}")
            continue
        if status != want[0]:
            problems.append(f"{label}: {key} is {status}, expected {want[0]}")
            continue
        if status == "PaperErratum":
            if rec.get("corrected_residual") != "0":
                problems.append(f"{label}: {key} corrected residual {rec.get('corrected_residual')}")
            if want[1] is not None and rec.get("printed_residual") != want[1]:
                problems.append(
                    f"{label}: {key} printed residual {rec.get('printed_residual')}, expected {want[1]}"
                )
    missing = set(expected) - seen
    if missing:
        problems.append(f"{label}: {len(missing)} expected non-Pass reports missing, e.g. {min(missing)}")
    for identity, bucket in per_identity.items():
        for status in ("PaperErratum", "Fail", "Unevaluable"):
            listed = sum(1 for k, v in expected.items() if k[0] == identity and v[0] == status)
            if bucket.get(status, 0) != listed:
                problems.append(f"{label}: {identity} {status}={bucket.get(status, 0)}, expected {listed}")
    return verdict
