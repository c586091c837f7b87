"""The benchmark's workloads: the CLI calls one round makes, in order.

Inputs are fixed parameter grids; a round runs all of its calls in one fresh
interpreter, so caches start empty as they do for a user's CLI call and are
shared between the calls of one round as ``verify --suite all`` shares them.
"""

TABLE_JMAX = 70
SWEEP_JMAX = 18
IDENTITIES_JMAX = 36
QMAX = 5

DIRECTIONS = ("t-in-f", "u-in-f", "f-in-t", "f-in-u")
# runner.SUITES without "integrals", in the same order.
IDENTITY_SUITES = ("cor51", "cor52", "complex", "chain", "laurent", "trig", "fib2f1", "lemma", "connection")


def _verify(suite: str, jmax: int, workers: int) -> list[str]:
    return ["verify", "--suite", suite, "--jmax", str(jmax), "--qmax", str(QMAX),
            "--workers", str(workers), "--format", "json"]


WORKLOADS = {
    "table": [["table", "--direction", d, "--jmax", str(TABLE_JMAX), "--format", "csv"] for d in DIRECTIONS],
    "sweep": [_verify("all", SWEEP_JMAX, 1)],
    "sweep-2w": [_verify("all", SWEEP_JMAX, 2)],
    "identities": [_verify(s, IDENTITIES_JMAX, 1) for s in IDENTITY_SUITES],
}
