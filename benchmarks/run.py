"""fibcheb benchmark: CLI workloads end to end, or a per-layer trace.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each round runs one workload's CLI
calls in a fresh interpreter (``round.py``) and every output is checked with
``checks.py``.  Rounds repeat until the next one would end after ``--seconds``
(at least three rounds).

``--trace 0`` prints the end-to-end metrics, each the median over the run:
``wall_s``, ``cpu_s`` and ``items_per_s`` of a round, ``peak_rss_mb``, and
``setup_s`` over at least 20 cold starts of ``python3 -c "import fibcheb.cli"``
spread over the run.  Times are scaled to the reference pace of the host
(``pace.py``); the unscaled samples are kept in the result file.
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones (see ``layers.py``).

The inputs are fixed grids (``workloads.py``); ``--seed`` is recorded and
changes nothing.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result, and with
``--trace 1`` the full span table, are also written under
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import pace
from checks import Verdict, argv_value, check_call
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
MIN_ROUNDS = 3
MIN_PROBES = 20
CHILD_TIMEOUT_S = 170
PROBE = "import fibcheb.cli, time; t = time.perf_counter(); print(repr(t), fibcheb.cli.__file__)"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # Fixed string hashing keeps set and dict layouts the same in every round.
    env["PYTHONHASHSEED"] = "0"
    env.pop("FIBCHEB_WORKERS", None)
    return env


def run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run a child in its own session; on timeout kill it with its pool workers."""
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd)} ran longer than {CHILD_TIMEOUT_S} s") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def probe_setup(root: str, env: dict) -> tuple[float, float]:
    """Seconds from spawning an interpreter to the end of ``import fibcheb.cli``,
    as measured and scaled to the reference pace."""
    before = pace.loop_seconds()
    start = time.perf_counter()
    proc = run_child([sys.executable, "-c", PROBE], env)
    if proc.returncode != 0:
        raise BenchError(f"cannot import fibcheb from {root}/src:\n{proc.stderr[-2000:]}")
    done, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(os.path.join(root, "src") + os.sep):
        raise BenchError(f"fibcheb was imported from {path}, not from {root}/src")
    seconds = float(done) - start
    return seconds, pace.scale(seconds, before, pace.loop_seconds())


def run_round(workload: str, work_dir: str, env: dict, trace: bool) -> dict:
    out = tempfile.mkdtemp(dir=work_dir)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "round.py"), "--workload", workload, "--out", out]
    proc = run_child(cmd + (["--trace"] if trace else []), env)
    if proc.returncode != 0:
        raise BenchError(f"round of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(os.path.join(out, "round.json")) as fh:
        result = json.load(fh)
    result["outputs"] = []
    for i in range(len(WORKLOADS[workload])):
        with open(os.path.join(out, f"out-{i}.txt")) as fh:
            result["outputs"].append(fh.read())
    return result


class OutputChecker:
    """Checks every round's outputs; identical outputs are checked once."""

    def __init__(self, calls: list[list[str]]):
        self.calls = calls
        self.verdicts: dict[tuple[int, str], Verdict] = {}
        self.first: list[str] | None = None
        self.problems: list[str] = []

    def check_round(self, result: dict) -> Verdict:
        total = Verdict()
        if self.first is None:
            self.first = result["outputs"]
        elif result["outputs"] != self.first:
            self.problems.append("outputs differ between rounds of the same workload")
        for i, (argv, text, code) in enumerate(zip(self.calls, result["outputs"], result["codes"])):
            key = (i, hashlib.sha256(text.encode()).hexdigest())
            if key not in self.verdicts:
                verdict = check_call(argv, text)
                want_code = 1 if verdict.failed and argv[0] == "verify" else 0
                if code != want_code:
                    verdict.problems.append(f"{' '.join(argv)} exited {code}, expected {want_code}")
                self.verdicts[key] = verdict
                self.problems += verdict.problems
            total.add(self.verdicts[key])
        return total


def compare_to_reference(checker: OutputChecker, one_worker: list[str]) -> None:
    """The pool must not change a single byte of the report."""
    if one_worker != checker.first:
        checker.problems.append("sweep-2w output is not byte-identical to the one-worker sweep")


def end_to_end(rounds: list[dict], ops: list[int], probes: list[tuple[float, float]]) -> dict:
    # Scaled to the reference pace, a round's time depends on the program and
    # hardly on the host's slow periods; the median over the run then smooths
    # what the pace loops on either side of a call did not catch.  CPU time is
    # scaled by its round's own factor.
    return {
        "wall_s": statistics.median(r["paced_wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] * r["paced_wall_s"] / r["wall_s"] for r in rounds),
        "setup_s": statistics.median(paced for _seconds, paced in probes),
        "items_per_s": statistics.median(n / r["paced_wall_s"] for n, r in zip(ops, rounds)),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in rounds),
    }


def per_layer(traced: list[dict], plain: list[dict], workload: str) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the merged span table of the first traced round.

    Every span of ``layers.SPANS`` gives ``<span>.calls`` and ``<span>.self_s``,
    every counter of the trace ``<counter>`` (a count); the rest are derived here.
    """
    workers = int(argv_value(WORKLOADS[workload][0], "--workers", "1"))
    samples: dict[str, tuple[list, str]] = {}

    def put(name, value, unit):
        samples.setdefault(name, ([], unit))[0].append(value)

    for r in traced:
        spans, counts = r["trace"]["spans"], r["trace"]["counts"]
        for span, (calls, _total, self_s, _longest) in spans.items():
            put(f"{span}.calls", calls, "count")
            put(f"{span}.self_s", self_s, "s")
        for name, value in counts.items():
            put(name, value, "count")
        calls = spans["hypergeometric.eval_2f1"][0]
        hits = calls - counts["hypergeometric.eval_2f1.misses"]
        put("hypergeometric.eval_2f1.hit_ratio", hits / calls if calls else 0.0, "ratio")
        _calls, busy, _self_s, longest = spans["runner.execute_task"]
        put("runner.execute_task.busy_s", busy, "s")
        put("runner.task.max_s", longest, "s")
        put("runner.pool.idle_s", workers * spans["runner.sweep"][1] - busy, "s")
        put("trace.uncovered_s", r["wall_s"] - r["trace"]["top_s"], "s")
    metrics = {name: (statistics.median(values), unit) for name, (values, unit) in samples.items()}
    overhead = (statistics.median(r["paced_wall_s"] for r in traced)
                - statistics.median(r["paced_wall_s"] for r in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, traced[0]["trace"]["spans"]


def measure(args, root: str, work_dir: str) -> dict:
    env = child_env(root)
    probe_setup(root, env)  # warm-up: compiles the checkout's bytecode
    checker = OutputChecker(WORKLOADS[args.workload])
    plain, traced, ops, probes = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        began = time.perf_counter()
        batch = [False, True] if args.trace else [False]
        if not args.trace:
            probes.append(probe_setup(root, env))
        for trace in batch:
            result = run_round(args.workload, work_dir, env, trace)
            verdict = checker.check_round(result)
            attempted += verdict.operations
            failed += verdict.failed
            (traced if trace else plain).append(result)
            if not trace:
                ops.append(verdict.operations)
        cost = time.perf_counter() - began
        if len(plain) >= MIN_ROUNDS and time.perf_counter() + cost > deadline:
            break
    if not args.trace:
        while len(probes) < MIN_PROBES:
            probes.append(probe_setup(root, env))

    if args.workload == "sweep-2w":
        compare_to_reference(checker, run_round("sweep", work_dir, env, False)["outputs"])

    report = {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(plain) + len(traced),
        "problems": checker.problems[:20],
    }
    if args.trace:
        metrics, spans = per_layer(traced, plain, args.workload)
        report["spans"] = spans
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(plain, ops, probes).items()}
        report["samples"] = {
            "wall_s": [r["wall_s"] for r in plain],
            "paced_wall_s": [r["paced_wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "setup_s": [seconds for seconds, _paced in probes],
            "paced_setup_s": [paced for _seconds, paced in probes],
        }
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fibcheb", "cli.py")):
        print(f"error: {root} holds no fibcheb source tree (src/fibcheb)", file=sys.stderr)
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as work_dir:
            report = measure(args, root, work_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS_DIR, f"{stem}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, **report}, fh, indent=1)
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in report["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
