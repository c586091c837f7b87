"""Two sets of benchmark runs of the same code, and how far they agree.

    python3 benchmarks/compare_sets.py

Run from the root of a source checkout.  For every workload of
``BENCHMARK.json`` it makes ten pairs of ``run.py --trace 0`` runs of
``run_seconds`` each, one run of each pair in set 1 (seeds 1000-1009) and one
in set 2 (seeds 2000-2009), alternating which set runs first, so that a slow
period of the host falls into both sets alike.  For each end-to-end metric and
workload it prints each set's median, quartiles and spread (the distance
between the quartiles as a share of the median), and the relative gap of set
2's median from set 1's, signed so that a positive gap is worse.  A row is
``ok`` when both spreads and the gap are within the metric's bound; the exit
code is 0 only when every row is ``ok``, every output passed its checks, and
the share of failed operations is the same in every run of a workload.  The
bounds in ``BENCHMARK.json`` are set from these numbers.  All values are also
written to ``benchmarks/results/compare-<time>.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets: list[dict[str, list]] = [{w: [] for w in workloads} for _ in range(2)]
    for workload in workloads:
        for i in range(RUNS):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                started = time.perf_counter()
                result = run_once(workload, 1000 * (s + 1) + i, spec["run_seconds"])
                sets[s][workload].append(result)
                print(f"set {s + 1} {workload} run {i + 1}: {time.perf_counter() - started:.1f} s, "
                      f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)

    table = {}
    all_ok = True
    print(f"{'workload':<11}{'metric':<13}{'bound':>7}  "
          + "  ".join(f"{'median' + str(s):>12}{'q1':>12}{'q3':>12}{'spread':>8}" for s in (1, 2))
          + f"{'gap':>8}  verdict")
    for workload in workloads:
        both = sets[0][workload] + sets[1][workload]
        shares = sorted({r["failed"] / r["attempted"] for r in both})
        correct = all(r["correct"] for r in both)
        all_ok &= correct and len(shares) == 1
        for name, meta in metrics.items():
            stats = [summary([r["metrics"][name]["value"] for r in runs[workload]]) for runs in sets]
            sign = 1 if meta["better"] == "lower" else -1
            gap = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            ok = gap <= meta["bound"] and all(st["spread"] <= meta["bound"] for st in stats)
            all_ok &= ok
            table.setdefault(workload, {})[name] = {"sets": stats, "gap": gap, "ok": ok}
            cells = "  ".join(
                f"{st['median']:>12.6g}{st['q1']:>12.6g}{st['q3']:>12.6g}{st['spread']:>8.3f}" for st in stats)
            print(f"{workload:<11}{name:<13}{meta['bound']:>7}  {cells}{gap:>8.3f}  {'ok' if ok else 'OUT'}")
        table[workload]["failed_shares"] = shares
        table[workload]["correct"] = correct
        print(f"{workload:<11}failed share per run: {shares}  correct: {correct}")

    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    out = os.path.join(BENCH_DIR, "results", f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w") as fh:
        json.dump({"seconds": spec["run_seconds"], "runs": RUNS, "table": table}, fh, indent=1)
    print(f"written to {out}")
    print(f"verdict: {'all ok' if all_ok else 'some OUT'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
