"""One round of a workload, run in a fresh interpreter by ``run.py``.

    PYTHONPATH=src python3 benchmarks/round.py --workload sweep --out DIR [--trace]

Runs every CLI call of the workload through ``fibcheb.cli.main`` with stdout
captured, and times the fixed loop of ``pace.py`` before the first call,
between calls and after the last.  It then writes each call's output to
``DIR/out-<i>.txt`` and the round's measurements to ``DIR/round.json``: wall
time of the calls, the same scaled call by call to the reference pace by the
loops on either side of each call, CPU time of the calls and of the pool
workers they joined, and the peak resident set of any of them.  With
``--trace`` the layer wrappers are installed first and the merged span totals
are written too.
"""

import fibcheb.cli  # noqa: I001  (imported first: the set-up every CLI call pays)

import argparse
import contextlib
import io
import json
import os
import resource
import time

import pace
from layers import Tracer
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer(args.out)
        tracer.install()

    outputs, codes = [], []
    wall = paced = cpu = 0.0
    loop = pace.loop_seconds()
    for argv in WORKLOADS[args.workload]:
        buffer = io.StringIO()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            codes.append(fibcheb.cli.main(argv))
        seconds = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        outputs.append(buffer.getvalue())
        wall += seconds
        cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        next_loop = pace.loop_seconds()
        paced += pace.scale(seconds, loop, next_loop)
        loop = next_loop
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "wall_s": wall,
        "paced_wall_s": paced,
        "cpu_s": cpu + workers.ru_utime + workers.ru_stime,
        "peak_rss_kb": max(own.ru_maxrss, workers.ru_maxrss),
        "codes": codes,
    }
    if tracer is not None:
        result["trace"] = tracer.collect()
    for i, text in enumerate(outputs):
        with open(os.path.join(args.out, f"out-{i}.txt"), "w") as fh:
            fh.write(text)
    with open(os.path.join(args.out, "round.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
