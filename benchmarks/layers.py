"""Per-layer spans and counters, installed from outside the program.

``Tracer.install()`` replaces public functions and methods of the ``fibcheb``
modules with timing wrappers.  A function bound into other modules by
``from ... import`` is replaced in every module that holds it, and methods are
replaced under every class attribute that aliases them (``__rmul__`` and
``__mul__``).  The wrappers sit outside the ``lru_cache`` objects, so
``cache_info()`` still counts hits and misses.

Spans are aggregated in memory, per name: calls, total time, self time (the
span's duration minus the time its child spans cover) and the longest single
call.  Each thread keeps its own span stack, because the process pool's
manager thread unpickles results (and so builds polynomials) while the main
thread waits.  Pool workers are forked after the wrappers are in place; each
one starts from zeroed counters and writes its own totals to
``<dump_dir>/worker-<pid>.json`` when it exits, and ``collect()`` merges them.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import threading
import time

# span name -> (module, attribute path) of every callable it times.
SPANS = {
    "hypergeometric.eval_2f1": [("hypergeometric", "eval_2f1")],
    "hypergeometric.hyp2f1": [("hypergeometric", "hyp2f1")],
    "polynomials.init": [("polynomials", "Polynomial.__init__")],
    "polynomials.mul": [("polynomials", "Polynomial.__mul__")],
    "polynomials.addsub": [
        ("polynomials", "Polynomial.__add__"),
        ("polynomials", "Polynomial.__sub__"),
        ("polynomials", "Polynomial.__rsub__"),
    ],
    "polynomials.eval": [("polynomials", "Polynomial.__call__")],
    "polynomials.derivative": [("polynomials", "Polynomial.derivative")],
    "polynomials.eval_float_exact": [("polynomials", "Polynomial.eval_float_exact")],
    "scalars.gaussian": [
        ("scalars", f"GaussianRational.{op}")
        for op in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                   "__truediv__", "__rtruediv__", "__pow__")
    ],
    "sequences.family": [
        ("sequences", "fibonacci_poly"),
        ("sequences", "chebyshev_t"),
        ("sequences", "chebyshev_u"),
    ],
    "sequences.fibonacci_deriv_at_1": [("sequences", "fibonacci_deriv_at_1")],
    "connection.expand": [("connection", "expand")],
    "connection.oracle_expand": [("connection", "oracle_expand")],
    "connection.reconstruct": [("connection", "Expansion.reconstruct")],
    "identities.verify": [
        ("identities", name)
        for name in ("verify_cor_sum_T", "verify_cor_sum_U", "verify_fib_expressions",
                     "verify_2f1_chain", "verify_complex_identities", "verify_laurent_identity",
                     "verify_trig_identity", "verify_derivative_corollaries",
                     "verify_fib_2f1_representations")
    ],
    "integrals.moments": [("integrals", "weighted_integral")],
    "integrals.by_expansion": [("integrals", "weighted_integral_by_expansion")],
    "integrals.quadrature": [
        ("integrals", "quadrature_deviation"),
        ("integrals", "quadrature_check"),
    ],
    "integrals.printed": [
        ("integrals", name)
        for name in ("printed_fib_cheb_t", "printed_fib_cheb_u",
                     "printed_fib_fib_second", "printed_fib_fib_first")
    ],
    "report.make_report": [("report", "make_report")],
    "report.to_dict": [("report", "Report.to_dict")],
    "runner.sweep": [("runner", "run_sweep")],
    "runner.build_tasks": [("runner", "build_tasks")],
    "runner.execute_task": [("runner", "execute_task")],
    "runner.summarize_render": [
        ("runner", "summarize"),
        ("runner", "render_json"),
        ("runner", "render_text"),
    ],
    # The command handlers: argument checks, row building and writing output.
    "cli.format": [("cli", "_cmd_table"), ("cli", "_cmd_verify")],
}

# Cached callables whose misses are read from cache_info() per process.
CACHED = {
    "sequences.family": [("sequences", "fibonacci_poly"), ("sequences", "chebyshev_t"),
                         ("sequences", "chebyshev_u")],
    "connection.expand": [("connection", "expand")],
}

COUNTERS = ("hypergeometric.eval_2f1.misses", "hypergeometric.eval_2f1.terms",
            "polynomials.init.coeffs", "connection.oracle_expand.steps")


def _resolve(module, path):
    owner = module
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.spans: dict[str, list] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.top_s = 0.0
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._cache_base: dict[str, int] = {}
        self._caches: dict[str, list] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import fibcheb  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "fibcheb" or n.startswith("fibcheb.")]
        for span, targets in SPANS.items():
            record = self.spans.setdefault(span, [0, 0.0, 0.0, 0.0])
            for mod_name, path in targets:
                owner, leaf = _resolve(sys.modules[f"fibcheb.{mod_name}"], path)
                original = getattr(owner, leaf)
                wrapper = self._wrap(record, self._counting(span, original))
                functools.update_wrapper(wrapper, original)
                for attr in ("cache_info", "cache_clear"):
                    if hasattr(original, attr):
                        setattr(wrapper, attr, getattr(original, attr))
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
        for span, targets in CACHED.items():
            self._caches[span] = [
                getattr(sys.modules[f"fibcheb.{m}"], name).cache_info for m, name in targets
            ]
        self._cache_base = self._cache_misses()
        multiprocessing.util.register_after_fork(self, Tracer._enter_worker)

    def _counting(self, span, original):
        counts = self.counts
        if span == "hypergeometric.eval_2f1":
            info = original.cache_info

            def eval_2f1(series):
                before = info().misses
                value = original(series)
                if info().misses != before:
                    counts["hypergeometric.eval_2f1.misses"] += 1
                    counts["hypergeometric.eval_2f1.terms"] += series.termination_index() + 1
                return value

            return eval_2f1
        if span == "polynomials.init":

            def init(self, coeffs=()):
                coeffs = tuple(coeffs)
                counts["polynomials.init.coeffs"] += len(coeffs)
                original(self, coeffs)

            return init
        if span == "connection.oracle_expand":

            def oracle_expand(p, basis):
                counts["connection.oracle_expand.steps"] += p.degree + 1
                return original(p, basis)

            return oracle_expand
        return original

    def _wrap(self, record, fn):
        stacks = self._stacks
        clock = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            thread = ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks[thread] = []
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - covered
                if elapsed > record[3]:
                    record[3] = elapsed
                if stack:
                    stack[-1] += elapsed
                elif thread == self._main:
                    self.top_s += elapsed

        return wrapper

    # -- pool workers --------------------------------------------------------

    def _cache_misses(self) -> dict[str, int]:
        return {span: sum(info().misses for info in infos) for span, infos in self._caches.items()}

    def _enter_worker(self) -> None:
        for record in self.spans.values():
            record[:] = [0, 0.0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0
        self._stacks.clear()
        self.top_s = 0.0
        self._main = threading.get_ident()
        self._cache_base = self._cache_misses()
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        now = self._cache_misses()
        counts = dict(self.counts)
        for span, base in self._cache_base.items():
            counts[f"{span}.misses"] = now[span] - base
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": counts}

    def collect(self) -> dict:
        """This process's totals plus those of every pool worker that exited."""
        merged = self.snapshot()
        for name in sorted(os.listdir(self.dump_dir)):
            if not name.startswith("worker-"):
                continue
            with open(os.path.join(self.dump_dir, name)) as fh:
                worker = json.load(fh)
            for k, (calls, total, self_s, longest) in worker["spans"].items():
                rec = merged["spans"][k]
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
                rec[3] = max(rec[3], longest)
            for k, v in worker["counts"].items():
                merged["counts"][k] += v
        merged["top_s"] = self.top_s
        return merged
