"""Span tracer for one ``regimelq`` CLI invocation, installed from outside the package.

Run as ``python3 bench/tracer.py SPANS.json -- <regimelq CLI args>``: it wraps
the package's public entry points, runs ``regimelq.cli.main`` on the given
arguments, writes every span and count to SPANS.json and exits with the
CLI's exit code.  :func:`layer_metrics` turns that file into the per-layer
metrics.

A wrapper replaces the name in every module that looks it up, because
``from .chain import sample_chain_paths`` binds the function into the
caller's namespace.  Each span records (id, name, start, end, parent id,
thread id); spans stay in memory until the run ends.  A span opened on a
worker thread with nothing open on that thread gets as parent the innermost
span open on the main thread, which is the chunk loop that started the
worker.  Entry points that no longer exist are listed under ``missing`` so
their metrics are reported as absent, not as zero.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time

import numpy as np


class Tracer:
    """Spans and exact counts of one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._gain_keys: set[bytes] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        """Wrap ``fn`` so that every call records a span named ``name``.

        ``counter`` is a count name bumped once per call, or a callable that
        receives the call's arguments bound by name, defaults applied.
        """
        if callable(counter):
            signature = inspect.signature(fn)

            def count(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments)
        elif counter is not None:
            count = lambda args, kwargs: self.add(counter)
        else:
            count = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))

        return wrapper

    def patch(self, name: str, where: list[str], counter=None) -> None:
        """Wrap the entry point ``where[0]`` and rebind it wherever ``where`` lists it.

        Entries read ``module:attr`` or ``module:Class.method``; the first is
        the definition, the rest are modules that imported the name.
        """
        owner, attr = _resolve(where[0])
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = self.wrap(name, original, counter)
        for entry in where:
            target, leaf = _resolve(entry)
            if getattr(target, leaf, None) is original:
                setattr(target, leaf, wrapped)

    def count_gains(self, args: dict) -> None:
        """Count gain-table calls and the distinct (law, times) pairs among them."""
        self.add("riccati.gains_calls")
        grid = args["self"].grid
        digest = hashlib.sha256()
        for arr in (grid.times, grid.P, grid.Theta, args["times"]):
            digest.update(np.asarray(arr, dtype=np.float64).tobytes())
        key = digest.digest()
        with self._lock:
            new = key not in self._gain_keys
            self._gain_keys.add(key)
        if new:
            self.add("riccati.gains_distinct")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)


def _resolve(entry: str):
    """(object owning the named attribute or None, attribute name)."""
    mod_name, attr_path = entry.split(":")
    *parents, leaf = attr_path.split(".")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None, leaf
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, leaf


def install(tracer: Tracer) -> None:
    """Wrap every entry point the per-layer metrics time or count."""
    chunk_size = getattr(importlib.import_module("regimelq.simulate"), "CHUNK_SIZE", None)
    if chunk_size is None:
        tracer.missing.append("simulate.chunks")

    def chunk_counts(n_paths: int, steps: int) -> None:
        tracer.add("simulate.path_steps", steps)
        if chunk_size is not None:
            tracer.add("simulate.chunks", math.ceil(n_paths / chunk_size))

    def on_mc(a):
        variants = 1 if a["control_b"] is None else 2
        chunk_counts(a["n_paths"], a["n_paths"] * a["N"] * variants)

    def on_refine(a):
        # every path is stepped on the N grid and on the 2N grid
        chunk_counts(a["n_paths"], a["n_paths"] * 3 * a["N"])

    def on_record(a):
        tracer.add("simulate.record_calls")
        tracer.add("simulate.path_steps", a["N"])

    def on_regression(a):
        bundle = a["bundle"]
        tracer.add("bsde.nodes", bundle.num_steps)
        tracer.add("bsde.bundle_bytes", sum(
            getattr(bundle, field).nbytes for field in ("times", "y", "dW", "regimes")
        ))

    table = [
        ("chain.sample", ["chain:sample_chain_paths", "simulate:sample_chain_paths",
                          "bsde:sample_chain_paths"],
         lambda a: tracer.add("chain.paths_sampled", a["n_paths"])),
        ("chain.project", ["chain:ChainPath.regimes_on_grid"], "chain.project_calls"),
        ("simulate.mc", ["simulate:mc_run", "meanvar:mc_run"], on_mc),
        ("simulate.mc", ["simulate:paired_refinement_run", "verify:paired_refinement_run",
                         "meanvar:paired_refinement_run"], on_refine),
        ("simulate.record", ["simulate:simulate_closed_loop", "verify:simulate_closed_loop",
                             "cli:simulate_closed_loop"], on_record),
        ("riccati.solve", ["riccati:solve_riccati", "verify:solve_riccati",
                           "cli:solve_riccati", "meanvar:solve_riccati"], None),
        ("riccati.lyapunov", ["verify:lyapunov_solve"], None),
        ("riccati.gains", ["riccati:FeedbackLaw.gains_at_times"], tracer.count_gains),
        ("riccati.pointwise_gain", ["riccati:FeedbackLaw.gain"],
         "riccati.pointwise_gain_calls"),
        ("verify.value_identity", ["verify:value_identity_check"], None),
        ("verify.stationarity", ["verify:stationarity_check"], None),
        ("verify.perturbation", ["verify:perturbation_test"], None),
        ("verify.lyapunov_identity", ["verify:lyapunov_identity_check"], None),
        ("verify.convexity_probe", ["verify:convexity_probe"], None),
        ("verify.richardson", ["verify:richardson_allowance"], None),
        ("bsde.paths", ["bsde:generate_training_paths", "cli:generate_training_paths"],
         lambda a: tracer.add("bsde.path_steps", a["M"] * a["N"])),
        ("bsde.regression", ["bsde:backward_regression_solve",
                             "cli:backward_regression_solve"], on_regression),
        ("model.ingest", ["model:problem_from_config", "cli:problem_from_config"], None),
        ("model.ingest", ["bsde:model_from_config", "cli:model_from_config"], None),
    ]
    for name, where, counter in table:
        tracer.patch(name, ["regimelq." + entry for entry in where], counter)


# --- analysis -------------------------------------------------------------

# span name -> busy-time metric (durations summed over calls and worker lanes)
BUSY_METRICS = {
    "chain.sample": "chain.sample_s",
    "chain.project": "chain.project_s",
    "simulate.mc": "simulate.mc_s",
    "simulate.record": "simulate.record_s",
    "riccati.solve": "riccati.solve_s",
    "riccati.lyapunov": "riccati.lyapunov_s",
    "riccati.gains": "riccati.gains_s",
    "verify.value_identity": "verify.value_identity_s",
    "verify.stationarity": "verify.stationarity_s",
    "verify.perturbation": "verify.perturbation_s",
    "verify.lyapunov_identity": "verify.lyapunov_identity_s",
    "verify.convexity_probe": "verify.convexity_probe_s",
    "verify.richardson": "verify.richardson_s",
    "bsde.paths": "bsde.paths_s",
    "bsde.regression": "bsde.regression_s",
    "model.ingest": "model.ingest_s",
}

# exact count -> span (or count) whose absence makes the count absent
COUNT_METRICS = {
    "chain.paths_sampled": "chain.sample",
    "chain.project_calls": "chain.project",
    "simulate.path_steps": "simulate.mc",
    "simulate.chunks": "simulate.chunks",
    "simulate.record_calls": "simulate.record",
    "riccati.gains_calls": "riccati.gains",
    "riccati.gains_distinct": "riccati.gains",
    "riccati.pointwise_gain_calls": "riccati.pointwise_gain",
    "bsde.path_steps": "bsde.paths",
}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(spans: list, name: str) -> float:
    """Summed self time of the spans called ``name``.

    Self time is a span's duration minus the part of its interval covered by
    the union of its child spans, so two worker lanes whose children overlap
    in time are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    total = 0.0
    for sid, span_name, start, end, _, _ in spans:
        if span_name == name:
            total += (end - start) - _covered(children.get(sid, []), start, end)
    return total


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; absent entry points are left out."""
    spans, counts, missing = trace["spans"], trace["counts"], set(trace["missing"])
    busy = dict.fromkeys(BUSY_METRICS, 0.0)
    for _, name, start, end, _, _ in spans:
        busy[name] = busy.get(name, 0.0) + end - start
    out = {metric: busy[name] for name, metric in BUSY_METRICS.items() if name not in missing}
    out.update({
        metric: float(counts.get(metric, 0))
        for metric, source in COUNT_METRICS.items() if source not in missing
    })
    if "simulate.mc" not in missing:
        out["simulate.kernel_self_s"] = self_time(spans, "simulate.mc")
    if "bsde.regression" not in missing:
        nodes = counts.get("bsde.nodes", 0)
        out["bsde.regression_s_per_node"] = busy["bsde.regression"] / nodes if nodes else 0.0
        out["bsde.bundle_mb"] = counts.get("bsde.bundle_bytes", 0) / 2**20
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <regimelq CLI args>", file=sys.stderr)
        return 2
    tracer = Tracer()
    import regimelq.cli

    install(tracer)
    try:
        return regimelq.cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
