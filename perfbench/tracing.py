"""Spans around the public calls into each ``wl1min`` layer, for the traced run.

The wrappers are installed from the benchmark's own code by replacing module
attributes where the calling module looks them up (``wl1min.bench.solve``
is the name ``bench`` calls, ``wl1min.solver.ista_stage`` the one ``solve``
calls), and every attribute is put back afterwards.  No library code changes.
Per-iteration functions such as ``soft_threshold`` are left alone; iteration
counts come from the ``InnerResult`` that ``ista_stage`` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import defaultdict


def _inner(args, kwargs, result) -> dict:
    inner = result[1]
    return {"iters": inner.iterations, "converged": int(inner.converged), "stages": 1}


def _vertices(args, kwargs, result) -> dict:
    basis = args[0] if args else kwargs["basis"]
    n, d = basis.shape
    return {"vertices": int(result.vertices.shape[0]), "zero_sets": math.comb(n, d - 1) if d else 0}


def _ric_subsets(args, kwargs, result) -> dict:
    phi, k = args[0], (args[1] if len(args) > 1 else kwargs["k"])
    return {"subsets": math.comb(len(phi[0]), k)}


def _trials(args, kwargs, result) -> dict:
    return {"trials": len(result)}


# (module, attribute, span name, observer of the call's arguments and result)
PATCH_POINTS = (
    ("wl1min.bench", "run_experiment", "bench.run_experiment", _trials),
    ("wl1min.bench", "generate_problem", "bench.generate_problem", None),
    ("wl1min.bench", "solve", "solver.solve", None),
    ("wl1min.solver", "solve", "solver.solve", None),
    ("wl1min.solver", "largest_gram_eigenvalue", "linops.largest_gram_eigenvalue", None),
    ("wl1min.solver", "mu_schedule", "solver.mu_schedule", None),
    ("wl1min.solver", "ista_stage", "solver.ista_stage", _inner),
    ("wl1min.solver", "update_weights_nullspace", "solver.weight_update", None),
    ("wl1min.solver", "update_weights_classic", "solver.weight_update", None),
    ("wl1min.certificates", "kernel_basis", "linops.kernel_basis", None),
    ("wl1min.certificates", "l1ball_section_vertices", "certificates.l1ball_section_vertices", _vertices),
    ("wl1min.certificates", "check_nsp", "certificates.check_nsp", None),
    ("wl1min.certificates", "check_wnsp", "certificates.check_wnsp", None),
    ("wl1min.certificates", "dominant_support", "certificates.dominant_support", None),
    ("wl1min.certificates", "downweight_interval", "certificates.downweight_interval", None),
    ("wl1min.certificates", "compute_ric", "certificates.compute_ric", _ric_subsets),
    ("wl1min.certificates", "l1_min_exact", "certificates.l1_min_exact", None),
    ("wl1min.linops", "read_matrix", "linops.read_matrix", None),
    ("wl1min.cli", "main", "cli.main", None),
)

# (name, unit, better) of every per-layer metric; see README.md for what
# end-to-end metric each should move, and on which workload.
PER_LAYER = (
    ("solver.solve.calls", "count", "lower"),
    ("solver.solve.s", "s", "lower"),
    ("solver.solve.self_s", "s", "lower"),
    ("solver.ista_stage.s", "s", "lower"),
    ("solver.ista_iters", "count", "lower"),
    ("solver.us_per_iter", "us", "lower"),
    ("solver.mu_schedule.s", "s", "lower"),
    ("solver.weight_update.s", "s", "lower"),
    ("solver.stage_converged_ratio", "ratio", "higher"),
    ("solver.cap_hits", "count", "lower"),
    ("linops.largest_gram_eigenvalue.calls", "count", "lower"),
    ("linops.largest_gram_eigenvalue.s", "s", "lower"),
    ("linops.kernel_basis.calls", "count", "lower"),
    ("linops.kernel_basis.s", "s", "lower"),
    ("linops.read_matrix.calls", "count", "lower"),
    ("linops.read_matrix.s", "s", "lower"),
    ("certificates.l1_min_exact.calls", "count", "lower"),
    ("certificates.l1_min_exact.s", "s", "lower"),
    ("certificates.l1ball_section_vertices.calls", "count", "lower"),
    ("certificates.l1ball_section_vertices.s", "s", "lower"),
    ("certificates.vertices", "count", "lower"),
    ("certificates.zero_sets", "count", "lower"),
    ("certificates.enumerations_per_certify", "count", "lower"),
    ("certificates.check_nsp.s", "s", "lower"),
    ("certificates.check_wnsp.s", "s", "lower"),
    ("certificates.dominant_support.calls", "count", "lower"),
    ("certificates.dominant_support.s", "s", "lower"),
    ("certificates.downweight_interval.s", "s", "lower"),
    ("certificates.compute_ric.s", "s", "lower"),
    ("certificates.ric_subsets", "count", "lower"),
    ("bench.trials", "count", "higher"),
    ("bench.generate_problem.s", "s", "lower"),
    ("bench.trial_self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span, op.

    Spans stay in memory until the run ends.  ``op`` is set by the caller
    before each op so that every span carries the op it belongs to.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else -1, "op": self.op}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                span["counts"] = observe(args, kwargs, result)
            return result

        return traced

    def targets(self):
        """``(module, attribute, wrapper)`` for every patch point."""
        out = []
        for module_name, attr, name, observe in PATCH_POINTS:
            module = importlib.import_module(module_name)
            out.append((module, attr, self.wrap(name, getattr(module, attr), observe)))
        return out


def span_cost_us(calls: int = 20000) -> float:
    """Microseconds one wrapped call adds over a bare call (best of three)."""

    def bare():
        return None

    wrapped = Tracer().wrap("probe", bare)

    def seconds(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    cost = min(seconds(wrapped) for _ in range(3)) - min(seconds(bare) for _ in range(3))
    return 1e6 * cost / calls


@contextlib.contextmanager
def patched(targets):
    """Set each ``module.attribute`` to its replacement; restore all on exit."""
    saved = []
    try:
        for module, attr, replacement in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list[dict], ops: int) -> dict:
    """Every ``PER_LAYER`` metric over the spans of ops ``0 .. ops-1``.

    Times are totals in seconds over those ops; a layer's self time is its
    spans' durations minus the time their child spans cover.
    """
    kept = [(i, s) for i, s in enumerate(spans) if 0 <= s["op"] < ops]
    child_time: dict[int, float] = defaultdict(float)
    for _, s in kept:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    trial_solve = 0.0
    for i, s in kept:
        duration = s["end"] - s["start"]
        calls[s["name"]] += 1
        total[s["name"]] += duration
        own[s["name"]] += duration - child_time[i]
        for key, value in s.get("counts", {}).items():
            counts[key] += value
        if s["name"] == "solver.solve" and s["parent"] >= 0 and spans[s["parent"]]["name"] == "bench.run_experiment":
            trial_solve += duration

    values = {
        "solver.solve.self_s": own["solver.solve"],
        "solver.ista_iters": counts["iters"],
        "solver.us_per_iter": 1e6 * total["solver.ista_stage"] / counts["iters"] if counts["iters"] else 0.0,
        "solver.stage_converged_ratio": counts["converged"] / counts["stages"] if counts["stages"] else 0.0,
        "solver.cap_hits": counts["stages"] - counts["converged"],
        "certificates.vertices": counts["vertices"],
        "certificates.zero_sets": counts["zero_sets"],
        "certificates.enumerations_per_certify": (
            calls["certificates.l1ball_section_vertices"] / calls["cli.main"] if calls["cli.main"] else 0.0
        ),
        "certificates.ric_subsets": counts["subsets"],
        "bench.trials": counts["trials"],
        "bench.trial_self_s": total["bench.run_experiment"] - trial_solve,
        "cli.main.self_s": own["cli.main"],
    }
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        layer, _, what = name.rpartition(".")
        values[name] = calls[layer] if what == "calls" else total[layer]
    return {name: values[name] for name, _, _ in PER_LAYER}
