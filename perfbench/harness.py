"""Set-up, the closed op loop, end-to-end metrics and the output digest.

One caller issues one op at a time and waits for it (a closed loop).  The
loop runs until ``seconds`` have passed and at least the workload's fixed op
set is done.  Every op's output is checked; an op that raises or fails its
check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import WARMUP_SEED, WORKLOADS

# (name, unit, better) of every end-to-end metric the final JSON line carries.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Set-up is timed this many times per run: once in the benchmark process and
# the rest in fresh processes, so first-call costs are paid every time.
SETUP_SAMPLES = 3

OUT_DIR = Path(__file__).resolve().parent / "out"


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, visible cores, thread pinning."""
    config = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{config.get('name', 'unknown')} {config.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def set_up(name: str, seed: int, scratch: Path):
    """Generate the fixed op set's inputs and run one untimed warm-up op."""
    workload = WORKLOADS[name](seed, scratch)
    inputs = [workload.make_input(i) for i in range(workload.fixed_ops)]
    with workload.session():
        workload.run(workload.make_input(0, seed=WARMUP_SEED))
    return workload, inputs


def setup_sample(name: str, seed: int, t_start: float) -> float:
    """Seconds from ``t_start`` (before any import) to the end of set-up."""
    with tempfile.TemporaryDirectory(dir=_out_dir()) as scratch:
        set_up(name, seed, Path(scratch))
        return time.perf_counter() - t_start


def _out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def _fresh_setup_samples(name: str, seed: int, count: int) -> list[float]:
    run_py = Path(__file__).resolve().parent / "run.py"
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(run_py), "--workload", name, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest-ranked latency with ten samples above it.

    Returns ``(value, percentile, samples beyond)``; with ten or fewer
    samples it is the smallest one.
    """
    ordered = sorted(latencies)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def measure(workload, inputs, seconds: float, tracer=None) -> dict:
    """Closed loop over ops ``0, 1, ...``; see the module docstring."""
    fixed = workload.fixed_ops
    latencies, walls, fixed_outputs = [], [], []
    failures: list[str] = []
    digest = hashlib.sha256()
    with workload.session(), tracing.patched(tracer.targets() if tracer is not None else []):
        t_start = time.perf_counter()
        i = 0
        while i < fixed or time.perf_counter() - t_start < seconds:
            inp = inputs[i] if i < fixed else workload.make_input(i)
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                latency, out = workload.run(inp)
                walls.append(time.perf_counter() - t0)
                problems = workload.check(inp, out)
            except Exception:
                walls.append(time.perf_counter() - t0)
                latency, out = None, None
                problems = ["raised:\n" + traceback.format_exc()]
            if problems:
                failures.append(f"op {i}: " + "; ".join(problems))
            else:
                latencies.append(latency)
            if i < fixed:
                digest.update(workload.digest(out) if not problems else b"failed")
                if not problems:
                    fixed_outputs.append(out)
            i += 1
    return {
        "attempted": i,
        "failures": failures,
        "latencies": latencies,
        "walls": walls,
        "digest": digest.hexdigest(),
        "rates": workload.rates(fixed_outputs),
    }


def run(name: str, seed: int, seconds: float, trace: bool, t_start: float) -> dict:
    """One benchmark run: set-up, measurement, metrics and report."""
    with tempfile.TemporaryDirectory(dir=_out_dir()) as scratch:
        workload, inputs = set_up(name, seed, Path(scratch))
        setups = [time.perf_counter() - t_start]
        setups += _fresh_setup_samples(name, seed, SETUP_SAMPLES - 1)
        tracer = tracing.Tracer() if trace else None
        result = measure(workload, inputs, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lat = result["latencies"] or result["walls"]
    tail_value, tail_pct, beyond = tail(lat)
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": result["attempted"] / sum(result["walls"]),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "fixed_ops": workload.fixed_ops,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "failed_frac": len(result["failures"]) / result["attempted"],
        "failures": result["failures"][:5],
        "setup_samples_s": setups,
        "latencies_s": result["latencies"],
        "op_tail": {"percentile": tail_pct, "beyond": beyond, "samples": len(lat)},
        "rates": {k: {"hits": h, "of": n, "rate": h / n if n else 0.0} for k, (h, n) in result["rates"].items()},
        "digest": result["digest"],
        "end_to_end": e2e,
    }
    if tracer is not None:
        report["per_layer"] = tracing.layer_metrics(tracer.spans, workload.fixed_ops)
        report["spans_file"] = str(_write_spans(name, seed, tracer.spans))
        cost = tracing.span_cost_us()
        report["tracing"] = {
            "spans": len(tracer.spans),
            "us_per_span": cost,
            "share_of_op_time": len(tracer.spans) * cost * 1e-6 / sum(result["walls"]),
        }
    return report


def _write_spans(name: str, seed: int, spans: list[dict]) -> Path:
    path = _out_dir() / f"spans-{name}-{seed}.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"workload": name, "seed": seed, "spans": spans}, fh)
    return path
