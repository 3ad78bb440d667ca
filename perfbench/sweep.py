"""Run the benchmark over workloads, seeds and trace settings, and summarise.

    python3 perfbench/sweep.py --seeds 2024 7919 --trace 0 1 --out perfbench/out/sweep.json

Each run is a separate ``run.py`` process, one after another.  For every
workload the summary gives each end-to-end metric's median and quartile
spread (``(q3 - q1) / median``, quartiles as ``statistics.quantiles(n=4)``
gives them), whether the traced and untraced runs of a seed have the same
output digest, and the tracing overhead: untraced over traced ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.splitlines()
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[len("report "):])
    report["result"] = json.loads(lines[-1])
    return report


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "iqr_over_median": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def summarise(reports: list[dict]) -> dict:
    summary = {}
    for workload in sorted({r["workload"] for r in reports}):
        mine = [r for r in reports if r["workload"] == workload]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry: dict = {"failed": sum(r["failed"] for r in mine), "attempted": sum(r["attempted"] for r in mine)}
        if plain:
            entry["end_to_end"] = {
                name: spread([r["end_to_end"][name] for r in plain]) for name in plain[0]["end_to_end"]
            }
            entry["rates"] = {
                name: spread([r["rates"][name]["rate"] for r in plain]) for name in plain[0]["rates"]
            }
        pairs = [(p, t) for p in plain for t in traced if p["seed"] == t["seed"]]
        if pairs:
            entry["digests_match_traced"] = all(p["digest"] == t["digest"] for p, t in pairs)
            entry["tracing_overhead"] = spread(
                [p["end_to_end"]["ops_per_s"] / t["end_to_end"]["ops_per_s"] for p, t in pairs]
            )
        if traced:
            entry["per_layer"] = {
                name: statistics.median([r["per_layer"][name] for r in traced])
                for name in traced[0]["per_layer"]
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", help="write every report and the summary here as JSON")
    args = parser.parse_args(argv)

    reports = []
    for workload in args.workloads:
        for seed in args.seeds:
            for trace in args.trace:
                r = run_once(workload, seed, args.seconds, trace)
                reports.append(r)
                e2e = "  ".join(f"{k} {v:.6g}" for k, v in r["end_to_end"].items())
                print(f"{workload} seed {seed} trace {trace}: failed {r['failed']}/{r['attempted']}  "
                      f"{e2e}  digest {r['digest'][:12]}", flush=True)
    summary = summarise(reports)
    for workload, entry in summary.items():
        print(f"\n{workload}: failed {entry['failed']} of {entry['attempted']}")
        for group in ("end_to_end", "rates"):
            for name, s in entry.get(group, {}).items():
                print(f"  {name:14s} median {s['median']:.6g}  spread {s['iqr_over_median']:.4f}")
        if "tracing_overhead" in entry:
            print(f"  tracing overhead {entry['tracing_overhead']['median']:.4f}  "
                  f"digests traced == untraced: {entry['digests_match_traced']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"reports": reports, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
