"""Benchmark of wl1min: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload recovery_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  Human-readable lines come first, then a
``report`` line with everything measured, and last one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads: fixed reduction order makes the
# counts, rates and digests repeat exactly.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("recovery_grid", "oracle_check", "certify")


class LibraryMissing(RuntimeError):
    pass


def import_library(root: Path = ROOT):
    """Import ``wl1min`` from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "wl1min" / "__init__.py").is_file():
        raise LibraryMissing(f"no wl1min sources under {src}")
    sys.path.insert(0, str(src))
    import wl1min

    if Path(wl1min.__file__).resolve().parent != (src / "wl1min").resolve():
        raise LibraryMissing(f"wl1min was imported from {wl1min.__file__}, not from {src}")
    return wl1min


def _print_report(report: dict, units: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items()))
    if report["trace"]:
        t = report["tracing"]
        print(f"traced run: the timings below include tracing, about {100 * t['share_of_op_time']:.3g}% "
              f"of op time ({t['spans']} spans at {t['us_per_span']:.3g} us each)")
    e2e = report["end_to_end"]
    for name, value in e2e.items():
        extra = ""
        if name == "op_tail_s":
            t = report["op_tail"]
            extra = f"  (p{t['percentile']:.1f}, {t['beyond']} of {t['samples']} samples beyond)"
        elif name == "setup_s":
            extra = f"  (median of {len(report['setup_samples_s'])})"
        print(f"{name} {value:.6g} {units[name]}{extra}")
    print(f"failed_frac {report['failed_frac']:.6g} ratio  ({report['failed']} of {report['attempted']} ops)")
    for name, r in report["rates"].items():
        print(f"{name} {r['rate']:.6g} ratio  ({r['hits']} of {r['of']} fixed ops)")
    print(f"digest sha256:{report['digest']}  (outputs of the {report['fixed_ops']} fixed ops, timings excluded)")
    for line in report["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value in report.get("per_layer", {}).items():
        print(f"layer {name} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="print the seconds this fresh process took to set up, then exit "
        "(the benchmark uses it to sample set-up time)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    try:
        import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import harness

    if args.setup_only:
        print(harness.setup_sample(args.workload, args.seed, T_START))
        return 0
    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), T_START)
    units = {name: unit for name, unit, _ in harness.END_TO_END + harness.tracing.PER_LAYER}
    _print_report(report, units)
    print("report " + json.dumps(report))
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
