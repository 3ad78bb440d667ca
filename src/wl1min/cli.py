"""Command line front end: solve, certify, ric, tables, bench.

Exit codes are a stable scripting contract: 0 success, 1 input error,
2 solver non-convergence, 3 enumeration refusal.  Index sets are printed
1-based for human readers; JSON output carries the library's 0-based
indices.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np

from . import bench, certificates, linops, solver

__all__ = [
    "main",
    "main_entry",
    "build_scaled_order_table",
    "build_plain_order_table",
    "SCALED_ORDER_GAMMAS",
    "SCALED_ORDER_FACTORS",
    "PLAIN_ORDER_ROWS",
]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_REFUSED = 3


# ---------------------------------------------------------------------------
# Formatting helpers.
# ---------------------------------------------------------------------------


def _fmt_indices(indices) -> str:
    """Index set for humans: 1-based, brace-delimited."""
    return "{" + ", ".join(str(i + 1) for i in indices) + "}"


def _fmt_float(x: float) -> str:
    return f"{x:.6g}"


def _fmt_vector(x) -> str:
    return "(" + ", ".join(_fmt_float(v) for v in np.asarray(x).ravel()) + ")"


def _emit_json(payload: dict, fh=None) -> None:
    """Write ``payload`` as indented JSON and a newline to ``fh``, standard
    output when ``None`` (looked up per call, so a replaced stream is used)."""
    fh = sys.stdout if fh is None else fh
    json.dump(payload, fh, indent=1, default=_json_default)
    fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"unserializable {type(obj).__name__}")


def _parse_weights(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"weights must be comma-separated decimals, got {text!r}")
    return np.asarray(values, dtype=float)


def _load_weights(args, n: int):
    """Weights from --weights (inline) or --weights-file, or None."""
    if getattr(args, "weights", None) is not None:
        w = _parse_weights(args.weights)
    elif getattr(args, "weights_file", None) is not None:
        w = linops.read_vector(args.weights_file)
    else:
        return None
    return linops.as_weights(w, n)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _make_scheme(args, n: int) -> solver.WeightScheme:
    if args.scheme in solver.SCHEMES:
        return solver.SCHEMES[args.scheme](args.q, args.eps)
    weights = _load_weights(args, n)
    if weights is None:
        raise ValueError("--scheme fixed requires --weights or --weights-file")
    return solver.Fixed(weights)


def _report_payload(report: solver.SolveReport) -> dict:
    return {
        "x": report.x,
        "converged": report.converged,
        "total_seconds": report.total_seconds,
        "step_bound": report.step_bound,
        "step_bound_seconds": report.step_bound_seconds,
        "objective_history": report.objective_history,
        "stages": [asdict(s) for s in report.stages],
    }


def cmd_solve(args) -> int:
    phi = linops.read_matrix(args.matrix)
    b = linops.read_vector(args.rhs)
    scheme = _make_scheme(args, phi.shape[1])
    config = solver.SolverConfig(stages=args.stages, mu_decay=args.mu_decay)
    report = solver.solve(phi, b, scheme, config)
    payload = _report_payload(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit_json(payload, fh)
    residual = float(np.linalg.norm(phi @ report.x - b))
    if args.json:
        payload["residual"] = residual
        _emit_json(payload)
    else:
        print(f"sparsity: {int(np.count_nonzero(report.x))}")
        print(f"residual: {_fmt_float(residual)}")
        print(f"converged: {'yes' if report.converged else 'no'}")
        if report.x.shape[0] <= 32:
            print(f"x = {_fmt_vector(report.x)}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _print_nsp(label: str, report: certificates.NspReport) -> None:
    if report.vacuous:
        print(f"{label} order {report.order}: holds vacuously (trivial kernel)")
        return
    mass = report.worst_margin + 0.5
    if report.holds:
        print(f"{label} order {report.order}: holds (worst mass {_fmt_float(mass)} < 1/2)")
    else:
        print(
            f"{label} order {report.order}: FAIL "
            f"(mass {_fmt_float(mass)} on {_fmt_indices(report.witness_set)}, "
            f"vertex {_fmt_vector(report.witness_vertex)})"
        )


def _ric_order(a: float, k: int, n: int) -> int:
    """The integral order ``a * k <= n`` a ``--ric-budget`` of ``a > 1`` asks for."""
    order = a * k
    if not (math.isfinite(order) and abs(order - round(order)) <= 1e-9):
        raise ValueError(f"--ric-budget {a} gives non-integral order a*k = {order}")
    if a <= 1.0:
        raise ValueError(f"budget multiplier a must exceed 1, got {a}")
    order = round(order)
    if order > n:
        raise ValueError(f"--ric-budget {a} gives order a*k = {order}, above the {n} columns")
    return order


def cmd_certify(args) -> int:
    phi = linops.read_matrix(args.matrix)
    weights = _load_weights(args, phi.shape[1])
    ric_order = None
    if args.ric_budget is not None:
        ric_order = _ric_order(args.ric_budget, args.k, phi.shape[1])
    nsp = certificates.check_nsp(phi, args.k, max_zero_sets=args.cap)
    payload: dict = {"k": args.k, "nsp": asdict(nsp)}
    wnsp = None
    if weights is not None:
        wnsp = certificates.check_wnsp(phi, weights, args.k, max_zero_sets=args.cap)
        payload["wnsp"] = asdict(wnsp)
    if not nsp.vacuous:
        dom = certificates.dominant_support(phi, args.k, max_zero_sets=args.cap)
        ric_budget = None
        if ric_order is not None:
            delta = certificates.compute_ric(phi, ric_order, max_subsets=args.cap).value
            ric_budget = (args.ric_budget, delta)
        interval = certificates.downweight_interval(
            phi, args.k, ric_budget=ric_budget, max_zero_sets=args.cap
        )
        payload["dominant_support"] = asdict(dom)
        payload["interval"] = asdict(interval)
        if ric_budget is not None:
            payload["ric_budget"] = {"a": ric_budget[0], "delta": ric_budget[1]}

    if args.json:
        _emit_json(payload)
        return EXIT_OK
    _print_nsp("NSP", nsp)
    if wnsp is not None:
        _print_nsp("WNSP", wnsp)
    if nsp.vacuous:
        return EXIT_OK
    print(
        f"dominant support T0 = {_fmt_indices(dom.support)}, "
        f"mass {_fmt_float(dom.mass)}, runner-up {_fmt_float(dom.runner_up_mass)}, "
        f"unique: {'yes' if dom.unique else 'no'}"
    )
    hi_terms = [f"{_fmt_float(interval.hi_nullspace)} (null-space route)"]
    if interval.hi_ric is not None:
        hi_terms.append(
            f"{_fmt_float(interval.hi_ric)} "
            f"(isometry route at a={_fmt_float(ric_budget[0])}, "
            f"delta={_fmt_float(ric_budget[1])})"
        )
    print(f"gamma in ({_fmt_float(interval.lo)}, {' / '.join(hi_terms)})")
    print(f"feasible: {'yes' if interval.feasible else 'no'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ric
# ---------------------------------------------------------------------------


def cmd_ric(args) -> int:
    phi = linops.read_matrix(args.matrix)
    ric = certificates.compute_ric(phi, args.k, max_subsets=args.cap)
    payload: dict = {"ric": asdict(ric)}
    roc = None
    if args.roc is not None:
        k1, k2 = args.roc
        roc = certificates.compute_roc(phi, k1, k2, max_pairs=args.cap)
        payload["roc"] = asdict(roc)
    if args.json:
        _emit_json(payload)
        return EXIT_OK
    print(
        f"delta_{ric.order} = {ric.value:.6f} "
        f"attained on {_fmt_indices(ric.attaining)}"
    )
    if roc is not None:
        s1, s2 = roc.attaining
        print(
            f"theta_{roc.orders[0]},{roc.orders[1]} = {roc.value:.6f} "
            f"attained on {_fmt_indices(s1)} x {_fmt_indices(s2)}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

SCALED_ORDER_GAMMAS = (Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
SCALED_ORDER_FACTORS = (2, 3, 4)

# (gamma, even k start, odd k start)
PLAIN_ORDER_ROWS = (
    (Fraction(1), 2, 3),
    (Fraction(3, 4), 4, 5),
    (Fraction(1, 2), 2, 5),
    (Fraction(1, 4), 4, 5),
    (Fraction(1, 6), 6, 5),
)


def build_scaled_order_table() -> list[dict]:
    """Scaled-order thresholds sqrt((a-1)/(a-1+gamma^2)) on a small grid."""
    rows = []
    for gamma in SCALED_ORDER_GAMMAS:
        row = {"gamma": str(gamma)}
        for a in SCALED_ORDER_FACTORS:
            row[f"a{a}"] = certificates.ric_bound_scaled_order(a, float(gamma))
        rows.append(row)
    return rows


def build_plain_order_table() -> list[dict]:
    """Plain-order thresholds per parity: value at the range-start k and the
    infimum over the whole stated range (with its attaining k).

    Both columns are emitted because they genuinely differ for some cells;
    the start-k value is not in general the worst case over the range.
    """
    rows = []
    for gamma, even_start, odd_start in PLAIN_ORDER_ROWS:
        for parity, k_start in (("even", even_start), ("odd", odd_start)):
            inf_value, inf_k = certificates.ric_bound_plain_order_infimum(gamma, k_start)
            rows.append(
                {
                    "gamma": str(gamma),
                    "parity": parity,
                    "k_start": k_start,
                    "value_at_start": certificates.ric_bound_plain_order(k_start, float(gamma)),
                    "infimum": inf_value,
                    "infimum_at_k": inf_k,
                }
            )
    return rows


def _print_aligned(rows: list[dict], columns: list[tuple[str, str]]) -> None:
    headers = [label for _, label in columns]
    cells = [
        [
            _fmt_float(row[key]) if isinstance(row[key], float) else str(row[key])
            for key, _ in columns
        ]
        for row in rows
    ]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def cmd_tables(args) -> int:
    scaled = build_scaled_order_table()
    plain = build_plain_order_table()
    print("Scaled-order isometry thresholds sqrt((a-1)/(a-1+gamma^2)):")
    _print_aligned(
        scaled,
        [("gamma", "gamma")] + [(f"a{a}", f"a={a}") for a in SCALED_ORDER_FACTORS],
    )
    print()
    print("Plain-order isometry thresholds (start-of-range value and range infimum):")
    _print_aligned(
        plain,
        [
            ("gamma", "gamma"),
            ("parity", "parity"),
            ("k_start", "k from"),
            ("value_at_start", "value at k"),
            ("infimum", "infimum"),
            ("infimum_at_k", "at k"),
        ],
    )
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, rows in (("scaled_order_bounds.csv", scaled), ("plain_order_bounds.csv", plain)):
            bench._emit_rows(rows, tuple(rows[0]), "csv", os.path.join(args.out_dir, name))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    grid, config = bench.load_grid(args.grid)
    if args.seed is not None:
        grid = replace(grid, base_seed=args.seed)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    results = bench.run_experiment(grid, config, jobs=jobs)
    summary = bench.summarize(results)
    os.makedirs(args.out_dir, exist_ok=True)
    ext = args.format
    results_path = os.path.join(args.out_dir, f"results.{ext}")
    summary_path = os.path.join(args.out_dir, f"summary.{ext}")
    bench.emit_results(results, ext, results_path)
    bench.emit_summary(summary, ext, summary_path)
    for cell in summary:
        print(
            f"m={cell.m} n={cell.n} k={cell.k} sigma={_fmt_float(cell.noise_sigma)} "
            f"{cell.scheme}(q={_fmt_float(cell.q)}, eps={_fmt_float(cell.eps)}): "
            f"support rate {cell.support_rate:.2f}, "
            f"mean err2 {cell.err2_mean:.3e}, "
            f"mean seconds {cell.seconds_mean:.3f}"
        )
    print(f"wrote {results_path} and {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch.
# ---------------------------------------------------------------------------


def _add_weights_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", help="comma-separated weight values")
    p.add_argument("--weights-file", help="weight vector file (text format)")


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wl1min",
        description="Weighted l1 sparse recovery: solver, certificates, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the continuation solver on a problem")
    p.add_argument("matrix", help="design matrix file")
    p.add_argument("rhs", help="measurement vector file")
    p.add_argument(
        "--scheme",
        choices=(*solver.SCHEMES, "fixed"),
        default="nullspace",
    )
    p.add_argument("--q", type=float, default=0.5, help="reweighting exponent")
    p.add_argument("--eps", type=float, default=1e-4, help="reweighting smoothing")
    p.add_argument("--stages", type=int, default=8, help="continuation stages")
    p.add_argument("--mu-decay", type=float, default=0.2, help="penalty decay per stage")
    _add_weights_flags(p)
    p.add_argument("--out", help="write the full report as JSON here")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="null-space certificates and weight interval")
    p.add_argument("matrix", help="design matrix file")
    p.add_argument("-k", type=int, required=True, help="sparsity order")
    _add_weights_flags(p)
    p.add_argument(
        "--ric-budget",
        type=float,
        help="scale factor a > 1: also bound gamma via the measured order-a*k constant",
    )
    p.add_argument("--cap", type=int, default=10**6, help="subset enumeration cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("ric", help="exact isometry/orthogonality constants")
    p.add_argument("matrix", help="design matrix file")
    p.add_argument("-k", type=int, required=True, help="isometry order")
    p.add_argument(
        "--roc",
        nargs=2,
        type=int,
        metavar=("K1", "K2"),
        help="also compute the order-(K1,K2) orthogonality constant",
    )
    p.add_argument("--cap", type=int, default=10**6, help="subset enumeration cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ric)

    p = sub.add_parser("tables", help="print the isometry-threshold reference tables")
    p.add_argument("--out-dir", help="also write both tables as CSV here")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("bench", help="run a benchmark grid from a config file")
    p.add_argument("grid", help="grid configuration file (JSON)")
    p.add_argument("--out-dir", default=".", help="directory for results/summary files")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, help="worker processes (default: CPU count)")
    p.add_argument("--seed", type=int, help="override the grid's base seed")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except certificates.EnumerationCapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
