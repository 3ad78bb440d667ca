"""Seeded, reproducible recovery benchmarks on random Gaussian designs.

A trial draws a ``k``-sparse ground truth with standard normal values on a
uniformly random support, a standard normal ``m x n`` design, and the exact
(or noisy) measurements; the chosen solver scheme then reconstructs it.
Per-trial seeds are derived by hashing the cell coordinates into the base
seed, so any sub-grid reruns bitwise identically regardless of worker count
or execution order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from .linops import as_int
from .solver import SCHEMES, SolverConfig, WeightScheme, _set_numbers, solve

__all__ = [
    "ProblemSpec",
    "GeneratedProblem",
    "SchemeCell",
    "ExperimentGrid",
    "TrialResult",
    "CellSummary",
    "generate_problem",
    "trial_seed",
    "run_experiment",
    "summarize",
    "emit_results",
    "emit_summary",
    "load_grid",
    "RESULT_COLUMNS",
    "SUMMARY_COLUMNS",
]

@dataclass(frozen=True)
class ProblemSpec:
    """Shape, sparsity, noise level and seed of one random problem."""

    m: int
    n: int
    k: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "n", "k", "seed"):
            as_int(getattr(self, name), name)
        _set_numbers(self, "noise_sigma")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need positive dimensions, got m={self.m}, n={self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class GeneratedProblem:
    phi: np.ndarray
    x_orig: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class SchemeCell:
    """One solver configuration of the grid: scheme name plus exponent."""

    scheme: str
    q: float = 0.5
    eps: float = 1e-4

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {self.scheme!r}")
        _set_numbers(self, "q", "eps")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        self.to_weight_scheme()  # the scheme rejects its own out-of-range q

    def to_weight_scheme(self) -> WeightScheme:
        return SCHEMES[self.scheme](self.q, self.eps)


@dataclass(frozen=True)
class ExperimentGrid:
    specs: tuple[ProblemSpec, ...]
    cells: tuple[SchemeCell, ...]
    samples: int
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.specs or not self.cells:
            raise ValueError("grid needs at least one spec and one cell")
        as_int(self.samples, "samples")
        as_int(self.base_seed, "base_seed")
        if self.samples < 1:
            raise ValueError(f"need at least one sample, got {self.samples}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed}")


@dataclass
class TrialResult:
    m: int
    n: int
    k: int
    noise_sigma: float
    seed: int
    scheme: str
    q: float
    eps: float
    sample: int
    sparsity: int
    residual: float
    err2: float
    errinf: float
    seconds: float
    converged: bool
    support_match: bool


@dataclass
class CellSummary:
    m: int
    n: int
    k: int
    noise_sigma: float
    scheme: str
    q: float
    eps: float
    trials: int
    sparsity_mean: float
    sparsity_min: float
    sparsity_max: float
    residual_mean: float
    residual_min: float
    residual_max: float
    err2_mean: float
    err2_min: float
    err2_max: float
    errinf_mean: float
    errinf_min: float
    errinf_max: float
    seconds_mean: float
    seconds_min: float
    seconds_max: float
    support_rate: float


RESULT_COLUMNS = tuple(f.name for f in fields(TrialResult))
SUMMARY_COLUMNS = tuple(f.name for f in fields(CellSummary))

# Each gets ``_mean``, ``_min`` and ``_max`` columns in ``CellSummary``.
_SUMMARY_METRICS = ("sparsity", "residual", "err2", "errinf", "seconds")


def generate_problem(spec: ProblemSpec) -> GeneratedProblem:
    """Draw the problem for ``spec`` deterministically from its seed.

    Draw order: support permutation, nonzero values, design matrix, then
    (only when ``noise_sigma > 0``) the noise, so the noiseless measurements
    are bitwise the product ``phi @ x_orig``.
    """
    rng = np.random.default_rng(spec.seed)
    x = np.zeros(spec.n)
    support = rng.permutation(spec.n)[: spec.k]
    x[support] = rng.standard_normal(spec.k)
    phi = rng.standard_normal((spec.m, spec.n))
    b = phi @ x
    if spec.noise_sigma > 0.0:
        b = b + spec.noise_sigma * rng.standard_normal(spec.m)
    return GeneratedProblem(phi=phi, x_orig=x, b=b)


def trial_seed(base_seed: int, spec: ProblemSpec, cell: SchemeCell, sample: int) -> int:
    """Per-trial seed: the base seed XOR a stable hash of the coordinates."""
    key = (
        f"{spec.m},{spec.n},{spec.k},{spec.noise_sigma!r}"
        f"|{cell.scheme},{cell.q!r},{cell.eps!r}|{sample}"
    )
    digest = hashlib.blake2b(key.encode("ascii"), digest_size=8).digest()
    return (base_seed ^ int.from_bytes(digest, "big")) & (2**63 - 1)


def _run_trial(args: tuple[ProblemSpec, SchemeCell, int, int, SolverConfig]) -> TrialResult:
    spec, cell, sample, seed, config = args
    problem = generate_problem(replace(spec, seed=seed))
    t0 = time.perf_counter()
    report = solve(problem.phi, problem.b, cell.to_weight_scheme(), config)
    seconds = time.perf_counter() - t0
    x = report.x
    residual = float(np.linalg.norm(problem.phi @ x - problem.b))
    err = x - problem.x_orig
    recovered_support = np.flatnonzero(x)
    true_support = np.flatnonzero(problem.x_orig)
    return TrialResult(
        m=spec.m,
        n=spec.n,
        k=spec.k,
        noise_sigma=spec.noise_sigma,
        seed=seed,
        scheme=cell.scheme,
        q=cell.q,
        eps=cell.eps,
        sample=sample,
        sparsity=int(recovered_support.size),
        residual=residual,
        err2=float(np.linalg.norm(err)),
        errinf=float(np.max(np.abs(err))),
        seconds=seconds,
        converged=report.converged,
        support_match=bool(np.array_equal(recovered_support, true_support)),
    )


def run_experiment(
    grid: ExperimentGrid,
    config: SolverConfig | None = None,
    *,
    jobs: int = 1,
) -> list[TrialResult]:
    """Run every (spec, cell, sample) trial of the grid.

    Non-converged solves are recorded, never raised.  Results are identical
    for any ``jobs`` value; workers only change wall time.
    """
    if config is None:
        config = SolverConfig()
    if as_int(jobs, "jobs") < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    tasks = [
        (spec, cell, sample, trial_seed(grid.base_seed, spec, cell, sample), config)
        for spec in grid.specs
        for cell in grid.cells
        for sample in range(grid.samples)
    ]
    if jobs == 1:
        return [_run_trial(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_trial, tasks))


def summarize(results: Sequence[TrialResult]) -> list[CellSummary]:
    """Per-cell mean/min/max of every metric plus the exact-support rate."""
    if not results:
        raise ValueError("no trial results to summarize")
    groups: dict[tuple, list[TrialResult]] = {}
    for r in results:
        groups.setdefault((r.m, r.n, r.k, r.noise_sigma, r.scheme, r.q, r.eps), []).append(r)

    cells = []
    for (m, n, k, sigma, scheme, q, eps), rows in groups.items():
        stats = {}
        for metric in _SUMMARY_METRICS:
            arr = np.asarray([getattr(r, metric) for r in rows], dtype=float)
            stats[f"{metric}_mean"] = float(arr.mean())
            stats[f"{metric}_min"] = float(arr.min())
            stats[f"{metric}_max"] = float(arr.max())
        cells.append(
            CellSummary(
                m=m,
                n=n,
                k=k,
                noise_sigma=sigma,
                scheme=scheme,
                q=q,
                eps=eps,
                trials=len(rows),
                **stats,
                support_rate=sum(r.support_match for r in rows) / len(rows),
            )
        )
    return cells


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def _emit_rows(rows: list[dict], columns: tuple[str, ...], fmt: str, path) -> None:
    if fmt == "csv":
        with open(path, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell_text(row[c]) for c in columns])
    elif fmt == "json":
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_results(results: Sequence[TrialResult], fmt: str, path) -> None:
    """Write raw trial rows as CSV or JSON with round-trip float precision."""
    rows = [asdict(r) for r in results]
    _emit_rows(rows, RESULT_COLUMNS, fmt, path)


def emit_summary(cells: Sequence[CellSummary], fmt: str, path) -> None:
    """Write per-cell summary rows as CSV or JSON."""
    rows = [asdict(cell) for cell in cells]
    _emit_rows(rows, SUMMARY_COLUMNS, fmt, path)


_SPEC_KEYS = {"m", "n", "k", "noise_sigma"}
_CELL_KEYS = {f.name for f in fields(SchemeCell)}
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)}
_GRID_KEYS = {"specs", "cells", "samples", "base_seed", "solver"}


def _checked_fields(entry, allowed: set, where: str) -> dict:
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {type(entry).__name__}")
    unknown = set(entry) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {sorted(unknown)}")
    return entry


def load_grid(path) -> tuple[ExperimentGrid, SolverConfig]:
    """Parse a grid configuration file (JSON) into a grid and solver config.

    Schema: ``specs`` (list of {m, n, k, noise_sigma?}), ``cells`` (list of
    {scheme, q?, eps?}), ``samples``, optional ``base_seed`` and ``solver``
    overrides ({stages, mu_decay, eta_factor, inner_cap}).  Field errors name
    the offending entry.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    data = _checked_fields(data, _GRID_KEYS, str(path))
    for key in ("specs", "cells", "samples"):
        if key not in data:
            raise ValueError(f"{path}: missing required field {key!r}")
    try:
        specs = tuple(
            ProblemSpec(**_checked_fields(entry, _SPEC_KEYS, f"{path}: specs[{i}]"))
            for i, entry in enumerate(data["specs"])
        )
        cells = tuple(
            SchemeCell(**_checked_fields(entry, _CELL_KEYS, f"{path}: cells[{i}]"))
            for i, entry in enumerate(data["cells"])
        )
        grid = ExperimentGrid(
            specs=specs,
            cells=cells,
            samples=data["samples"],
            base_seed=data.get("base_seed", 0),
        )
        config = SolverConfig(
            **_checked_fields(data.get("solver", {}), _SOLVER_KEYS, f"{path}: solver")
        )
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return grid, config
