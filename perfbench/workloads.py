"""The benchmark's three workloads: inputs from the seed, one op, output checks.

Each workload is an endless, deterministic sequence of ops: op ``i`` depends
only on ``(seed, i)``.  The first ``fixed_ops`` ops form the workload's fixed
op set.  Their outputs are digested and their layer counts reported, so both
repeat exactly for a seed; a run keeps issuing further ops until its time is
up, and every op is checked.

The checks recompute what they verify from the generated inputs with code
of their own.  They never call back into ``wl1min`` to decide whether
``wl1min`` was right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wl1min import bench, certificates, cli, solver

# Inputs of the untimed warm-up op come from this seed, not from the run's,
# so that set-up time does not vary with the seed.
WARMUP_SEED = 2**40


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _topk_mass(mags: np.ndarray, k: int) -> float:
    return float(np.sort(mags)[::-1][:k].sum())


class RecoveryGrid:
    """The C9 cell (Gaussian 128x512, k=20, noiseless) under three schemes.

    One op is one trial run through ``bench.run_experiment`` with
    ``jobs=1``; its latency is the trial's own ``seconds``.  Ops cycle
    through the schemes, each with a fresh base seed.
    """

    name = "recovery_grid"
    fixed_ops = 30
    m, n, k = 128, 512, 20
    cells = (
        bench.SchemeCell("nullspace", q=0.5),
        bench.SchemeCell("classic", q=0.5),
        bench.SchemeCell("identity", q=0.5),
    )
    config = solver.SolverConfig(eta_factor=1e-8)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.spec = bench.ProblemSpec(m=self.m, n=self.n, k=self.k)
        self._solved: list[np.ndarray] = []

    def make_input(self, i: int, seed: int | None = None):
        seed = self.seed if seed is None else seed
        base = int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0] >> 1)
        return base, self.cells[i % len(self.cells)]

    @contextlib.contextmanager
    def session(self):
        """Keep each trial's solution: ``TrialResult`` carries no ``x``."""
        original = bench.solve

        def keep_x(*args, **kwargs):
            report = original(*args, **kwargs)
            self._solved.append(report.x.copy())
            return report

        bench.solve = keep_x
        try:
            yield
        finally:
            bench.solve = original

    def run(self, inp):
        base, cell = inp
        grid = bench.ExperimentGrid(specs=(self.spec,), cells=(cell,), samples=1, base_seed=base)
        self._solved.clear()
        results = bench.run_experiment(grid, self.config, jobs=1)
        return results[0].seconds, (results, list(self._solved))

    def expected_seed(self, base: int, cell) -> int:
        key = f"{self.m},{self.n},{self.k},{0.0!r}|{cell.scheme},{cell.q!r},{cell.eps!r}|0"
        digest = hashlib.blake2b(key.encode("ascii"), digest_size=8).digest()
        return (base ^ int.from_bytes(digest, "big")) & (2**63 - 1)

    def problem(self, trial_seed: int):
        """The trial's problem, drawn in the documented order: support,
        values, design matrix."""
        rng = np.random.default_rng(trial_seed)
        x = np.zeros(self.n)
        support = rng.permutation(self.n)[: self.k]
        x[support] = rng.standard_normal(self.k)
        phi = rng.standard_normal((self.m, self.n))
        return phi, x, phi @ x

    def check(self, inp, out) -> list[str]:
        base, cell = inp
        results, solved = out
        if len(results) != 1 or len(solved) != 1:
            return [f"expected one trial and one solve, got {len(results)} and {len(solved)}"]
        r, x = results[0], solved[0]
        seed = self.expected_seed(base, cell)
        if (r.m, r.n, r.k, r.scheme, r.q, r.sample, r.seed) != (
            self.m, self.n, self.k, cell.scheme, cell.q, 0, seed
        ):
            return [f"trial row names the wrong cell or seed: {r}"]
        if x.shape != (self.n,) or not np.all(np.isfinite(x)):
            return ["solution is not a finite vector of the right length"]
        if not math.isfinite(r.seconds) or r.seconds <= 0.0:
            return [f"trial seconds {r.seconds!r} is not a positive time"]
        phi, x_orig, b = self.problem(seed)
        problems = []
        residual = float(np.linalg.norm(phi @ x - b))
        if abs(residual - r.residual) > 1e-9 * max(residual, 1.0):
            problems.append(f"residual {r.residual!r} reported, {residual!r} recomputed")
        err = x - x_orig
        if abs(float(np.linalg.norm(err)) - r.err2) > 1e-9 * max(r.err2, 1.0):
            problems.append("err2 disagrees with the recomputed error")
        if r.sparsity != int(np.count_nonzero(x)):
            problems.append(f"sparsity {r.sparsity} reported, {np.count_nonzero(x)} counted")
        match = bool(np.array_equal(np.flatnonzero(x), np.flatnonzero(x_orig)))
        if r.support_match != match:
            problems.append(f"support_match {r.support_match} reported, {match} recomputed")
        return problems

    def digest(self, out) -> bytes:
        (r,), (x,) = out
        fields = (r.seed, r.scheme, r.q, r.sparsity, r.residual, r.err2, r.errinf,
                  r.converged, r.support_match)
        return repr(fields).encode("ascii") + x.tobytes()

    def rates(self, outs) -> dict:
        hits = sum(bool(results[0].support_match) for results, _ in outs)
        return {"support_rate": (hits, len(outs))}


@dataclass
class OracleInput:
    phi: np.ndarray
    x_planted: np.ndarray
    b: np.ndarray
    weights: np.ndarray | None


class OracleCheck:
    """Solver against the exact LP oracle on 32x128 problems, 5-sparse.

    Even ops pair ``Identity`` with the unweighted oracle, odd ops pair
    ``Fixed(w)`` with the weighted one, ``w ~ U[0.5, 1)``.  One op is one
    exact LP solve plus one continuation solve of the same problem.
    """

    name = "oracle_check"
    fixed_ops = 16
    m, n, k = 32, 128, 5
    match_tol = 1e-3
    config = solver.SolverConfig()

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def make_input(self, i: int, seed: int | None = None) -> OracleInput:
        rng = _rng(self.seed if seed is None else seed, i)
        phi = rng.standard_normal((self.m, self.n))
        x = np.zeros(self.n)
        x[rng.permutation(self.n)[: self.k]] = rng.standard_normal(self.k)
        weights = rng.uniform(0.5, 1.0, self.n) if i % 2 else None
        return OracleInput(phi, x, phi @ x, weights)

    def session(self):
        return contextlib.nullcontext()

    def run(self, inp: OracleInput):
        t0 = time.perf_counter()
        x_lp = certificates.l1_min_exact(inp.phi, inp.b, inp.weights)
        scheme = solver.Identity() if inp.weights is None else solver.Fixed(inp.weights)
        report = solver.solve(inp.phi, inp.b, scheme, self.config)
        return time.perf_counter() - t0, (x_lp, report)

    def check(self, inp: OracleInput, out) -> list[str]:
        x_lp, report = out
        w = np.ones(self.n) if inp.weights is None else inp.weights
        if not (np.all(np.isfinite(x_lp)) and np.all(np.isfinite(report.x))):
            return ["LP or solver solution is not finite"]
        problems = []
        scale = float(np.abs(inp.phi).max()) * float(np.abs(x_lp).sum()) + float(np.abs(inp.b).max())
        infeasibility = float(np.abs(inp.phi @ x_lp - inp.b).max())
        if infeasibility > 1e-9 * scale:
            problems.append(f"LP solution misses phi x = b by {infeasibility:.3e}")
        objective = float(w @ np.abs(x_lp))
        planted = float(w @ np.abs(inp.x_planted))
        if objective > planted * (1.0 + 1e-9):
            problems.append(f"LP objective {objective!r} exceeds the planted {planted!r}")
        for stage, history in enumerate(report.objective_history, start=1):
            h = np.asarray(history)
            rise = float(np.diff(h).max()) if h.size > 1 else 0.0
            if rise > 1e-12 * max(1.0, float(np.abs(h).max())):
                problems.append(f"stage {stage} objective rises by {rise:.3e}")
        return problems

    def digest(self, out) -> bytes:
        x_lp, report = out
        parts = [x_lp.tobytes(), report.x.tobytes()]
        for stage, history in zip(report.stages, report.objective_history):
            parts.append(repr((stage.inner_iterations, stage.converged)).encode("ascii"))
            parts.append(np.asarray(history).tobytes())
        return b"".join(parts)

    def rates(self, outs) -> dict:
        hits = sum(
            float(np.abs(report.x - x_lp).max()) <= self.match_tol for x_lp, report in outs
        )
        return {"oracle_match_rate": (hits, len(outs))}


@dataclass
class CertifyInput:
    phi: np.ndarray
    weights: np.ndarray
    weights_text: str
    path: Path


class Certify:
    """``wl1min certify`` on Gaussian 8x12 matrices (kernel dimension 4).

    One op is one in-process ``cli.main`` call with order 2, weights and an
    isometry budget of 2, printing JSON; stdout is captured.
    """

    name = "certify"
    fixed_ops = 8
    m, n, order = 8, 12, 2

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def make_input(self, i: int, seed: int | None = None) -> CertifyInput:
        seed = self.seed if seed is None else seed
        rng = _rng(seed, i)
        phi = rng.standard_normal((self.m, self.n))
        weights = rng.uniform(0.5, 1.0, self.n)
        path = self.scratch / f"phi-{seed}-{i}.txt"
        rows = "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in phi)
        path.write_text(f"{self.m} {self.n}\n{rows}", encoding="ascii")
        text = ",".join(repr(float(v)) for v in weights)
        return CertifyInput(phi, weights, text, path)

    def session(self):
        return contextlib.nullcontext()

    def run(self, inp: CertifyInput):
        argv = ["certify", str(inp.path), "-k", str(self.order), "--weights", inp.weights_text,
                "--ric-budget", "2", "--json"]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return time.perf_counter() - t0, (code, buf.getvalue())

    def _check_nsp(self, label, report, phi, weights) -> list[str]:
        v = np.asarray(report["witness_vertex"], dtype=float)
        problems = []
        if abs(float(np.abs(v).sum()) - 1.0) > 1e-9:
            problems.append(f"{label} witness vertex has l1 norm {np.abs(v).sum()!r}")
        kernel_tol = 1e-9 * float(np.abs(phi).sum(axis=1).max())
        if float(np.abs(phi @ v).max()) > kernel_tol:
            problems.append(f"{label} witness vertex is not in the kernel")
        mags = np.abs(v) if weights is None else weights * np.abs(v)
        margin = _topk_mass(mags / mags.sum(), self.order) - 0.5
        if abs(margin - report["worst_margin"]) > 1e-9:
            problems.append(f"{label} worst_margin {report['worst_margin']!r}, recomputed {margin!r}")
        if report["holds"] != (report["worst_margin"] < 0.0):
            problems.append(f"{label} holds={report['holds']} contradicts its margin")
        return problems

    def check(self, inp: CertifyInput, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"certify exited with code {code}"]
        try:
            payload = json.loads(text)
            problems = self._check_nsp("nsp", payload["nsp"], inp.phi, None)
            problems += self._check_nsp("wnsp", payload["wnsp"], inp.phi, inp.weights)
            dom, interval = payload["dominant_support"], payload["interval"]
            if dom["mass"] < dom["runner_up_mass"]:
                problems.append("dominant mass is below the runner-up mass")
            if interval["feasible"] != (interval["lo"] < min(interval["hi_nullspace"], 1.0)):
                problems.append("interval feasibility contradicts lo and hi_nullspace")
        except (ValueError, KeyError, TypeError) as exc:
            return [f"certify output is malformed: {exc!r}"]
        return problems

    def digest(self, out) -> bytes:
        code, text = out
        return f"{code}\n{text}".encode("utf-8")

    def rates(self, outs) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (RecoveryGrid, OracleCheck, Certify)}
