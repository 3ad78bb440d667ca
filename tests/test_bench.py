"""Benchmark harness: problem generation, seed derivation, grid execution,
summaries, result emission, and grid config parsing."""

import csv
import json
import os

import numpy as np
import pytest

from wl1min.bench import RESULT_COLUMNS, SUMMARY_COLUMNS
from wl1min import (
    ExperimentGrid,
    ProblemSpec,
    SchemeCell,
    SolverConfig,
    TrialResult,
    emit_results,
    emit_summary,
    generate_problem,
    load_grid,
    run_experiment,
    summarize,
    trial_seed,
)

JOBS = max(1, min(4, os.cpu_count() or 1))


def _small_grid() -> ExperimentGrid:
    return ExperimentGrid(
        specs=(ProblemSpec(m=20, n=40, k=3),),
        cells=(SchemeCell("identity"), SchemeCell("nullspace", q=0.5)),
        samples=3,
        base_seed=11,
    )


class TestProblemSpecValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ProblemSpec(m=0, n=4, k=1)
        with pytest.raises(ValueError):
            ProblemSpec(m=4, n=4, k=5)
        with pytest.raises(ValueError):
            ProblemSpec(m=4, n=4, k=-1)

    def test_rejects_bad_noise_and_seed(self):
        with pytest.raises(ValueError):
            ProblemSpec(m=4, n=4, k=1, noise_sigma=-0.1)
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            ProblemSpec(m=4, n=4, k=1, noise_sigma=float("nan"))
        with pytest.raises(ValueError):
            ProblemSpec(m=4, n=4, k=1, seed=-1)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            ProblemSpec(m=4.0, n=4, k=1)

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            SchemeCell("unknown")
        with pytest.raises(ValueError):
            SchemeCell("classic", eps=0.0)
        with pytest.raises(ValueError, match="eps must be finite"):
            SchemeCell("identity", eps=float("nan"))
        with pytest.raises(ValueError):
            SchemeCell("classic", q=1.0)
        with pytest.raises(ValueError):
            SchemeCell("nullspace", q=0.0)

    def test_grid_validation(self):
        spec = ProblemSpec(m=4, n=8, k=1)
        with pytest.raises(ValueError):
            ExperimentGrid(specs=(), cells=(SchemeCell("identity"),), samples=1)
        with pytest.raises(ValueError):
            ExperimentGrid(specs=(spec,), cells=(), samples=1)
        with pytest.raises(ValueError):
            ExperimentGrid(specs=(spec,), cells=(SchemeCell("identity"),), samples=0)


class TestGenerateProblem:
    def test_exact_support_size(self):
        for seed in range(10):
            problem = generate_problem(ProblemSpec(m=10, n=30, k=7, seed=seed))
            assert np.count_nonzero(problem.x_orig) == 7

    def test_noiseless_measurements_bitwise(self):
        problem = generate_problem(ProblemSpec(m=12, n=24, k=4, seed=5))
        assert np.array_equal(problem.b, problem.phi @ problem.x_orig)

    def test_deterministic(self):
        spec = ProblemSpec(m=8, n=16, k=2, seed=42)
        p1, p2 = generate_problem(spec), generate_problem(spec)
        assert np.array_equal(p1.phi, p2.phi)
        assert np.array_equal(p1.x_orig, p2.x_orig)
        assert np.array_equal(p1.b, p2.b)

    def test_noise_perturbs_only_measurements(self):
        clean = generate_problem(ProblemSpec(m=8, n=16, k=2, seed=42))
        noisy = generate_problem(ProblemSpec(m=8, n=16, k=2, seed=42, noise_sigma=0.1))
        assert np.array_equal(clean.phi, noisy.phi)
        assert np.array_equal(clean.x_orig, noisy.x_orig)
        assert not np.array_equal(clean.b, noisy.b)
        assert np.linalg.norm(noisy.b - clean.b) < 1.0  # sigma-scale perturbation

    def test_zero_sparsity(self):
        problem = generate_problem(ProblemSpec(m=4, n=8, k=0, seed=1))
        assert np.array_equal(problem.x_orig, np.zeros(8))
        assert np.array_equal(problem.b, np.zeros(4))


class TestTrialSeed:
    def test_deterministic_and_63_bit(self):
        spec = ProblemSpec(m=8, n=16, k=2)
        cell = SchemeCell("classic", q=0.5)
        s1 = trial_seed(3, spec, cell, 0)
        assert s1 == trial_seed(3, spec, cell, 0)
        assert 0 <= s1 < 2**63

    def test_distinct_across_coordinates(self):
        spec = ProblemSpec(m=8, n=16, k=2)
        other_spec = ProblemSpec(m=8, n=16, k=3)
        cell = SchemeCell("classic", q=0.5)
        other_cell = SchemeCell("nullspace", q=0.5)
        seeds = {
            trial_seed(3, spec, cell, 0),
            trial_seed(3, spec, cell, 1),
            trial_seed(3, spec, other_cell, 0),
            trial_seed(3, other_spec, cell, 0),
            trial_seed(4, spec, cell, 0),
        }
        assert len(seeds) == 5

    def test_sample_problems_are_uncorrelated(self):
        spec = ProblemSpec(m=8, n=16, k=2)
        cell = SchemeCell("identity")
        bs = []
        for sample in range(100):
            seed = trial_seed(0, spec, cell, sample)
            problem = generate_problem(ProblemSpec(m=8, n=16, k=2, seed=seed))
            bs.append(problem.b)
        stacked = np.array(bs)
        prev = stacked[:-1].ravel()
        nxt = stacked[1:].ravel()
        r = np.corrcoef(prev, nxt)[0, 1]
        assert abs(r) < 0.2


class TestRunExperiment:
    def test_worker_count_does_not_change_results(self):
        grid = _small_grid()
        serial = run_experiment(grid, jobs=1)
        parallel = run_experiment(grid, jobs=2)
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            for field in RESULT_COLUMNS:
                if field == "seconds":
                    continue
                assert getattr(a, field) == getattr(b, field), field
            assert a.support_match == b.support_match

    def test_trial_rows_carry_cell_coordinates(self):
        grid = _small_grid()
        results = run_experiment(grid)
        assert [r.scheme for r in results] == ["identity"] * 3 + ["nullspace"] * 3
        assert [r.sample for r in results] == [0, 1, 2, 0, 1, 2]
        assert all(r.m == 20 and r.n == 40 and r.k == 3 for r in results)
        assert all(r.seed == trial_seed(11, grid.specs[0], c, r.sample)
                   for r, c in zip(results, [grid.cells[0]] * 3 + [grid.cells[1]] * 3))

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            run_experiment(_small_grid(), jobs=0)


class TestSummarize:
    def _result(self, **overrides) -> TrialResult:
        base = dict(
            m=4, n=8, k=2, noise_sigma=0.0, seed=1, scheme="identity", q=0.5,
            eps=1e-4, sample=0, sparsity=2, residual=1.0, err2=0.5, errinf=0.2,
            seconds=0.1, converged=True, support_match=True,
        )
        base.update(overrides)
        return TrialResult(**base)

    def test_single_trial(self):
        cells = summarize([self._result()])
        assert len(cells) == 1
        cell = cells[0]
        assert cell.trials == 1
        assert cell.residual_mean == cell.residual_min == cell.residual_max == 1.0
        assert cell.support_rate == 1.0

    def test_mean_min_max(self):
        (cell,) = summarize([
            self._result(sample=0, residual=1.0, support_match=True),
            self._result(sample=1, residual=3.0, support_match=False),
        ])
        assert cell.trials == 2
        assert cell.residual_mean == 2.0
        assert cell.residual_min == 1.0
        assert cell.residual_max == 3.0
        assert cell.support_rate == 0.5

    def test_groups_by_cell(self):
        cells = summarize([
            self._result(scheme="identity"),
            self._result(scheme="nullspace"),
            self._result(scheme="nullspace", sample=1),
        ])
        by_scheme = {c.scheme: c for c in cells}
        assert by_scheme["identity"].trials == 1
        assert by_scheme["nullspace"].trials == 2

    def test_cells_differing_only_in_eps_stay_apart(self):
        grid = ExperimentGrid(
            specs=(ProblemSpec(m=8, n=16, k=2),),
            cells=(SchemeCell("classic", q=0.5, eps=1e-4), SchemeCell("classic", q=0.5, eps=0.1)),
            samples=3,
            base_seed=3,
        )
        cells = summarize(run_experiment(grid))
        assert [(c.eps, c.trials) for c in cells] == [(1e-4, 3), (0.1, 3)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestEmission:
    def test_results_csv_round_trip(self, tmp_path):
        results = run_experiment(_small_grid())
        path = tmp_path / "results.csv"
        emit_results(results, "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(RESULT_COLUMNS)
        assert len(rows) == 1 + len(results)
        for row, result in zip(rows[1:], results):
            record = dict(zip(RESULT_COLUMNS, row))
            assert int(record["m"]) == result.m
            assert int(record["seed"]) == result.seed
            assert record["scheme"] == result.scheme
            assert float(record["residual"]) == result.residual  # repr round-trips
            assert float(record["err2"]) == result.err2
            assert record["converged"] in ("true", "false")
            assert (record["converged"] == "true") == result.converged

    def test_summary_csv_columns(self, tmp_path):
        results = run_experiment(_small_grid())
        path = tmp_path / "summary.csv"
        emit_summary(summarize(results), "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(SUMMARY_COLUMNS)
        assert len(rows) == 3  # header + one row per cell
        rate = float(dict(zip(SUMMARY_COLUMNS, rows[1]))["support_rate"])
        assert 0.0 <= rate <= 1.0

    def test_support_rate_recomputes_from_results_rows(self, tmp_path):
        results = run_experiment(_small_grid())
        emit_results(results, "csv", tmp_path / "results.csv")
        emit_summary(summarize(results), "csv", tmp_path / "summary.csv")
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "summary.csv", newline="") as fh:
            cells = list(csv.DictReader(fh))
        assert len(cells) == 2
        for cell in cells:
            key = (cell["scheme"], cell["q"])
            matches = [r["support_match"] == "true" for r in rows if (r["scheme"], r["q"]) == key]
            assert len(matches) == int(cell["trials"])
            assert float(cell["support_rate"]) == sum(matches) / len(matches)

    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [list(RESULT_COLUMNS)]

    def test_single_row_csv(self, tmp_path):
        results = run_experiment(ExperimentGrid(
            specs=(ProblemSpec(m=6, n=12, k=1),),
            cells=(SchemeCell("identity"),),
            samples=1,
        ))
        path = tmp_path / "one.csv"
        emit_results(results, "csv", path)
        assert len(path.read_text().splitlines()) == 2

    def test_json_mirror(self, tmp_path):
        results = run_experiment(_small_grid())
        path = tmp_path / "results.json"
        emit_results(results, "json", path)
        rows = json.loads(path.read_text())
        assert len(rows) == len(results)
        assert list(rows[0]) == list(RESULT_COLUMNS)
        for row, result in zip(rows, results):
            assert row["residual"] == result.residual
            assert row["converged"] is result.converged

    def test_summary_json(self, tmp_path):
        results = run_experiment(_small_grid())
        path = tmp_path / "summary.json"
        emit_summary(summarize(results), "json", path)
        rows = json.loads(path.read_text())
        assert len(rows) == 2
        assert set(rows[0]) == set(SUMMARY_COLUMNS)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "yaml", tmp_path / "x.yaml")


class TestLoadGrid:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return str(path)

    def test_valid_grid_with_solver_overrides(self, tmp_path):
        path = self._write(tmp_path, {
            "specs": [{"m": 10, "n": 20, "k": 2}, {"m": 10, "n": 20, "k": 3, "noise_sigma": 0.01}],
            "cells": [{"scheme": "nullspace", "q": 0.5}, {"scheme": "identity"}],
            "samples": 4,
            "base_seed": 9,
            "solver": {"stages": 10, "eta_factor": 1e-8},
        })
        grid, config = load_grid(path)
        assert len(grid.specs) == 2
        assert grid.specs[1].noise_sigma == 0.01
        assert grid.cells[0].q == 0.5
        assert grid.samples == 4
        assert grid.base_seed == 9
        assert config.stages == 10
        assert config.eta_factor == 1e-8
        assert config.mu_decay == 0.2  # untouched default

    def test_defaults_without_solver_section(self, tmp_path):
        path = self._write(tmp_path, {
            "specs": [{"m": 4, "n": 8, "k": 1}],
            "cells": [{"scheme": "identity"}],
            "samples": 1,
        })
        grid, config = load_grid(path)
        assert grid.base_seed == 0
        assert config == SolverConfig()

    def test_unknown_spec_field_named(self, tmp_path):
        path = self._write(tmp_path, {
            "specs": [{"m": 4, "n": 8, "k": 1, "rho": 2}],
            "cells": [{"scheme": "identity"}],
            "samples": 1,
        })
        with pytest.raises(ValueError, match=r"specs\[0\].*rho"):
            load_grid(path)

    def test_unknown_top_level_field(self, tmp_path):
        path = self._write(tmp_path, {
            "specs": [{"m": 4, "n": 8, "k": 1}],
            "cells": [{"scheme": "identity"}],
            "samples": 1,
            "extra": True,
        })
        with pytest.raises(ValueError, match="extra"):
            load_grid(path)

    def test_missing_required_field(self, tmp_path):
        path = self._write(tmp_path, {
            "specs": [{"m": 4, "n": 8, "k": 1}],
            "cells": [{"scheme": "identity"}],
        })
        with pytest.raises(ValueError, match="samples"):
            load_grid(path)

    def test_malformed_json_names_path(self, tmp_path):
        path = self._write(tmp_path, "{not json")
        with pytest.raises(ValueError, match="grid.json"):
            load_grid(path)

    def test_out_of_range_cell_rejected_at_load(self, tmp_path):
        path = self._write(tmp_path, {
            "specs": [{"m": 4, "n": 8, "k": 1}],
            "cells": [{"scheme": "identity"}, {"scheme": "classic", "q": 1.0}],
            "samples": 1,
        })
        with pytest.raises(ValueError, match="Classic needs 0 <= q < 1"):
            load_grid(path)

    def test_non_integer_solver_counts_rejected(self, tmp_path):
        for solver in ({"inner_cap": 50.0}, {"stages": 2.5}):
            path = self._write(tmp_path, {
                "specs": [{"m": 4, "n": 8, "k": 1}],
                "cells": [{"scheme": "identity"}],
                "samples": 1,
                "solver": solver,
            })
            with pytest.raises(ValueError, match="must be an integer"):
                load_grid(path)

    def test_non_finite_values_rejected(self, tmp_path):
        for cell, solver in (({"scheme": "classic", "eps": float("nan")}, {}),
                             ({"scheme": "identity"}, {"eta_factor": float("nan")})):
            path = self._write(tmp_path, {
                "specs": [{"m": 4, "n": 8, "k": 1}],
                "cells": [cell],
                "samples": 1,
                "solver": solver,
            })
            with pytest.raises(ValueError, match="must be finite"):
                load_grid(path)

    def test_bad_solver_field(self, tmp_path):
        path = self._write(tmp_path, {
            "specs": [{"m": 4, "n": 8, "k": 1}],
            "cells": [{"scheme": "identity"}],
            "samples": 1,
            "solver": {"x0": [1, 2]},
        })
        with pytest.raises(ValueError, match="solver"):
            load_grid(path)


class TestRecoveryInvariants:
    def test_noiseless_support_match_implies_tiny_residual(self):
        grid = ExperimentGrid(
            specs=(ProblemSpec(m=128, n=512, k=5),),
            cells=(SchemeCell("nullspace", q=0.5),),
            samples=5,
            base_seed=7,
        )
        config = SolverConfig(stages=14, eta_factor=1e-10)
        results = run_experiment(grid, config, jobs=JOBS)
        matches = 0
        for r in results:
            problem = generate_problem(ProblemSpec(m=r.m, n=r.n, k=r.k, seed=r.seed))
            if r.support_match:
                matches += 1
                assert r.residual <= 1e-6 * np.linalg.norm(problem.b)
        assert matches >= 1  # the implication is not vacuous here

    def test_nullspace_scheme_beats_classic_at_small_q(self):
        # hard cell where classic reweighting stalls but the guided scheme works
        rates = {}
        for q in (0.1, 0.25):
            grid = ExperimentGrid(
                specs=(ProblemSpec(m=128, n=512, k=20),),
                cells=(SchemeCell("nullspace", q=q), SchemeCell("classic", q=q)),
                samples=10,
                base_seed=2024,
            )
            config = SolverConfig(eta_factor=1e-8)
            cells = summarize(run_experiment(grid, config, jobs=JOBS))
            by_scheme = {c.scheme: c.support_rate for c in cells}
            rates[q] = (by_scheme["nullspace"], by_scheme["classic"])
        for q, (guided, classic) in rates.items():
            assert guided >= classic, f"q={q}: {guided} < {classic}"
        assert rates[0.25][0] > rates[0.25][1]  # strictly better somewhere
        assert rates[0.25][0] >= 0.5
        assert rates[0.25][1] <= 0.1
