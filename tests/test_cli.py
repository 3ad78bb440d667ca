"""Command line behavior: output text, JSON payloads, file outputs, and the
exit code contract (0 ok, 1 input error, 2 non-convergence, 3 refusal)."""

import csv
import json

import numpy as np
import pytest

from wl1min import write_matrix, write_vector
from wl1min.cli import main


@pytest.fixture
def ex1_paths(fixtures_dir):
    return str(fixtures_dir / "example1_phi.txt"), str(fixtures_dir / "example1_b.txt")


@pytest.fixture
def ex2_paths(fixtures_dir):
    return str(fixtures_dir / "example2_phi.txt"), str(fixtures_dir / "example2_b.txt")


class TestSolveCommand:
    def test_identity_scheme_text_output(self, ex1_paths, capsys):
        code = main(["solve", *ex1_paths, "--scheme", "identity"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sparsity: 2" in out
        assert "converged: yes" in out
        assert "0.74999" in out

    def test_fixed_weights_change_the_answer(self, ex1_paths, capsys):
        code = main(["solve", *ex1_paths, "--scheme", "fixed", "--weights", "1,1,0.7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sparsity: 1" in out
        assert "1.99998" in out

    def test_json_payload(self, ex1_paths, capsys):
        code = main(["solve", *ex1_paths, "--scheme", "identity", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert np.abs(np.array(payload["x"]) - [0.75, 0.75, 0.0]).max() <= 1e-2
        assert payload["residual"] <= 1e-4
        assert len(payload["stages"]) == 8
        assert payload["stages"][0]["stage"] == 1
        assert list(payload) == [
            "x", "converged", "total_seconds", "objective_history", "stages", "residual"
        ]
        assert list(payload["stages"][0]) == [
            "stage", "mu", "inner_iterations", "final_step_norm", "converged",
            "support_size", "weights",
        ]

    def test_out_file(self, ex1_paths, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["solve", *ex1_paths, "--scheme", "identity", "--out", str(report_path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["converged"] is True
        assert len(payload["x"]) == 3

    def test_weights_file(self, ex1_paths, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        write_vector(wpath, np.array([1.0, 1.0, 0.7]))
        code = main(["solve", *ex1_paths, "--scheme", "fixed", "--weights-file", str(wpath)])
        assert code == 0
        assert "sparsity: 1" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, ex1_paths, capsys):
        code = main(["solve", "/nonexistent/phi.txt", ex1_paths[1]])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_weight_count_is_input_error(self, ex1_paths, capsys):
        code = main(["solve", *ex1_paths, "--scheme", "fixed", "--weights", "1,1"])
        assert code == 1
        assert "expected 3 weights" in capsys.readouterr().err

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        # near-singular design whose minimizer is far too large to reach
        # within the inner iteration cap at every stage
        phi_path, b_path = tmp_path / "phi.txt", tmp_path / "b.txt"
        write_matrix(phi_path, np.array([[1.0, 0.999], [0.999, 1.0]]))
        write_vector(b_path, np.array([1.0, -1.0]))
        code = main(["solve", str(phi_path), str(b_path), "--scheme", "identity"])
        out = capsys.readouterr().out
        assert code == 2
        assert "converged: no" in out


class TestCertifyCommand:
    def test_reference_problem_text(self, ex1_paths, capsys):
        code = main(["certify", ex1_paths[0], "-k", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" in out
        assert "{3}" in out  # 1-based witness and dominant support
        assert "T0 = {3}" in out
        assert "0.375" in out
        assert "0.75" in out
        assert "unique: yes" in out
        assert "feasible: yes" in out

    def test_ric_budget_route(self, ex1_paths, capsys):
        code = main(["certify", ex1_paths[0], "-k", "1", "--ric-budget", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.418683" in out  # gamma bound at the measured order-2 constant
        assert "delta=0.922415" in out

    def test_json_uses_zero_based_indices(self, ex1_paths, capsys):
        code = main(["certify", ex1_paths[0], "-k", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nsp"]["holds"] is False
        assert payload["nsp"]["witness_set"] == [2]
        assert payload["dominant_support"]["support"] == [2]
        assert payload["interval"]["lo"] == pytest.approx(0.375, abs=1e-12)
        assert payload["interval"]["hi_nullspace"] == pytest.approx(0.75, abs=1e-12)
        assert payload["interval"]["hi_ric"] is None

    def test_weights_add_wnsp_line(self, ex1_paths, capsys):
        code = main(["certify", ex1_paths[0], "-k", "1", "--weights", "1,1,0.7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "WNSP order 1: holds" in out

    def test_json_key_order(self, ex1_paths, capsys):
        code = main(["certify", ex1_paths[0], "-k", "1", "--weights", "1,1,0.7",
                     "--ric-budget", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        nsp_keys = ["holds", "order", "vacuous", "worst_margin", "witness_vertex", "witness_set"]
        assert list(payload) == ["k", "nsp", "wnsp", "dominant_support", "interval", "ric_budget"]
        assert list(payload["nsp"]) == nsp_keys
        assert list(payload["wnsp"]) == nsp_keys
        assert list(payload["dominant_support"]) == [
            "support", "vertex", "mass", "runner_up_mass", "unique"
        ]
        assert list(payload["interval"]) == ["lo", "hi_nullspace", "hi_ric", "feasible"]
        assert list(payload["ric_budget"]) == ["a", "delta"]

    def test_trivial_kernel_vacuous(self, tmp_path, capsys):
        path = tmp_path / "square.txt"
        write_matrix(path, np.array([[2.0, 1.0], [0.0, 1.0]]))
        code = main(["certify", str(path), "-k", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "vacuously" in out

    def test_cap_refusal_exit_code(self, ex2_paths, capsys):
        code = main(["certify", ex2_paths[0], "-k", "1", "--cap", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert "refused:" in err

    def test_fractional_budget_order_rejected(self, ex1_paths, capsys):
        code = main(["certify", ex1_paths[0], "-k", "1", "--ric-budget", "2.5"])
        assert code == 1
        assert "non-integral" in capsys.readouterr().err


class TestRicCommand:
    def test_reference_value_one_based(self, ex1_paths, capsys):
        code = main(["ric", ex1_paths[0], "-k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "delta_2 = 0.922415" in out
        assert "{1, 3}" in out

    def test_roc_flag(self, ex1_paths, capsys):
        code = main(["ric", ex1_paths[0], "-k", "2", "--roc", "1", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta_1,1 = 0.240000" in out
        assert "{1} x {3}" in out

    def test_orthonormal_design_zero(self, tmp_path, capsys):
        path = tmp_path / "eye.txt"
        write_matrix(path, np.eye(3))
        code = main(["ric", str(path), "-k", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "delta_1 = 0.000000" in out

    def test_json_payload(self, ex1_paths, capsys):
        code = main(["ric", ex1_paths[0], "-k", "2", "--roc", "1", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ric"]["value"] == pytest.approx(0.9224154027718933, rel=1e-12)
        assert payload["ric"]["attaining"] == [0, 2]
        assert payload["roc"]["value"] == pytest.approx(0.24, rel=1e-12)
        assert list(payload) == ["ric", "roc"]
        assert list(payload["ric"]) == ["order", "value", "attaining"]
        assert list(payload["roc"]) == ["orders", "value", "attaining"]
        assert payload["roc"]["attaining"] == [[0], [2]]

    def test_cap_refusal(self, ex2_paths, capsys):
        code = main(["ric", ex2_paths[0], "-k", "2", "--cap", "5"])
        assert code == 3
        assert "refused:" in capsys.readouterr().err


class TestTablesCommand:
    def test_stdout_reference_values(self, capsys):
        code = main(["tables"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.894427" in out  # scale 2 at gamma 1/2
        assert "0.320377" in out  # odd plain-order start at gamma 1
        assert "infimum" in out

    def test_csv_outputs(self, tmp_path, capsys):
        code = main(["tables", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        with open(tmp_path / "scaled_order_bounds.csv", newline="") as fh:
            scaled = {row["gamma"]: row for row in csv.DictReader(fh)}
        assert float(scaled["1"]["a2"]) == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
        assert float(scaled["1/2"]["a2"]) == pytest.approx(np.sqrt(0.8), rel=1e-12)
        assert float(scaled["1/4"]["a4"]) == pytest.approx(
            np.sqrt(3.0 / (3.0 + 1.0 / 16.0)), rel=1e-12)
        with open(tmp_path / "plain_order_bounds.csv", newline="") as fh:
            plain = {(row["gamma"], row["parity"]): row for row in csv.DictReader(fh)}
        cell = plain[("3/4", "even")]
        assert int(cell["k_start"]) == 4
        assert float(cell["value_at_start"]) == pytest.approx(0.4, rel=1e-12)
        assert float(cell["infimum"]) == pytest.approx(0.375, rel=1e-12)
        assert int(cell["infimum_at_k"]) == 6
        cell = plain[("1", "even")]
        assert float(cell["value_at_start"]) == pytest.approx(1 / 3, rel=1e-12)
        assert float(cell["infimum"]) == pytest.approx(1 / 3, rel=1e-12)


class TestBenchCommand:
    def _grid_file(self, tmp_path, **overrides) -> str:
        payload = {
            "specs": [{"m": 10, "n": 20, "k": 2}],
            "cells": [{"scheme": "identity"}, {"scheme": "nullspace"}],
            "samples": 2,
            "base_seed": 5,
        }
        payload.update(overrides)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_smoke_run_writes_outputs(self, tmp_path, capsys):
        grid = self._grid_file(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["bench", grid, "--out-dir", str(out_dir), "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "support rate" in out
        assert "wrote" in out
        results_lines = (out_dir / "results.csv").read_text().splitlines()
        summary_lines = (out_dir / "summary.csv").read_text().splitlines()
        assert len(results_lines) == 1 + 4  # 1 spec x 2 cells x 2 samples
        assert len(summary_lines) == 1 + 2

    def test_json_format(self, tmp_path, capsys):
        grid = self._grid_file(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["bench", grid, "--out-dir", str(out_dir), "--format", "json",
                     "--jobs", "1"])
        capsys.readouterr()
        assert code == 0
        rows = json.loads((out_dir / "results.json").read_text())
        assert len(rows) == 4

    def test_deterministic_modulo_seconds(self, tmp_path, capsys):
        grid = self._grid_file(tmp_path)
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            assert main(["bench", grid, "--out-dir", str(d), "--jobs", "1"]) == 0
        capsys.readouterr()
        tables = []
        for d in dirs:
            with open(d / "results.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            tables.append([{k: v for k, v in row.items() if k != "seconds"} for row in rows])
        assert tables[0] == tables[1]

    def test_seed_override_changes_trials(self, tmp_path, capsys):
        grid = self._grid_file(tmp_path)
        base_dir, seeded_dir = tmp_path / "base", tmp_path / "seeded"
        assert main(["bench", grid, "--out-dir", str(base_dir), "--jobs", "1"]) == 0
        assert main(["bench", grid, "--out-dir", str(seeded_dir), "--jobs", "1",
                     "--seed", "99"]) == 0
        capsys.readouterr()
        seeds = []
        for d in (base_dir, seeded_dir):
            with open(d / "results.csv", newline="") as fh:
                seeds.append([row["seed"] for row in csv.DictReader(fh)])
        assert seeds[0] != seeds[1]

    def test_invalid_grid_values_fail_before_any_trial(self, tmp_path, capsys):
        for overrides in (
            {"solver": {"inner_cap": 50.0}},
            {"solver": {"stages": 2.5}},
            {"cells": [{"scheme": "identity"}, {"scheme": "classic", "q": 1.0}]},
        ):
            out_dir = tmp_path / "out"
            code = main(["bench", self._grid_file(tmp_path, **overrides),
                         "--out-dir", str(out_dir), "--jobs", "1"])
            assert code == 1, overrides
            assert "error:" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_malformed_grid_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code = main(["bench", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestArgumentHandling:
    def test_no_arguments_is_input_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_unknown_command_is_input_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()
