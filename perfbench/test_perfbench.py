"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check that the output checks catch perturbed outputs, that a seed
always gives the same inputs, that the tracing wrappers put every patched
attribute back, and that tracing leaves the outputs bitwise unchanged.
"""

import dataclasses
import importlib
import json

import numpy as np
import pytest

import run

run.import_library()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wl1min import bench  # noqa: E402


def _fingerprint(inp) -> bytes:
    if isinstance(inp, workloads.OracleInput):
        w = b"" if inp.weights is None else inp.weights.tobytes()
        return inp.phi.tobytes() + inp.x_planted.tobytes() + inp.b.tobytes() + w
    if isinstance(inp, workloads.CertifyInput):
        return inp.phi.tobytes() + inp.weights_text.encode() + inp.path.read_bytes()
    return repr(inp).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first, again, other = (workloads.WORKLOADS[name](s, d) for s, d in zip((5, 5, 6), dirs))
    for i in range(3):
        assert _fingerprint(first.make_input(i)) == _fingerprint(again.make_input(i))
    assert _fingerprint(first.make_input(0)) != _fingerprint(other.make_input(0))
    assert _fingerprint(first.make_input(0)) != _fingerprint(first.make_input(1))


def test_recovery_grid_check_catches_perturbed_outputs(tmp_path):
    w = workloads.RecoveryGrid(3, tmp_path)
    inp = w.make_input(2)
    with w.session():
        _, (results, solved) = w.run(inp)
    assert w.check(inp, (results, solved)) == []
    moved = solved[0].copy()
    moved[np.flatnonzero(moved)[0]] += 1e-3
    assert w.check(inp, (results, [moved]))
    flipped = dataclasses.replace(results[0], support_match=not results[0].support_match)
    assert w.check(inp, ([flipped], solved))
    assert w.check(inp, (results, [np.full_like(solved[0], np.nan)]))


def test_oracle_check_catches_perturbed_outputs(tmp_path):
    w = workloads.OracleCheck(3, tmp_path)
    for i in (0, 1):  # unweighted and weighted oracle
        inp = w.make_input(i)
        _, (x_lp, report) = w.run(inp)
        assert w.check(inp, (x_lp, report)) == []
        shifted = x_lp.copy()
        shifted[0] += 1e-3
        assert w.check(inp, (shifted, report))
        rising = dataclasses.replace(report, objective_history=[
            h + [h[-1] * (1 + 1e-9)] for h in report.objective_history
        ])
        assert w.check(inp, (x_lp, rising))


def test_certify_check_catches_perturbed_outputs(tmp_path):
    w = workloads.Certify(3, tmp_path)
    inp = w.make_input(0)
    _, (code, text) = w.run(inp)
    assert w.check(inp, (code, text)) == []
    assert w.check(inp, (1, text))

    def edited(change) -> str:
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    def rescale(p):
        p["wnsp"]["witness_vertex"] = [1.001 * v for v in p["wnsp"]["witness_vertex"]]

    def flip_holds(p):
        p["nsp"]["holds"] = not p["nsp"]["holds"]

    def shift_margin(p):
        p["nsp"]["worst_margin"] += 1e-6

    def flip_feasible(p):
        p["interval"]["feasible"] = not p["interval"]["feasible"]

    for change in (rescale, flip_holds, shift_margin, flip_feasible):
        assert w.check(inp, (code, edited(change))), change.__name__


def _patch_point_values() -> dict:
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.PATCH_POINTS
    }


def test_wrappers_restore_every_patched_attribute(tmp_path):
    before = _patch_point_values()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer().targets()):
            inside = _patch_point_values()
            assert all(inside[key] is not before[key] for key in before)
            raise RuntimeError("leave the block early")
    after = _patch_point_values()
    assert all(after[key] is before[key] for key in before)

    original = bench.solve
    with workloads.RecoveryGrid(1, tmp_path).session():
        assert bench.solve is not original
    assert bench.solve is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_identical_digests(name, tmp_path):
    w = workloads.WORKLOADS[name](9, tmp_path)
    w.fixed_ops = 2
    inputs = [w.make_input(i) for i in range(w.fixed_ops)]
    plain = harness.measure(w, inputs, 0.0)
    again = harness.measure(w, inputs, 0.0)
    tracer = tracing.Tracer()
    traced = harness.measure(w, inputs, 0.0, tracer)
    for result in (plain, again, traced):
        assert result["attempted"] == 2 and result["failures"] == []
    assert plain["digest"] == again["digest"] == traced["digest"]
    assert plain["rates"] == traced["rates"]

    layers = tracing.layer_metrics(tracer.spans, w.fixed_ops)
    expected = {
        "recovery_grid": {"bench.trials": 2, "solver.solve.calls": 2, "cli.main.calls": 0},
        "oracle_check": {"certificates.l1_min_exact.calls": 2, "solver.solve.calls": 2, "bench.trials": 0},
        "certify": {"cli.main.calls": 2, "certificates.enumerations_per_certify": 4.0,
                    "certificates.zero_sets": 4 * 2 * 220, "certificates.ric_subsets": 2 * 495,
                    "solver.solve.calls": 0},
    }[name]
    assert {k: layers[k] for k in expected} == expected


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = harness.tail([float(x) for x in range(30, 0, -1)])
    assert (value, beyond) == (20.0, 10)
    assert percentile == pytest.approx(200 / 3)


def test_library_must_come_from_the_checkout(tmp_path):
    with pytest.raises(run.LibraryMissing):
        run.import_library(tmp_path)


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [tuple(m[k] for k in ("name", "unit", "better")) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [tuple(m[k] for k in ("name", "unit", "better")) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
