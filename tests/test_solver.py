"""Continuation solver: schedule, inner loop, weight updates, full solves."""

import numpy as np
import pytest

from wl1min import solver as solver_module
from wl1min import (
    Classic,
    Fixed,
    Identity,
    NullspaceGuided,
    SolverConfig,
    ista_stage,
    l1_min_exact,
    largest_gram_eigenvalue,
    mu_schedule,
    soft_threshold,
    solve,
    update_weights_classic,
    update_weights_nullspace,
)


class TestSoftThreshold:
    def test_basic_values(self):
        out = soft_threshold(np.array([3.0, -2.0, 0.5]), np.array([1.0, 1.0, 1.0]))
        assert np.allclose(out, [2.0, -1.0, 0.0], atol=1e-15)

    def test_exact_zeros_at_or_below_threshold(self):
        out = soft_threshold(np.array([0.5, -1.0, 1.0]), np.array([1.0, 1.0, 1.0]))
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == 0.0

    def test_entrywise_thresholds(self):
        out = soft_threshold(np.array([2.0, 2.0]), np.array([0.5, 1.5]))
        assert np.allclose(out, [1.5, 0.5], atol=1e-15)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), np.array([0.1, -0.1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), np.ones(2))


class TestMuSchedule:
    def test_reference_two_stages(self, ex1_phi, ex1_b):
        mus = mu_schedule(ex1_phi, ex1_b, 2, 0.2)
        assert np.allclose(mus, [0.48, 0.096], rtol=1e-14)

    def test_geometric_decay(self):
        rng = np.random.default_rng(2)
        phi = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        mus = mu_schedule(phi, b, 5, 0.5)
        assert mus[0] == pytest.approx(float(np.abs(phi.T @ b).max()), rel=1e-15)
        ratios = mus[1:] / mus[:-1]
        assert np.allclose(ratios, 0.5, rtol=1e-12)

    def test_zero_rhs_gives_zero_schedule(self):
        mus = mu_schedule(np.eye(3), np.zeros(3), 4, 0.2)
        assert np.array_equal(mus, np.zeros(4))

    def test_validation(self, ex1_phi, ex1_b):
        with pytest.raises(ValueError):
            mu_schedule(ex1_phi, ex1_b, 0, 0.2)
        with pytest.raises(ValueError):
            mu_schedule(ex1_phi, ex1_b, 3, 1.0)
        with pytest.raises(ValueError):
            mu_schedule(ex1_phi, np.zeros(5), 3, 0.2)
        for decay in ("0.5", True, float("nan")):
            with pytest.raises(ValueError, match="decay must be (a number|finite)"):
                mu_schedule(ex1_phi, ex1_b, 3, decay)

    @pytest.mark.parametrize("stages", [2.5, 2.0, True])
    def test_non_integer_stage_count_rejected(self, stages):
        with pytest.raises(ValueError, match="stages must be an integer"):
            mu_schedule(np.eye(2), np.ones(2), stages, 0.2)


class TestIstaStage:
    def test_identity_design_closed_form(self):
        b = np.array([2.0, -0.5, 1.2])
        w = np.array([1.0, 1.0, 0.5])
        mu = 0.8
        x, inner = ista_stage(np.eye(3), b, w, mu, 1.0, np.zeros(3), 1e-12, 50)
        assert np.allclose(x, soft_threshold(b, mu * w), atol=1e-15)
        assert inner.converged
        assert inner.iterations <= 2

    def test_mu_zero_converges_to_least_squares(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        b = rng.standard_normal(5)
        L = 1.000001 * largest_gram_eigenvalue(phi)
        x, inner = ista_stage(phi, b, np.ones(5), 0.0, L, np.ones(5), 1e-12, 5000)
        assert inner.converged
        assert np.linalg.norm(phi @ x - b) < 1e-6

    def test_warm_started_stage_chain(self, ex1_phi, ex1_b):
        # chaining stages by hand reproduces the continuation solution
        mus = mu_schedule(ex1_phi, ex1_b, 8, 0.2)
        L = 1.000001 * largest_gram_eigenvalue(ex1_phi)
        x = np.ones(3)
        for mu in mus:
            x, _ = ista_stage(ex1_phi, ex1_b, np.ones(3), float(mu), L,
                              x, 1e-4 * float(mu), 5000)
        assert np.abs(x - np.array([0.75, 0.75, 0.0])).max() <= 1e-2

    def test_cap_flags_non_convergence(self, ex1_phi, ex1_b):
        x, inner = ista_stage(ex1_phi, ex1_b, np.ones(3), 0.01, 1.0, np.ones(3), 0.0, 1)
        assert not inner.converged
        assert inner.iterations == 1

    def test_objective_never_increases(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            phi = rng.standard_normal((6, 10))
            b = rng.standard_normal(6)
            w = rng.uniform(0.2, 1.0, 10)
            L = 1.000001 * largest_gram_eigenvalue(phi)
            _, inner = ista_stage(phi, b, w, 0.3, L, np.ones(10), 1e-10, 2000)
            objs = np.array(inner.objectives)
            assert np.all(np.diff(objs) <= 1e-12)

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        w = np.ones(8)
        mu = 0.5
        L = 1.000001 * largest_gram_eigenvalue(phi)
        x, inner = ista_stage(phi, b, w, mu, L, np.ones(8), 0.0, 20000)
        assert inner.converged  # reached a bitwise fixed point
        again = soft_threshold(x - (phi.T @ (phi @ x - b)) / L, (mu / L) * w)
        assert np.abs(again - x).max() <= 1e-14

    def test_support_needs_no_tolerance(self):
        rng = np.random.default_rng(12)
        phi = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        L = 1.000001 * largest_gram_eigenvalue(phi)
        x, _ = ista_stage(phi, b, np.ones(9), 1.0, L, np.ones(9), 1e-8, 5000)
        small = np.abs(x[x != 0.0])
        if small.size:
            assert small.min() > 0.0  # nonzeros are honest nonzeros
        assert np.count_nonzero(x) == int(np.sum(x != 0.0))

    def test_validation(self, ex1_phi, ex1_b):
        with pytest.raises(ValueError):
            ista_stage(ex1_phi, ex1_b, np.zeros(3), 0.1, 1.0, np.ones(3), 1e-4, 10)
        with pytest.raises(ValueError):
            ista_stage(ex1_phi, ex1_b, np.ones(3), -0.1, 1.0, np.ones(3), 1e-4, 10)
        with pytest.raises(ValueError):
            ista_stage(ex1_phi, ex1_b, np.ones(3), 0.1, 0.0, np.ones(3), 1e-4, 10)
        with pytest.raises(ValueError):
            ista_stage(ex1_phi, ex1_b, np.ones(3), 0.1, 1.0, np.ones(3), 1e-4, 0)

    @pytest.mark.parametrize("cap", [2.5, 10.0, True])
    def test_non_integer_cap_rejected(self, ex1_phi, ex1_b, cap):
        with pytest.raises(ValueError, match="cap must be an integer"):
            ista_stage(ex1_phi, ex1_b, np.ones(3), 0.1, 1.0, np.ones(3), 1e-4, cap)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.1"])
    @pytest.mark.parametrize("slot", ["mu", "L", "eta"])
    def test_penalty_step_and_tolerance_must_be_finite_numbers(self, ex1_phi, ex1_b, slot, value):
        args = {"mu": 0.1, "L": 2.0, "eta": 1e-3}
        args[slot] = value
        with pytest.raises(ValueError, match="must be (a number|finite)"):
            ista_stage(ex1_phi, ex1_b, np.ones(3), args["mu"], args["L"], np.ones(3), args["eta"], 10)


def _reference_ista_loop(phi, b, weights, mu, L, x_init, eta, cap):
    """The inner loop as written when every iteration called the validated
    ``soft_threshold``; returns what ``ista_stage`` reports."""
    x = x_init.copy()
    thresholds = (mu / L) * weights
    r = phi @ x - b
    objectives = [0.5 * float(r @ r) + mu * float(np.sum(weights * np.abs(x)))]
    step = float("nan")
    for it in range(1, cap + 1):
        x_next = soft_threshold(x - (phi.T @ r) / L, thresholds)
        step = float(np.linalg.norm(x_next - x))
        r = phi @ x_next - b
        objectives.append(0.5 * float(r @ r) + mu * float(np.sum(weights * np.abs(x_next))))
        stop = step < eta * max(1.0, float(np.linalg.norm(x))) or step == 0.0
        x = x_next
        if stop:
            return x, it, step, True, objectives
    return x, cap, step, False, objectives


def _at_offset(a, offset, order="C"):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte line."""
    buf = np.empty(a.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start : start + a.size].reshape(a.shape, order=order)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


class TestAlignment:
    @pytest.mark.parametrize("shape", [(1,), (7,), (512,), (7, 16)])
    def test_empty_starts_on_a_cache_line(self, shape):
        v = solver_module._aligned_empty(shape)
        assert v.shape == shape and v.dtype == np.float64 and v.flags.c_contiguous
        assert v.ctypes.data % 64 == 0

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("offset", [8, 16, 32, 48])
    def test_copy_keeps_values_and_order(self, order, offset):
        a = np.random.default_rng(offset).standard_normal((5, 9))
        src = _at_offset(a, offset, order)
        out = solver_module._aligned(src)
        assert out.ctypes.data % 64 == 0
        assert out.tobytes(order="A") == src.tobytes(order="A")
        assert out.flags.c_contiguous == src.flags.c_contiguous
        assert out.flags.f_contiguous == src.flags.f_contiguous
        assert not np.shares_memory(out, src)

    def test_aligned_and_strided_arrays_are_returned_as_they_are(self):
        a = _at_offset(np.ones((4, 6)), 0)
        assert solver_module._aligned(a) is a
        strided = _at_offset(np.ones((4, 12)), 16)[:, ::2]
        assert solver_module._aligned(strided) is strided


class TestIstaLoopReference:
    @staticmethod
    def _compare(shape, eta_factor, cap, mu_factor=0.1):
        m, n = shape
        rng = np.random.default_rng(m * n)
        phi = rng.standard_normal(shape)
        x0 = np.zeros(n)
        x0[rng.permutation(n)[: m // 4]] = rng.standard_normal(m // 4)
        b = phi @ x0
        w = rng.uniform(0.5, 1.0, n)
        mu = mu_factor * float(np.abs(phi.T @ b).max())
        L = 1.000001 * largest_gram_eigenvalue(phi)
        eta = eta_factor * mu
        x, inner = ista_stage(phi, b, w, mu, L, np.ones(n), eta, cap)
        want_x, iters, step, converged, objectives = _reference_ista_loop(
            phi, b, w, mu, L, np.ones(n), eta, cap)
        assert x.tobytes() == want_x.tobytes()  # signed zeros included
        assert inner.objectives == objectives
        assert inner.iterations == iters
        assert inner.final_step_norm == step
        assert inner.converged == converged
        return x, inner

    @pytest.mark.parametrize(
        "shape, eta_factor, cap",
        [(shape, eta, 5000) for shape in ((8, 16), (32, 128)) for eta in (1e-4, 1e-8, 0.0)]
        + [((32, 128), 1e-8, 3)],
    )
    def test_bitwise_equal_to_validated_loop(self, shape, eta_factor, cap):
        _, inner = self._compare(shape, eta_factor, cap)
        if cap == 3:
            assert inner.iterations == 3 and not inner.converged

    def test_large_matrix(self):
        self._compare((128, 512), 1e-4, 5000)

    def test_no_shrinkage_at_mu_zero(self):
        self._compare((32, 128), 0.0, 2000, mu_factor=0.0)

    @pytest.mark.parametrize("rows, cols", [(slice(None), slice(None, None, 2)),
                                            (slice(None, None, 2), slice(None))])
    def test_strided_matrix(self, rows, cols):
        rng = np.random.default_rng(44)
        phi = rng.standard_normal((64, 256))[rows, cols]
        n = phi.shape[1]
        b = phi[:, :4] @ rng.standard_normal(4)
        w = rng.uniform(0.5, 1.0, n)
        mu = 0.01 * float(np.abs(phi.T @ b).max())
        L = 1.000001 * largest_gram_eigenvalue(phi)
        x, inner = ista_stage(phi, b, w, mu, L, np.ones(n), 1e-6 * mu, 2000)
        want_x, iters, _, _, objectives = _reference_ista_loop(
            phi, b, w, mu, L, np.ones(n), 1e-6 * mu, 2000)
        assert x.tobytes() == want_x.tobytes()
        assert inner.objectives == objectives and inner.iterations == iters

    @pytest.mark.parametrize("offset", [0, 8, 16, 32, 48])
    def test_matrix_offset_changes_no_bit(self, offset):
        # ista_stage copies a matrix that is off a 64-byte line; the copy
        # must give the bits of the reference loop on the original.
        rng = np.random.default_rng(45)
        m, n = 32, 128
        phi = _at_offset(rng.standard_normal((m, n)), offset)
        b = phi[:, :4] @ rng.standard_normal(4)
        w = rng.uniform(0.5, 1.0, n)
        x0 = rng.standard_normal(n)
        before = (phi.tobytes(), x0.tobytes())
        mu = 0.05 * float(np.abs(phi.T @ b).max())
        L = 1.000001 * largest_gram_eigenvalue(phi)
        x, inner = ista_stage(phi, b, w, mu, L, x0, 1e-8 * mu, 3000)
        want_x, iters, _, _, objectives = _reference_ista_loop(
            phi, b, w, mu, L, x0, 1e-8 * mu, 3000)
        assert x.tobytes() == want_x.tobytes()
        assert inner.objectives == objectives and inner.iterations == iters
        assert (phi.tobytes(), x0.tobytes()) == before

    def test_stage_ending_on_a_zero_step(self):
        # 0 is optimal and eta is 0, so only an exactly repeated iterate stops it.
        x, inner = self._compare((8, 16), 0.0, 5000, mu_factor=2.0)
        assert inner.final_step_norm == 0.0 and inner.converged and inner.iterations < 5000
        assert not np.any(x)

    @pytest.mark.parametrize("mu", [0.1, 0.0])
    def test_gradient_step_of_negative_zero(self, mu):
        # The zero column keeps x_1 - phi_1^T r / L at -0.0, and np.sign(-0.0)
        # is +0, so the entry comes out +0 where copysign would give -0.0.
        phi = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        b, x0 = np.array([1.0, 0.5]), np.array([0.5, -0.0, 0.2])
        x, inner = ista_stage(phi, b, np.ones(3), mu, 6.0, x0, 0.0, 50)
        want_x, iters, step, converged, objectives = _reference_ista_loop(
            phi, b, np.ones(3), mu, 6.0, x0, 0.0, 50)
        assert x.tobytes() == want_x.tobytes() and not np.signbit(x[1])
        assert (inner.iterations, inner.final_step_norm, inner.converged) == (iters, step, converged)
        assert inner.objectives == objectives


def _block_problem():
    rng = np.random.default_rng(46)
    phi = rng.standard_normal((8, 16))
    b = phi[:, :2] @ rng.standard_normal(2)
    w = rng.uniform(0.5, 1.0, 16)
    mu = 0.05 * float(np.abs(phi.T @ b).max())
    return phi, b, w, mu, 1.000001 * largest_gram_eigenvalue(phi), np.zeros(16)


def _eta_stopping_at(problem, stop):
    """An ``eta`` whose stop test first comes out true at iteration ``stop``."""
    phi, b, w, mu, L, x = problem
    ratios = []
    for _ in range(stop):
        x_next, _, step, _, _ = _reference_ista_loop(phi, b, w, mu, L, x, 0.0, 1)
        ratios.append(step / max(1.0, float(np.linalg.norm(x))))
        x = x_next
    before = min(ratios[:-1], default=2.0 * ratios[-1])
    assert ratios[-1] < before
    return 0.5 * (ratios[-1] + before)


_K = solver_module._BLOCK


class TestIstaBlocks:
    """The blocked loop against the reference where a block starts or ends."""

    @staticmethod
    def _compare(problem, eta, cap):
        x, inner = ista_stage(*problem, eta, cap)
        want_x, iters, step, converged, objectives = _reference_ista_loop(*problem, eta, cap)
        assert x.tobytes() == want_x.tobytes()
        assert inner.objectives == objectives
        assert (inner.iterations, inner.final_step_norm, inner.converged) == (iters, step, converged)
        return inner

    @pytest.mark.parametrize("stop", [1, 2, _K - 1, _K, _K + 1, 2 * _K, 2 * _K + 1])
    def test_stop_at_a_block_boundary(self, stop):
        problem = _block_problem()
        inner = self._compare(problem, _eta_stopping_at(problem, stop), 10 * _K)
        assert inner.iterations == stop and inner.converged
        assert len(inner.objectives) == stop + 1

    @pytest.mark.parametrize("cap", [1, _K - 1, _K, _K + 1, 2 * _K + 5])
    def test_cap_around_the_block_length(self, cap):
        inner = self._compare(_block_problem(), 0.0, cap)
        assert inner.iterations == cap and not inner.converged

    def test_stop_at_the_cap(self):
        problem = _block_problem()
        inner = self._compare(problem, _eta_stopping_at(problem, _K + 3), _K + 3)
        assert inner.iterations == _K + 3 and inner.converged

    def test_exact_repeat_on_the_first_step(self):
        # With weights of at least 1/2, mu = 4 max|phi_j^T b| thresholds the
        # first gradient step to signed zeros, so step 1 is exactly 0.
        phi, b, w, mu, L, x0 = _block_problem()
        mu = 4.0 * float(np.abs(phi.T @ b).max())
        inner = self._compare((phi, b, w, mu, L, x0), 0.0, 10 * _K)
        assert inner.iterations == 1 and inner.final_step_norm == 0.0 and inner.converged


class TestSignedZeroPins:
    """Dyadic stages whose answers carry a signed zero, against the reference."""

    @staticmethod
    def _stage(phi, b, mu, L):
        phi, b = np.array(phi), np.array(b)
        problem = (phi, b, np.ones(phi.shape[1]), mu, L, np.zeros(phi.shape[1]), 0.0, 10)
        x, inner = ista_stage(*problem)
        want_x, iters, step, converged, objectives = _reference_ista_loop(*problem)
        assert x.tobytes() == want_x.tobytes()
        assert (inner.iterations, inner.final_step_norm, inner.converged) == (iters, step, converged)
        assert inner.objectives == objectives
        return x

    def test_gradient_step_on_the_lower_threshold_gives_negative_zero(self):
        # v = -0.5 == -t exactly, so sign(v) * max(|v| - t, 0) is -0.0.
        x = self._stage([[1.0]], [-0.5], 0.5, 1.0)
        assert x[0] == 0.0 and np.signbit(x[0])

    def test_gradient_step_on_the_upper_threshold_gives_positive_zero(self):
        x = self._stage([[1.0]], [0.5], 0.5, 1.0)
        assert x[0] == 0.0 and not np.signbit(x[0])

    def test_negative_zero_beside_a_shrunk_entry(self):
        x = self._stage([[2.0, 0.0], [0.0, 1.0]], [-1.0, -0.25], 0.25, 4.0)
        assert x.tolist() == [-0.4375, 0.0] and np.signbit(x).tolist() == [True, True]


class TestBatchedRowInvariants:
    """The batched calls after a block give each row the bits of the 1-d call."""

    @staticmethod
    def _row_views(n):
        wide = np.random.default_rng(n).standard_normal((17, 520))
        return wide[:, :n], wide[1:16:3, 3 : n + 3], np.ascontiguousarray(wide[:, :n])

    @pytest.mark.parametrize("n", [1, 5, 13, 127, 129, 300, 515])
    def test_stacked_matmul_row_dots_are_vector_dots(self, n):
        for rows in self._row_views(n):
            want = np.array([row.dot(row) for row in rows])
            assert solver_module._row_dots(rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 5, 13, 127, 129, 300, 515])
    def test_row_sums_are_vector_sums(self, n):
        for rows in self._row_views(n):
            want = np.array([np.add.reduce(row) for row in rows])
            assert np.add.reduce(rows, axis=1).tobytes() == want.tobytes()


_ROWS = solver_module._ring_rows(16)


class TestPredictedBlocks:
    """Blocks longer than ``_BLOCK``, sized by a prediction of the stop,
    against the reference; ``computed`` counts the discarded iterations."""

    @staticmethod
    def _compare(problem, eta, cap):
        inner = TestIstaBlocks._compare(problem, eta, cap)
        n = problem[0].shape[1]
        assert inner.iterations <= inner.computed < inner.iterations + solver_module._ring_rows(n)
        return inner

    def test_ring_rows(self):
        assert _ROWS == solver_module._ring_rows(128) == 4 * _K
        assert solver_module._ring_rows(129) == 63
        assert solver_module._ring_rows(512) == solver_module._ring_rows(600) == _K

    @pytest.mark.parametrize("stop", [1, _K - 1, _K + 1, _ROWS - 1, _ROWS, _ROWS + 1, 80, 129])
    def test_stop_around_a_long_block(self, stop):
        problem = _block_problem()
        inner = self._compare(problem, _eta_stopping_at(problem, stop), 10 * _ROWS)
        assert inner.iterations == stop and inner.converged

    @pytest.mark.parametrize("cap", [1, _K - 1, _K + 1, _ROWS - 1, _ROWS, _ROWS + 1, 80, 129])
    def test_cap_around_a_long_block(self, cap):
        # eta = 0 makes q infinite, so every block after the first is a long one.
        inner = self._compare(_block_problem(), 0.0, cap)
        assert inner.iterations == inner.computed == cap and not inner.converged

    @staticmethod
    def _shrinking_problem(mu_factor, scale):
        """The block problem started at ``scale * ones`` with ``mu`` at
        ``mu_factor * max|phi_j^T b|``, and its first ratios ``q * eta``."""
        phi, b, w, _, L, _ = _block_problem()
        problem = (phi, b, w, mu_factor * float(np.abs(phi.T @ b).max()), L, scale * np.ones(16))
        x, ratios = problem[-1], []
        for _ in range(_K + _ROWS):
            x_next, _, step, _, _ = _reference_ista_loop(*problem[:-1], x, 0.0, 1)
            ratios.append(step / max(1.0, float(np.linalg.norm(x))))
            x = x_next
        return problem, ratios

    def test_ratio_rising_inside_a_block(self):
        # ||x|| shrinks faster than the step for a while after the first
        # block, so q rises inside the second and falls again later.
        problem, ratios = self._shrinking_problem(1.0, 3.0)
        assert ratios[_K] < ratios[_K + 10] and ratios[_K + _ROWS - 1] < ratios[_K]
        inner = self._compare(problem, _eta_stopping_at(problem, 100), 10 * _ROWS)
        assert inner.iterations == 100 and inner.converged

    def test_ratio_rising_across_a_block(self):
        # q falls by 27x over the first block, which predicts more than a
        # long block at eta = 1e-12, and then rises across the second one.
        problem, ratios = self._shrinking_problem(2.0, 20.0)
        assert ratios[_K - 1] < ratios[0] / 20 and ratios[_K] < ratios[_K + _ROWS - 1]
        inner = self._compare(problem, 1e-12, 10 * _ROWS)
        assert inner.converged and inner.iterations > _K + _ROWS

    def test_exact_repeat_with_eta_zero(self):
        # 0 is optimal at mu = 2 max|phi_j^T b|: the step reaches exactly 0
        # after some long blocks, with q infinite throughout.
        phi, b, w, _, L, _ = _block_problem()
        problem = (phi, b, w, 2.0 * float(np.abs(phi.T @ b).max()), L, 3.0 * np.ones(16))
        inner = self._compare(problem, 0.0, 10 * _ROWS)
        assert inner.final_step_norm == 0.0 and inner.converged and inner.iterations > _K

    @pytest.mark.parametrize("shape", [(128, 512), (48, 600)])
    def test_blocks_stay_short_from_512_columns(self, shape):
        rng = np.random.default_rng(shape[1])
        phi = rng.standard_normal(shape)
        b = phi[:, :8] @ rng.standard_normal(8)
        w = rng.uniform(0.5, 1.0, shape[1])
        mu = 0.05 * float(np.abs(phi.T @ b).max())
        problem = (phi, b, w, mu, 1.000001 * largest_gram_eigenvalue(phi), np.ones(shape[1]))
        inner = self._compare(problem, 1e-6 * mu, 2000)
        assert inner.iterations > 2 * _K and inner.computed - inner.iterations < _K

    @pytest.mark.parametrize("scheme", [Identity(), Classic(), NullspaceGuided()])
    def test_every_stage_discards_less_than_a_block(self, scheme):
        rng = np.random.default_rng(47)
        phi = rng.standard_normal((32, 128))
        x0 = np.zeros(128)
        x0[rng.permutation(128)[:5]] = rng.standard_normal(5)
        report = solve(phi, phi @ x0, scheme)
        for stage in report.stages:
            assert 0 <= stage.computed_iterations - stage.inner_iterations < _ROWS
        assert sum(s.computed_iterations for s in report.stages) > sum(
            s.inner_iterations for s in report.stages)


class TestNullspaceWeights:
    def test_reference_update_with_exact_tie(self):
        # h = (0.1, -0.1, 0.2): the two 0.1 magnitudes tie bitwise and the
        # smaller index wins the second slot of T.
        w = update_weights_nullspace(np.array([0.0, 0.1, 0.0]),
                                     np.array([0.1, 0.0, 0.2]), NullspaceGuided(0.5, 1e-4))
        assert w[1] == 1.0
        assert w[0] == pytest.approx((1.001) ** -0.5, rel=1e-12)
        assert w[2] == pytest.approx((2.001) ** -0.5, rel=1e-12)
        assert np.allclose(w, [0.9995003746877731, 1.0, 0.7069300707549023], rtol=1e-12)

    def test_q_one_degenerates_to_ones(self):
        rng = np.random.default_rng(0)
        w = update_weights_nullspace(rng.standard_normal(6), rng.standard_normal(6),
                                     NullspaceGuided(1.0, 1e-4))
        assert np.array_equal(w, np.ones(6))

    def test_zero_support_gives_ones(self):
        w = update_weights_nullspace(np.array([1.0, 2.0]), np.zeros(2),
                                     NullspaceGuided(0.5, 1e-4))
        assert np.array_equal(w, np.ones(2))

    def test_full_support_uses_eps_denominator(self):
        x_prev = np.zeros(2)
        x_curr = np.array([0.2, 0.1])
        w = update_weights_nullspace(x_prev, x_curr, NullspaceGuided(0.5, 1e-4))
        assert w[0] == pytest.approx((0.2001 / 1e-4) ** -0.5, rel=1e-12)
        assert w[1] == pytest.approx((0.1001 / 1e-4) ** -0.5, rel=1e-12)

    def test_zero_off_support_step_uses_eps_denominator(self):
        x_prev = np.array([0.0, 0.0, 0.5])
        x_curr = np.array([0.3, 0.0, 0.5])
        # h = (0.3, 0, 0): one nonzero of x_curr... supp = {0, 2}, T = top-2 of h
        w = update_weights_nullspace(x_prev, x_curr, NullspaceGuided(0.5, 1e-4))
        assert w[0] == pytest.approx((0.3001 / 1e-4) ** -0.5, rel=1e-12)
        assert w[1] == pytest.approx((1e-4 / 1e-4) ** -0.5, rel=1e-12)  # |h|=0 inside T
        assert w[2] == 1.0

    def test_weights_lie_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x_prev = rng.standard_normal(12)
            x_curr = rng.standard_normal(12)
            x_curr[rng.random(12) < 0.4] = 0.0
            scheme = NullspaceGuided(rng.uniform(0.05, 1.0), 1e-4)
            w = update_weights_nullspace(x_prev, x_curr, scheme)
            assert np.all(w > 0.0) and np.all(w <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            update_weights_nullspace(np.ones(3), np.ones(2), NullspaceGuided())


class TestClassicWeights:
    def test_reference_values(self):
        assert update_weights_classic(np.array([3.0]), Classic(0.5, 1e-4))[0] == pytest.approx(
            0.5773406469256952, rel=1e-12)
        assert update_weights_classic(np.array([0.0]), Classic(0.0, 1e-4))[0] == pytest.approx(
            1e4, rel=1e-12)
        assert update_weights_classic(np.array([1.0]), Classic(0.0, 1e-4))[0] == pytest.approx(
            0.9999000099990001, rel=1e-12)

    def test_weights_can_exceed_one(self):
        w = update_weights_classic(np.zeros(4), Classic(0.5, 1e-4))
        assert np.all(w > 1.0)


class TestSchemeValidation:
    def test_classic_q_range(self):
        with pytest.raises(ValueError):
            Classic(q=1.0)
        with pytest.raises(ValueError):
            Classic(q=-0.1)

    def test_nullspace_q_range(self):
        with pytest.raises(ValueError):
            NullspaceGuided(q=0.0)
        with pytest.raises(ValueError):
            NullspaceGuided(q=1.1)

    def test_eps_positive(self):
        with pytest.raises(ValueError):
            Classic(eps=0.0)
        with pytest.raises(ValueError):
            NullspaceGuided(eps=-1e-4)
        with pytest.raises(ValueError, match="eps must be finite"):
            Classic(eps=float("nan"))
        with pytest.raises(ValueError, match="eps must be finite"):
            NullspaceGuided(eps=float("inf"))

    def test_fixed_weight_range(self):
        with pytest.raises(ValueError):
            Fixed(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            Fixed(np.array([1.0, 1.5]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(stages=0)
        with pytest.raises(ValueError):
            SolverConfig(mu_decay=1.0)
        with pytest.raises(ValueError):
            SolverConfig(eta_factor=0.0)
        with pytest.raises(ValueError, match="eta_factor must be a number"):
            SolverConfig(eta_factor=True)
        with pytest.raises(ValueError, match="eta_factor must be finite"):
            SolverConfig(eta_factor=float("nan"))
        with pytest.raises(ValueError):
            SolverConfig(inner_cap=0)

    def test_config_rejects_non_integer_counts(self):
        for bad in ({"stages": 2.5}, {"stages": 3.0}, {"stages": True},
                    {"inner_cap": 50.0}, {"inner_cap": False}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                SolverConfig(**bad)


class TestSolve:
    def test_zero_rhs_returns_exact_zero(self, ex1_phi):
        report = solve(ex1_phi, np.zeros(2), Identity())
        assert np.abs(report.x).max() <= 1e-10
        assert np.count_nonzero(report.x) == 0

    def test_identity_scheme_reference(self, ex1_phi, ex1_b):
        report = solve(ex1_phi, ex1_b, Identity())
        assert np.abs(report.x - np.array([0.75, 0.75, 0.0])).max() <= 1e-2
        assert report.converged

    def test_fixed_scheme_reference(self, ex1_phi, ex1_b):
        report = solve(ex1_phi, ex1_b, Fixed(np.array([1.0, 1.0, 0.7])))
        assert np.abs(report.x - np.array([0.0, 0.0, 2.0])).max() <= 1e-2

    def test_diagnostics_shape(self, ex1_phi, ex1_b):
        report = solve(ex1_phi, ex1_b, NullspaceGuided(), SolverConfig(stages=5))
        assert len(report.stages) == 5
        assert len(report.objective_history) == 5
        assert [s.stage for s in report.stages] == [1, 2, 3, 4, 5]
        mus = [s.mu for s in report.stages]
        assert np.allclose(np.array(mus[1:]) / np.array(mus[:-1]), 0.2, rtol=1e-12)
        for s in report.stages:
            assert s.weights.shape == (3,)
        assert report.total_seconds >= 0.0

    def test_stage_one_weights_are_ones_for_adaptive_schemes(self, ex1_phi, ex1_b):
        for scheme in (Identity(), Classic(), NullspaceGuided()):
            report = solve(ex1_phi, ex1_b, scheme, SolverConfig(stages=2))
            assert np.array_equal(report.stages[0].weights, np.ones(3))

    def test_fixed_weights_used_from_stage_one(self, ex1_phi, ex1_b):
        w = np.array([1.0, 1.0, 0.7])
        report = solve(ex1_phi, ex1_b, Fixed(w), SolverConfig(stages=2))
        assert np.array_equal(report.stages[0].weights, w)
        assert np.array_equal(report.stages[1].weights, w)

    def test_objective_monotone_within_stages(self, ex1_phi, ex1_b):
        report = solve(ex1_phi, ex1_b, NullspaceGuided(), SolverConfig(stages=4))
        for objs in report.objective_history:
            assert np.all(np.diff(np.array(objs)) <= 1e-12)

    def test_identity_final_stage_matches_lp(self):
        rng = np.random.default_rng(21)
        phi = rng.standard_normal((6, 12))
        x0 = np.zeros(12)
        x0[[2, 7]] = rng.standard_normal(2)
        b = phi @ x0
        got = solve(phi, b, Identity()).x
        want = l1_min_exact(phi, b)
        assert np.abs(got - want).max() <= 1e-3

    def test_dimension_mismatch(self, ex1_phi):
        with pytest.raises(ValueError):
            solve(ex1_phi, np.zeros(3), Identity())
        with pytest.raises(ValueError):
            solve(ex1_phi, np.zeros(2), Fixed(np.array([1.0, 1.0])))

    def test_unknown_scheme_rejected(self, ex1_phi, ex1_b):
        with pytest.raises(TypeError):
            solve(ex1_phi, ex1_b, "nullspace")

    @pytest.mark.parametrize(
        "scheme, update",
        [(NullspaceGuided(), "update_weights_nullspace"), (Classic(), "update_weights_classic")],
    )
    def test_one_weight_update_between_consecutive_stages(
        self, ex1_phi, ex1_b, monkeypatch, scheme, update
    ):
        original = getattr(solver_module, update)
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver_module, update, counted)
        report = solve(ex1_phi, ex1_b, scheme, SolverConfig(stages=8))
        assert len(report.stages) == 8
        assert len(calls) == 7

    def test_nonconvergence_reported_not_raised(self, ex1_phi, ex1_b):
        report = solve(ex1_phi, ex1_b, Identity(), SolverConfig(inner_cap=1))
        assert not report.converged
        assert any(not s.converged for s in report.stages)

    def test_stage_seconds_and_step_bound(self, ex1_phi, ex1_b):
        report = solve(ex1_phi, ex1_b, NullspaceGuided())
        seconds = [s.seconds for s in report.stages]
        assert all(t > 0.0 for t in seconds)
        assert sum(seconds) <= report.total_seconds
        assert report.step_bound_seconds > 0.0
        assert report.step_bound_seconds + sum(seconds) <= report.total_seconds
        assert report.step_bound == 1.000001 * largest_gram_eigenvalue(ex1_phi)
        assert solve(np.zeros((2, 3)), np.ones(2), Identity()).step_bound == 1.0

    def test_fixed_weight_count_checked_before_the_step_bound(self, ex1_phi, ex1_b, monkeypatch):
        def step_bound(phi):
            raise AssertionError("the step bound was computed")

        monkeypatch.setattr(solver_module, "largest_gram_eigenvalue", step_bound)
        with pytest.raises(ValueError, match="fixed weights have 2 entries, expected 3"):
            solve(ex1_phi, ex1_b, Fixed(np.array([1.0, 1.0])))
