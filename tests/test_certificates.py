"""Exact certificates: kernel vertex enumeration, NSP/WNSP, dominant support,
gamma intervals, exact RIC/ROC, bound formulas, LP oracle."""

import contextlib
import itertools
import math
import os
import signal
from fractions import Fraction

import numpy as np
import pytest

from wl1min import certificates
from wl1min import (
    EnumerationCapExceeded,
    InfeasibleSystem,
    check_nsp,
    check_wnsp,
    compute_ric,
    compute_roc,
    dominant_support,
    downweight_interval,
    kernel_basis,
    l1_min_exact,
    l1ball_section_vertices,
    recovery_trial,
    ric_bound_plain_order,
    ric_bound_plain_order_infimum,
    ric_bound_scaled_order,
)


def _contains_vertex(vertices: np.ndarray, v, tol=1e-9) -> bool:
    v = np.asarray(v, dtype=float)
    for row in vertices:
        if np.abs(row - v).max() <= tol or np.abs(row + v).max() <= tol:
            return True
    return False


def _topk_mass(vertex: np.ndarray, k: int) -> float:
    return float(np.sort(np.abs(vertex))[::-1][:k].sum())


@contextlib.contextmanager
def _deadline(seconds: float):
    """Turn a call that runs longer than ``seconds`` into a ``TimeoutError``."""

    def expire(signum, frame):
        raise TimeoutError(f"call ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestVertexEnumeration:
    def test_line_kernel_two_antipodal_vertices(self, ex1_phi):
        vs = l1ball_section_vertices(kernel_basis(ex1_phi))
        assert vs.vertices.shape == (2, 3)
        assert _contains_vertex(vs.vertices, [3 / 14, 3 / 14, -4 / 7])
        assert np.allclose(vs.vertices[0], -vs.vertices[1], atol=1e-12)

    def test_plane_kernel_vertex_list(self, ex2_phi):
        vs = l1ball_section_vertices(kernel_basis(ex2_phi))
        assert vs.vertices.shape[0] == 8  # 4 vertex pairs
        assert not vs.had_degenerate_zero_set
        assert _contains_vertex(vs.vertices, [2 / 11, -3 / 11, 0.0, -6 / 11, 0.0])

    def test_vertices_unit_l1_and_negation_closed(self, ex2_phi):
        vs = l1ball_section_vertices(kernel_basis(ex2_phi))
        for row in vs.vertices:
            assert np.abs(row).sum() == pytest.approx(1.0, abs=1e-10)
            assert _contains_vertex(vs.vertices, -row)

    def test_no_duplicates(self, ex2_phi):
        vs = l1ball_section_vertices(kernel_basis(ex2_phi))
        for i in range(len(vs.vertices)):
            for j in range(i + 1, len(vs.vertices)):
                assert np.abs(vs.vertices[i] - vs.vertices[j]).max() > 1e-9

    def test_empty_basis_gives_empty_set(self):
        vs = l1ball_section_vertices(kernel_basis(np.eye(3)))
        assert vs.vertices.shape[0] == 0

    def test_random_line_kernels(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.standard_normal((5, 6))
            vs = l1ball_section_vertices(kernel_basis(a))
            assert vs.vertices.shape[0] == 2
            assert np.allclose(vs.vertices[0], -vs.vertices[1], atol=1e-12)
            assert (vs.zero_sets, vs.degenerate_sets) == (1, 0)

    def test_cap_refusal(self, ex2_phi):
        with pytest.raises(EnumerationCapExceeded) as err:
            l1ball_section_vertices(kernel_basis(ex2_phi), max_zero_sets=2)
        assert err.value.required == math.comb(5, 1)
        assert err.value.cap == 2

    def test_vertex_max_dominates_random_sampling(self):
        # the top-k mass over the whole kernel section is attained at a vertex
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = rng.standard_normal((6, 8))
            basis = kernel_basis(a)
            assert basis.shape[1] == 2
            vs = l1ball_section_vertices(basis)
            theta = np.linspace(0.0, np.pi, 100_000, endpoint=False)
            coeffs = np.column_stack([np.cos(theta), np.sin(theta)])
            for k in (1, 2):
                vertex_max = max(_topk_mass(v, k) for v in vs.vertices)
                samples = coeffs @ basis.T
                samples /= np.abs(samples).sum(axis=1, keepdims=True)
                mags = np.sort(np.abs(samples), axis=1)[:, ::-1]
                sampled_max = float(mags[:, :k].sum(axis=1).max())
                assert vertex_max >= sampled_max - 1e-12
                assert vertex_max == pytest.approx(sampled_max, abs=1e-3)

    def test_counters_on_a_generic_kernel(self):
        basis = kernel_basis(np.random.default_rng(31).standard_normal((8, 12)))
        vs = l1ball_section_vertices(basis)
        assert (vs.zero_sets, vs.degenerate_sets) == (math.comb(12, 3), 0)

    def test_kernel_on_zero_columns(self):
        # The kernel is span{e4, e5}: every base zero set {j}, j < 3, meets it
        # in dimension 2, and the recursion emits e5 or e4 once one of the
        # last two coordinates is forced to zero as well.
        phi = np.hstack([np.eye(3), np.zeros((3, 2))])
        vs = l1ball_section_vertices(kernel_basis(phi))
        assert vs.had_degenerate_zero_set
        assert vs.vertices.shape == (4, 5)
        for j in (3, 4):
            assert _contains_vertex(vs.vertices, np.eye(5)[j])
        assert vs.degenerate_sets >= 3
        assert vs.zero_sets > vs.degenerate_sets

    def test_degenerate_recursion_counts_against_the_cap(self):
        # C(14, 2) = 91 base zero sets fit the cap; the one degenerate pair
        # {0, 1} spawns twelve more.
        basis = kernel_basis(_tied_pair_phi())
        assert l1ball_section_vertices(basis).zero_sets == 103
        with pytest.raises(EnumerationCapExceeded) as err:
            l1ball_section_vertices(basis, max_zero_sets=100)
        assert err.value.cap == 100
        assert err.value.required == 101
        assert "degenerate recursion" in str(err.value)

    def test_degenerate_zero_sets_collapse_to_their_closure(self):
        # Every base zero set {j}, j < 16, meets the kernel span{e16, e17} in
        # dimension 2 and vanishes on coordinates 0-15; forcing them all at
        # once leaves two children, where one zero at a time took 196,607.
        vs = l1ball_section_vertices(kernel_basis(np.hstack([np.eye(16), np.zeros((16, 2))])))
        assert (vs.zero_sets, vs.degenerate_sets) == (20, 16)
        assert vs.vertices.shape == (4, 18)
        for j in (16, 17):
            assert _contains_vertex(vs.vertices, np.eye(18)[j])

    @pytest.mark.parametrize(
        "basis",
        [[[np.nan], [1.0]], [[1.0, 0.0], [0.0, np.inf], [0.0, 0.0]], [[1.0, 0.0], [-np.inf, 1.0]]],
    )
    def test_non_finite_basis_rejected(self, basis):
        with pytest.raises(ValueError, match="finite"):
            l1ball_section_vertices(np.array(basis))

    def test_zero_candidate_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            l1ball_section_vertices(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="rank-deficient"):
            l1ball_section_vertices(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))

    def test_zero_width_basis_gives_empty_set(self):
        vs = l1ball_section_vertices(np.zeros((3, 0)))
        assert vs.vertices.shape == (0, 3)
        assert (vs.zero_sets, vs.had_degenerate_zero_set) == (0, False)

    @pytest.mark.parametrize("cap", [0, -5, True, 2.0, None])
    def test_cap_must_be_a_positive_integer(self, ex2_phi, cap):
        basis = kernel_basis(ex2_phi)
        with pytest.raises(ValueError, match="max_zero_sets"):
            l1ball_section_vertices(basis, max_zero_sets=cap)
        with pytest.raises(ValueError, match="max_zero_sets"):
            check_nsp(np.eye(3), 1, max_zero_sets=cap)  # trivial kernel, no enumeration


def _tied_pair_phi():
    """An 11x14 matrix whose kernel satisfies ``h_0 = h_1``: the zero set
    {0, 1} is the only degenerate one, and forcing it vanishes on nothing
    else."""
    rng = np.random.default_rng(12)
    return np.vstack([np.eye(1, 14, 0) - np.eye(1, 14, 1), rng.standard_normal((10, 14))])


def _reference_nullspace_of_rows(rows, width):
    if rows.shape[0] == 0:
        return np.eye(width)
    _, s, vh = np.linalg.svd(rows)
    tol = 1e-10 * float(s[0]) * max(rows.shape)
    return vh[int(np.count_nonzero(s > tol)):].T


def _greedy_dedupe(candidates):
    """The candidates, in order, farther than 1e-9 in max norm from every
    earlier one kept; each is compared with all kept ones at once."""
    kept = []
    for v in candidates:
        if not kept or np.abs(np.array(kept) - v).max(axis=1).min() > 1e-9:
            kept.append(v)
    return np.array(kept).reshape(-1, candidates.shape[1])


def _reference_vertices(basis, closure=True):
    """The vertex enumeration as written with one SVD per zero set and a
    pairwise dedupe: ``(vertices, had_degenerate_zero_set)``.  Without
    ``closure`` a degenerate zero set recurses one forced zero at a time."""
    n, d = basis.shape
    directions = []
    degenerate = False
    visited = set()
    closures = set()

    def emit(direction, zero_idx):
        v = basis @ direction
        if zero_idx:
            v[list(zero_idx)] = 0.0
        v = v / float(np.abs(v).sum())
        first = int(np.argmax(np.abs(v) > 1e-9))
        if v[first] < 0.0:
            v = -v
        directions.append(v)

    def explore(zero_idx):
        nonlocal degenerate
        if zero_idx in visited:
            return
        visited.add(zero_idx)
        ns = _reference_nullspace_of_rows(basis[list(zero_idx), :], d)
        if ns.shape[1] == 1:
            emit(ns[:, 0], zero_idx)
        elif ns.shape[1] > 1:
            degenerate = True
            if closure:
                section = basis @ ns
                tol = 1e-10 * max(len(zero_idx) + 1, d)
                vanish = [j for j in range(n) if np.linalg.norm(section[j]) <= tol]
                zero_idx = tuple(sorted(set(zero_idx) | set(vanish)))
                if zero_idx in closures:
                    return
                closures.add(zero_idx)
            for j in range(n):
                if j not in zero_idx:
                    explore(tuple(sorted(zero_idx + (j,))))

    for zero_idx in itertools.combinations(range(n), d - 1):
        explore(zero_idx)
    half = _greedy_dedupe(np.array(directions).reshape(-1, n))
    return np.vstack([half, -half]), degenerate


class TestVertexReference:
    @staticmethod
    def _matrices(ex1_phi, ex2_phi):
        yield ex1_phi
        yield ex2_phi
        rng = np.random.default_rng(31)
        yield rng.standard_normal((6, 10))
        yield rng.standard_normal((8, 12))
        for low, high in ((-2, 3), (0, 2)):  # integer entries take the degenerate path
            for _ in range(4):
                yield rng.integers(low, high, size=(4, 8)).astype(float)
        duplicated = rng.standard_normal((5, 9))
        duplicated[:, 4] = duplicated[:, 1]
        yield duplicated
        tiny = rng.standard_normal((4, 8))
        tiny[:, 5:7] = 1e-9 * rng.standard_normal((4, 2))  # the dedupe merges candidates
        yield tiny
        yield rng.standard_normal((5, 6))  # d == 1
        yield np.zeros((3, 5))  # d == n

    def test_bitwise_equal_to_per_zero_set_svds(self, ex1_phi, ex2_phi):
        degenerate = 0
        for case, phi in enumerate(self._matrices(ex1_phi, ex2_phi)):
            basis = kernel_basis(phi)
            got = l1ball_section_vertices(basis)
            want, want_degenerate = _reference_vertices(basis)
            assert got.vertices.shape == want.shape, case
            assert got.vertices.tobytes() == want.tobytes(), case
            assert got.had_degenerate_zero_set == want_degenerate, case
            assert got.had_degenerate_zero_set == (got.degenerate_sets > 0), case
            degenerate += want_degenerate

            # One forced zero at a time reaches the same vertices, up to the
            # dedupe tolerance; ill-conditioned inputs can leave it extra
            # near-duplicates.
            unclosed, _ = _reference_vertices(basis, closure=False)
            for v in unclosed:
                assert _contains_vertex(got.vertices, v), case
            for v in got.vertices:
                assert _contains_vertex(unclosed, v), case
        assert degenerate >= 5

    def test_chunk_boundary(self, monkeypatch):
        basis = kernel_basis(np.random.default_rng(31).standard_normal((8, 12)))
        want = l1ball_section_vertices(basis)
        monkeypatch.setattr(certificates, "_CHUNK", 7)  # 220 zero sets: 31 full blocks and 3
        got = l1ball_section_vertices(basis)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.zero_sets == want.zero_sets

    @staticmethod
    def _assert_matches_reference(basis):
        got = l1ball_section_vertices(basis)
        want, want_degenerate = _reference_vertices(basis)
        assert got.vertices.shape == want.shape
        assert got.vertices.tobytes() == want.tobytes()
        assert got.had_degenerate_zero_set == want_degenerate
        return got

    def test_generic_dimension_five_kernel(self):
        basis = kernel_basis(np.random.default_rng(31).standard_normal((9, 14)))
        assert basis.shape == (14, 5)
        got = self._assert_matches_reference(basis)
        assert (got.zero_sets, got.degenerate_sets) == (math.comb(14, 4), 0)

    def test_blocks_mixing_degenerate_and_full_rank_sets(self, monkeypatch):
        # The degenerate pair {0, 1} opens the first block of seven; its
        # recursion's candidates go before the six full-rank sets after it.
        monkeypatch.setattr(certificates, "_CHUNK", 7)
        got = self._assert_matches_reference(kernel_basis(_tied_pair_phi()))
        assert (got.zero_sets, got.degenerate_sets) == (103, 1)

    def test_all_candidate_sums_equal(self):
        # The kernel of an all-ones row: every candidate is (e_i - e_j) / 2,
        # with coordinate sum 0, so the dedupe's screen passes every pair on.
        basis = kernel_basis(np.ones((1, 16)))
        got = self._assert_matches_reference(basis)
        assert got.vertices.shape == (2 * math.comb(16, 2), 16)
        assert np.abs(got.vertices.sum(axis=1)).max() <= 1e-15


class TestDedupe:
    def test_screen_keeps_the_greedy_set(self):
        # Copies of a few unit-l1 rows, moved by about the tolerance in every
        # coordinate with one sign, so their sums land near the window's
        # edge; half the cases are re-normalised.
        rng = np.random.default_rng(3)
        merged = 0
        for case in range(400):
            n = int(rng.integers(1, 12))
            base = rng.standard_normal((int(rng.integers(1, 6)), n))
            base /= np.abs(base).sum(axis=1, keepdims=True)
            rows = base[rng.integers(len(base), size=int(rng.integers(1, 40)))]
            scale = rng.choice([0.0, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0], size=(len(rows), 1))
            sign = rng.choice([-1.0, 1.0], size=(len(rows), 1))
            spread = np.where(rng.random(rows.shape) < 0.8, 1.0, rng.random(rows.shape))
            rows = rows + sign * scale * 1e-9 * spread
            if case % 2:
                rows /= np.abs(rows).sum(axis=1, keepdims=True)
            got = certificates._dedupe(rows)
            want = _greedy_dedupe(rows)
            assert got.shape == want.shape, case
            assert got.tobytes() == want.tobytes(), case
            merged += len(rows) - len(got)
        assert merged > 1000

    def test_first_of_near_equal_candidates_wins(self):
        v = np.array([[0.5, -0.5, 0.0], [0.5 + 4e-10, -0.5, -4e-10], [0.0, 0.5, 0.5]])
        assert certificates._dedupe(v[[1, 0, 2]]).tobytes() == v[[1, 2]].tobytes()
        assert certificates._dedupe(v).tobytes() == v[[0, 2]].tobytes()


class TestNsp:
    def test_reference_failure(self, ex1_phi):
        report = check_nsp(ex1_phi, 1)
        assert not report.holds
        assert not report.vacuous
        assert report.worst_margin == pytest.approx(4 / 7 - 0.5, abs=1e-12)
        assert report.witness_set == (2,)
        assert _contains_vertex(np.array([report.witness_vertex]), [3 / 14, 3 / 14, -4 / 7])

    def test_second_reference_failure(self, ex2_phi):
        assert not check_nsp(ex2_phi, 1).holds

    def test_trivial_kernel_vacuous(self):
        report = check_nsp(np.array([[2.0, 1.0], [0.0, 1.0]]), 1)
        assert report.holds and report.vacuous
        assert report.worst_margin is None

    def test_order_validation(self, ex1_phi):
        with pytest.raises(ValueError):
            check_nsp(ex1_phi, 0)
        with pytest.raises(ValueError):
            check_nsp(ex1_phi, 4)

    @pytest.mark.parametrize(
        "k", [True, 1.0, 1.5, np.float64(1.0), "1"], ids=["bool", "float", "half", "numpy", "str"]
    )
    def test_order_must_be_an_integer(self, ex1_phi, k):
        for check in (check_nsp, dominant_support, downweight_interval):
            with pytest.raises(ValueError, match="order k must be an integer"):
                check(ex1_phi, k)
        with pytest.raises(ValueError, match="order k must be an integer"):
            check_wnsp(ex1_phi, np.ones(3), k)
        with pytest.raises(ValueError, match="order k must be an integer"):
            compute_ric(np.eye(3), k)
        with pytest.raises(ValueError, match="order k1 must be an integer"):
            compute_roc(np.eye(3), k, 1)
        with pytest.raises(ValueError, match="order k2 must be an integer"):
            compute_roc(np.eye(3), 1, k)

    def test_witness_violates_by_margin(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.standard_normal((4, 7))
            report = check_nsp(a, 2)
            if not report.holds:
                mass = _topk_mass(report.witness_vertex, 2)
                assert mass == pytest.approx(0.5 + report.worst_margin, abs=1e-12)
                assert mass >= 0.5


class TestWnsp:
    def test_all_ones_matches_unweighted(self, ex1_phi, ex2_phi):
        rng = np.random.default_rng(41)
        mats = [ex1_phi, ex2_phi] + [rng.standard_normal((4, 7)) for _ in range(5)]
        for a in mats:
            for k in (1, 2):
                plain = check_nsp(a, k)
                weighted = check_wnsp(a, np.ones(a.shape[1]), k)
                assert plain.holds == weighted.holds
                if plain.worst_margin is not None:
                    assert weighted.worst_margin == pytest.approx(plain.worst_margin, abs=1e-12)

    def test_downweighting_rescues_reference_problem(self, ex1_phi):
        report = check_wnsp(ex1_phi, np.array([1.0, 1.0, 0.4]), 1)
        assert report.holds
        assert report.worst_margin == pytest.approx(0.4 / 1.15 - 0.5, abs=1e-12)

    def test_boundary_weight_choice(self, ex1_phi):
        report = check_wnsp(ex1_phi, np.array([1.0, 1.0, 0.7]), 1)
        assert report.holds
        assert report.worst_margin == pytest.approx(14 / 29 - 0.5, abs=1e-12)

    def test_reference_weighting_second_problem(self, ex2_phi):
        assert check_wnsp(ex2_phi, np.array([1.0, 2 / 3, 1.0, 0.5, 1.0]), 1).holds
        assert check_wnsp(ex2_phi, np.array([1.0, 1.0, 1.0, 0.3, 1.0]), 1).holds

    def test_witness_maps_back_to_kernel(self, ex1_phi):
        report = check_wnsp(ex1_phi, np.array([1.0, 1.0, 0.9]), 1)
        if not report.holds:
            h = report.witness_vertex
            assert np.abs(ex1_phi @ h).max() <= 1e-10
            assert np.abs(h).sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonpositive_weights(self, ex1_phi):
        with pytest.raises(ValueError):
            check_wnsp(ex1_phi, np.array([1.0, 0.0, 1.0]), 1)


class TestScaleInvariance:
    def test_verdict_stable_under_section_rescaling(self, ex1_phi, ex2_phi):
        # mass < 1/2 at scale 1 must be equivalent to mass < s/2 at scale s
        for phi in (ex1_phi, ex2_phi):
            vs = l1ball_section_vertices(kernel_basis(phi))
            for k in (1, 2):
                verdict = check_nsp(phi, k).holds
                for s in (0.5, 2.0):
                    scaled_max = max(_topk_mass(s * v, k) for v in vs.vertices)
                    assert (scaled_max < s / 2) == verdict


def _dominant_support_reference(phi, k: int):
    """Two-pass scan over the kernel vertices, one vertex at a time."""
    vertices = l1ball_section_vertices(kernel_basis(phi)).vertices
    n = phi.shape[1]
    best_mass, best_vertex, best_support = -1.0, None, ()
    for v in vertices:
        mass = float(np.sort(np.abs(v))[::-1][:k].sum())
        if mass > best_mass:
            order = np.argsort(-np.abs(v), kind="stable")
            best_mass, best_vertex = mass, v
            best_support = tuple(sorted(int(i) for i in order[:k]))
    runner_up = 0.0
    for v in vertices:
        mags = np.abs(v)
        order = np.argsort(-mags, kind="stable")
        top = tuple(sorted(int(i) for i in order[:k]))
        mass = float(mags[order[:k]].sum())
        if top != best_support:
            candidate = mass
        elif k < n:
            candidate = mass - float(mags[order[k - 1]]) + float(mags[order[k]])
        else:
            continue
        runner_up = max(runner_up, candidate)
    return best_support, best_vertex, best_mass, runner_up, runner_up < best_mass - 1e-9


class TestDominantSupport:
    @pytest.mark.parametrize("shape", [(6, 10), (7, 12)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bitwise_equal_to_reference_scan(self, shape, k):
        rng = np.random.default_rng(100 * shape[0] + k)
        for _ in range(3):
            phi = rng.standard_normal(shape)
            rep = dominant_support(phi, k)
            support, vertex, mass, runner_up, unique = _dominant_support_reference(phi, k)
            assert rep.support == support
            assert np.array_equal(rep.vertex, vertex)
            assert rep.mass.hex() == mass.hex()
            assert rep.runner_up_mass.hex() == runner_up.hex()
            assert rep.unique == unique

    def test_agrees_with_the_nsp_witness(self):
        # check_nsp's witness and the dominant support come from one ranking
        # of the kernel vertices.  The weighted witness set carries the
        # dominant mass of the kernel scaled by the weights.
        rng = np.random.default_rng(29)
        mats = [
            rng.standard_normal((5, 8)),
            np.hstack([np.eye(5), np.zeros((5, 2))]),
            np.ones((1, 6)),
            np.round(3 * rng.standard_normal((4, 8))),
        ]
        for phi in mats:
            n = phi.shape[1]
            w = rng.uniform(0.2, 1.5, n)
            for k in range(1, n + 1):
                nsp, rep = check_nsp(phi, k), dominant_support(phi, k)
                assert nsp.witness_vertex.tobytes() == rep.vertex.tobytes()
                assert nsp.worst_margin == rep.mass - 0.5
                assert nsp.witness_set == rep.support
                wnsp = check_wnsp(phi, w, k)
                g = w * wnsp.witness_vertex
                g /= np.abs(g).sum()
                mass = dominant_support(phi / w, k).mass
                assert wnsp.worst_margin == pytest.approx(mass - 0.5, abs=1e-12)
                assert np.abs(g[list(wnsp.witness_set)]).sum() == pytest.approx(mass, abs=1e-12)

    def test_full_order_has_no_runner_up(self, ex1_phi):
        rep = dominant_support(ex1_phi, 3)
        assert rep.support == (0, 1, 2)
        assert rep.mass == pytest.approx(1.0, abs=1e-15)
        assert rep.runner_up_mass == 0.0
        assert rep.unique
        assert rep.mass == _dominant_support_reference(ex1_phi, 3)[2]

    def test_reference_problem(self, ex1_phi):
        rep = dominant_support(ex1_phi, 1)
        assert rep.support == (2,)
        assert rep.mass == pytest.approx(4 / 7, abs=1e-12)
        assert rep.runner_up_mass == pytest.approx(3 / 14, abs=1e-12)
        assert rep.unique

    def test_second_reference_problem(self, ex2_phi):
        rep = dominant_support(ex2_phi, 1)
        assert rep.support == (3,)
        assert rep.mass == pytest.approx(6 / 11, abs=1e-9)
        assert rep.runner_up_mass == pytest.approx(6 / 17, abs=1e-9)
        assert rep.unique

    def test_symmetric_tie_not_unique(self):
        rep = dominant_support(np.array([[1.0, 1.0]]), 1)
        assert not rep.unique
        assert rep.mass == pytest.approx(0.5, abs=1e-12)

    def test_trivial_kernel_rejected(self):
        with pytest.raises(ValueError):
            dominant_support(np.eye(3), 1)

    def test_cap_checked_before_the_trivial_kernel(self):
        # As check_nsp and check_wnsp do, an invalid cap is reported first.
        for check in (dominant_support, downweight_interval):
            with pytest.raises(ValueError, match="max_zero_sets must be at least 1"):
                check(np.eye(3), 1, max_zero_sets=0)

    def test_vertex_membership(self, ex2_phi):
        rep = dominant_support(ex2_phi, 2)
        vs = l1ball_section_vertices(kernel_basis(ex2_phi))
        assert _contains_vertex(vs.vertices, rep.vertex)
        assert rep.mass == pytest.approx(_topk_mass(rep.vertex, 2), abs=1e-12)


class TestDownweightInterval:
    def test_reference_interval(self, ex1_phi):
        iv = downweight_interval(ex1_phi, 1)
        assert iv.lo == pytest.approx(3 / 8, abs=1e-12)
        assert iv.hi_nullspace == pytest.approx(3 / 4, abs=1e-12)
        assert iv.hi_ric is None
        assert iv.feasible

    def test_ric_route_upper_bound(self, ex1_phi):
        iv = downweight_interval(ex1_phi, 1, ric_budget=(2.0, 0.9224))
        assert iv.hi_ric == pytest.approx(0.4187293907601683, rel=1e-12)
        # inversion consistency: at gamma = hi_ric the bound formula returns delta
        assert ric_bound_scaled_order(2.0, iv.hi_ric) == pytest.approx(0.9224, rel=1e-12)

    def test_ric_route_second_problem(self, ex2_phi):
        # 0.9572 is the deviation of column pair {1, 2}, not delta2 of this
        # problem; the exact delta2 (0.992704) would give hi_ric ~ 0.1215.
        iv = downweight_interval(ex2_phi, 1, ric_budget=(2.0, 0.9572))
        assert iv.hi_ric == pytest.approx(0.3023686758987807, rel=1e-12)

    @pytest.mark.parametrize(
        "budget, name",
        [
            ((np.inf, 0.5), "multiplier a must be finite"),
            ((np.nan, 0.5), "multiplier a must be finite"),
            ((2.0, np.nan), "delta must be finite"),
            ((2.0, -np.inf), "delta must be finite"),
            ((True, 0.5), "multiplier a must be a number"),
            ((2.0, "0.5"), "delta must be a number"),
            ((2.0,), "budget must be a pair"),
            (5, "budget must be a pair"),
            ((2.0, 0.5, 9.0), "budget must be a pair"),
        ],
    )
    def test_budget_must_be_finite_numbers(self, ex1_phi, budget, name):
        with pytest.raises(ValueError, match=name):
            downweight_interval(ex1_phi, 1, ric_budget=budget)

    def test_saturated_budget_gives_zero(self, ex1_phi):
        assert downweight_interval(ex1_phi, 1, ric_budget=(2.0, 1.0)).hi_ric == 0.0

    def test_tie_gives_degenerate_interval(self):
        iv = downweight_interval(np.array([[1.0, 1.0]]), 1)
        assert iv.lo == 1.0
        assert not iv.feasible


class TestRic:
    def test_reference_value(self, ex1_phi):
        ric = compute_ric(ex1_phi, 2)
        assert ric.value == pytest.approx(0.9224154027718933, rel=1e-12)
        assert ric.attaining in ((0, 2), (1, 2))

    def test_second_reference_value(self, ex2_phi):
        # worst pair is {2, 4} in 1-based terms, not the {1, 2} pair
        ric = compute_ric(ex2_phi, 2)
        assert ric.value == pytest.approx(0.9927042523513011, rel=1e-12)
        assert ric.attaining == (1, 3)

    def test_orthonormal_columns_zero(self):
        assert compute_ric(np.eye(4), 2).value == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(53)
        a = rng.standard_normal((5, 8))
        a /= np.linalg.norm(a, axis=0)
        values = [compute_ric(a, k).value for k in (1, 2, 3)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_matches_direct_eigen_computation(self, ex2_phi):
        worst = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                sub = ex2_phi[:, [i, j]]
                dev = sub.T @ sub - np.eye(2)
                worst = max(worst, float(np.abs(np.linalg.eigvalsh(dev)).max()))
        assert compute_ric(ex2_phi, 2).value == pytest.approx(worst, rel=1e-12)

    def test_cap_refusal(self, ex2_phi):
        with pytest.raises(EnumerationCapExceeded) as err:
            compute_ric(ex2_phi, 2, max_subsets=5)
        assert err.value.required == 10
        assert err.value.cap == 5
        assert "10" in str(err.value)

    @pytest.mark.parametrize("cap", [0, -5, True, 2.0])
    def test_cap_must_be_a_positive_integer(self, ex2_phi, cap):
        with pytest.raises(ValueError, match="max_subsets"):
            compute_ric(ex2_phi, 2, max_subsets=cap)


class TestRoc:
    def test_reference_value(self, ex1_phi):
        roc = compute_roc(ex1_phi, 1, 1)
        assert roc.value == pytest.approx(0.24, rel=1e-12)
        assert roc.attaining in (((0,), (2,)), ((1,), (2,)))

    def test_orthogonal_columns_zero(self):
        assert compute_roc(np.eye(4), 1, 1).value == pytest.approx(0.0, abs=1e-12)

    def test_repeated_column_gives_one(self):
        assert compute_roc(np.array([[1.0, 1.0]]), 1, 1).value == pytest.approx(1.0, rel=1e-12)

    def test_asymmetric_orders(self, ex2_phi):
        roc = compute_roc(ex2_phi, 1, 2)
        s1, s2 = roc.attaining
        assert len(s1) == 1 and len(s2) == 2
        assert not set(s1) & set(s2)
        sub1 = ex2_phi[:, list(s1)]
        sub2 = ex2_phi[:, list(s2)]
        direct = float(np.linalg.svd(sub1.T @ sub2, compute_uv=False).max())
        assert roc.value == pytest.approx(direct, rel=1e-12)

    def test_order_validation(self, ex1_phi):
        with pytest.raises(ValueError):
            compute_roc(ex1_phi, 2, 2)

    def test_cap_refusal(self, ex2_phi):
        with pytest.raises(EnumerationCapExceeded):
            compute_roc(ex2_phi, 1, 1, max_pairs=3)

    @pytest.mark.parametrize("cap", [0, -5, True, 2.0])
    def test_cap_must_be_a_positive_integer(self, ex2_phi, cap):
        with pytest.raises(ValueError, match="max_pairs"):
            compute_roc(ex2_phi, 1, 1, max_pairs=cap)


class TestRicRocInequalities:
    def test_seeded_ensemble(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            a = rng.standard_normal((6, 12))
            a /= np.linalg.norm(a, axis=0)
            d2 = compute_ric(a, 2).value
            d3 = compute_ric(a, 3).value
            t11 = compute_roc(a, 1, 1).value
            t12 = compute_roc(a, 1, 2).value
            t13 = compute_roc(a, 1, 3).value
            t22 = compute_roc(a, 2, 2).value
            t33 = compute_roc(a, 3, 3).value
            assert t22 < 2.0 * d2
            assert t33 < (6.0 / math.sqrt(8.0)) * d3
            assert t12 <= math.sqrt(2.0) * t11 + 1e-10
            assert t13 <= math.sqrt(3.0) * t11 + 1e-10


class TestScaledOrderBound:
    def test_gamma_one_recovers_unweighted_bound(self):
        for a in (2.0, 3.0, 4.0):
            assert ric_bound_scaled_order(a, 1.0) == pytest.approx(
                math.sqrt((a - 1.0) / a), rel=1e-12)

    def test_reference_grid(self):
        assert ric_bound_scaled_order(2.0, 1.0) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
        assert ric_bound_scaled_order(3.0, 1.0) == pytest.approx(math.sqrt(6) / 3, rel=1e-12)
        assert ric_bound_scaled_order(4.0, 1.0) == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
        assert ric_bound_scaled_order(2.0, 0.75) == pytest.approx(0.8, rel=1e-12)
        assert ric_bound_scaled_order(3.0, 0.5) == pytest.approx(0.942, abs=1e-3)

    def test_increases_as_gamma_decreases(self):
        values = [ric_bound_scaled_order(2.0, g) for g in (1.0, 0.75, 0.5, 0.25)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ric_bound_scaled_order(1.0, 0.5)
        with pytest.raises(ValueError):
            ric_bound_scaled_order(2.0, 0.0)
        with pytest.raises(ValueError):
            ric_bound_scaled_order(2.0, 1.5)

    @pytest.mark.parametrize("a, gamma", [
        (float("nan"), 0.5), (float("inf"), 0.5), (2.0, float("nan")), (True, 0.5), (2.0, True),
    ])
    def test_numbers_must_be_finite(self, a, gamma):
        with pytest.raises(ValueError, match="must be (a number|finite)"):
            ric_bound_scaled_order(a, gamma)


class TestPlainOrderBound:
    def test_even_orders_gamma_one(self):
        for k in (2, 4, 6, 8):
            assert ric_bound_plain_order(k, 1.0) == pytest.approx(1 / 3, rel=1e-12)

    def test_odd_reference(self):
        assert ric_bound_plain_order(3, 1.0) == pytest.approx(1 / (1 + 6 / math.sqrt(8)), rel=1e-12)
        assert ric_bound_plain_order(3, 1.0) == pytest.approx(0.3203, abs=1e-4)

    def test_even_half_gamma_constant(self):
        for k in (2, 4, 6):
            assert ric_bound_plain_order(k, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_ceiling_boundaries(self):
        # gamma*k exactly integral must not spill into the next ceiling step
        assert ric_bound_plain_order(4, 0.25) == pytest.approx(2 / 3, rel=1e-12)
        assert ric_bound_plain_order(4, 0.75) == pytest.approx(1 / (1 + 6 / 4), rel=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            ric_bound_plain_order(1, 0.5)

    @pytest.mark.parametrize("k, gamma", [
        (2.5, 0.5), (4.0, 0.5), (True, 0.5), (4, True), (4, float("nan")), (4, "0.5"),
    ])
    def test_order_and_gamma_types(self, k, gamma):
        with pytest.raises(ValueError, match="must be (an integer|a number|finite)"):
            ric_bound_plain_order(k, gamma)

    @pytest.mark.parametrize("k_start", [2.0, 4.5, True])
    def test_infimum_start_must_be_an_integer(self, k_start):
        with pytest.raises(ValueError, match="k_start must be an integer"):
            ric_bound_plain_order_infimum(0.5, k_start)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, True, "1/2", math.inf, math.nan])
    def test_infimum_gamma_must_be_exact(self, gamma):
        # A float's exact denominator sets the scan's period: 2**55 steps for
        # 0.1, so without the refusal this call would not return.
        with _deadline(5.0), pytest.raises(ValueError, match="gamma must be an int or a Fraction"):
            ric_bound_plain_order_infimum(gamma, 2)

    def test_infimum_reference_cells(self):
        value, at_k = ric_bound_plain_order_infimum(Fraction(3, 4), 4)
        assert value == pytest.approx(0.375, rel=1e-12)
        assert at_k == 6
        value, at_k = ric_bound_plain_order_infimum(Fraction(1, 4), 4)
        assert value == pytest.approx(0.6, rel=1e-12)
        assert at_k == 6
        value, at_k = ric_bound_plain_order_infimum(Fraction(1, 6), 6)
        assert value == pytest.approx(2 / 3, rel=1e-12)
        assert at_k == 8
        value, at_k = ric_bound_plain_order_infimum(Fraction(1, 2), 5)
        assert value == pytest.approx(math.sqrt(6) - 2, rel=1e-12)
        assert at_k == 5

    def test_infimum_dominated_by_range_values(self):
        # the ten (gamma, k_start) cells of acceptance check C3, plus (1/6, 7)
        cells = (
            (Fraction(1), 2), (Fraction(1), 3),
            (Fraction(3, 4), 4), (Fraction(3, 4), 5),
            (Fraction(1, 2), 2), (Fraction(1, 2), 5),
            (Fraction(1, 4), 4), (Fraction(1, 4), 5),
            (Fraction(1, 6), 6), (Fraction(1, 6), 5),
            (Fraction(1, 6), 7),
        )
        for gamma, start in cells:
            value, at_k = ric_bound_plain_order_infimum(gamma, start)
            assert at_k >= start
            assert (at_k - start) % 2 == 0
            for k in range(start, start + 40, 2):
                assert value <= ric_bound_plain_order(k, float(gamma)) + 1e-12
            assert value == pytest.approx(ric_bound_plain_order(at_k, float(gamma)), rel=1e-12)


class TestL1MinExact:
    def test_reference_unweighted(self, ex1_phi, ex1_b):
        x = l1_min_exact(ex1_phi, ex1_b)
        assert np.abs(x - np.array([0.75, 0.75, 0.0])).max() <= 1e-8

    def test_reference_weighted(self, ex1_phi, ex1_b):
        x = l1_min_exact(ex1_phi, ex1_b, np.array([1.0, 1.0, 0.7]))
        assert np.abs(x - np.array([0.0, 0.0, 2.0])).max() <= 1e-8

    def test_second_reference_unweighted(self, ex2_phi, ex2_b):
        x = l1_min_exact(ex2_phi, ex2_b)
        assert np.abs(x - np.array([1 / 3, -0.5, 0.0, 0.0, 0.0])).max() <= 1e-8

    def test_second_reference_weighted(self, ex2_phi, ex2_b):
        x = l1_min_exact(ex2_phi, ex2_b, np.array([1.0, 2 / 3, 1.0, 0.5, 1.0]))
        assert np.abs(x - np.array([0.0, 0.0, 0.0, 1.0, 0.0])).max() <= 1e-8

    def test_alternative_rescue_weights(self, ex2_phi, ex2_b):
        x = l1_min_exact(ex2_phi, ex2_b, np.array([1.0, 1.0, 1.0, 0.3, 1.0]))
        assert np.abs(x - np.array([0.0, 0.0, 0.0, 1.0, 0.0])).max() <= 1e-8

    def test_zero_rhs(self, ex1_phi):
        assert np.array_equal(l1_min_exact(ex1_phi, np.zeros(2)), np.zeros(3))

    def test_infeasible_system(self):
        with pytest.raises(InfeasibleSystem):
            l1_min_exact(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0]))

    def test_redundant_consistent_rows(self):
        phi = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 2.0, 1.0])
        x = l1_min_exact(phi, b)
        assert np.abs(phi @ x - b).max() <= 1e-9

    def test_single_column(self):
        x = l1_min_exact(np.array([[2.0], [0.0]]), np.array([3.0, 0.0]))
        assert x[0] == pytest.approx(1.5, rel=1e-12)

    def test_negative_rhs_entries(self, ex2_phi):
        x0 = np.array([0.0, -1.3, 0.0, 0.0, 0.7])
        b = ex2_phi @ x0
        x = l1_min_exact(ex2_phi, b)
        assert np.abs(ex2_phi @ x - b).max() <= 1e-9
        assert np.abs(x).sum() <= np.abs(x0).sum() + 1e-9

    def test_rejects_nonpositive_weights(self, ex1_phi, ex1_b):
        with pytest.raises(ValueError):
            l1_min_exact(ex1_phi, ex1_b, np.array([1.0, -1.0, 1.0]))

    def test_optimality_against_dense_search(self):
        # brute force over supports of size <= 2 on a small instance
        rng = np.random.default_rng(71)
        phi = rng.standard_normal((2, 5))
        x0 = np.zeros(5)
        x0[1] = 1.0
        b = phi @ x0
        x = l1_min_exact(phi, b)
        best = np.abs(x0).sum()
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                sub = phi[:, [i, j]]
                try:
                    sol = np.linalg.solve(sub, b)
                except np.linalg.LinAlgError:
                    continue
                best = min(best, float(np.abs(sol).sum()))
        assert np.abs(x).sum() <= best + 1e-9


def _reference_pivot(tableau, basis, row, col):
    """The pivot as written when it eliminated one row at a time."""
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _reference_pivot_loop(tableau, basis, ncols, max_pivots):
    """The Bland pivot loop as written with Python scans over columns and rows."""
    m = tableau.shape[0] - 1
    for _ in range(max_pivots):
        costs = tableau[m, :ncols]
        entering = -1
        for j in range(ncols):
            if costs[j] < -1e-9:
                entering = j
                break
        if entering < 0:
            return
        col = tableau[:m, entering]
        rhs = tableau[:m, -1]
        leaving = -1
        best_ratio = math.inf
        for i in range(m):
            if col[i] > 1e-9:
                ratio = rhs[i] / col[i]
                if ratio < best_ratio - 1e-9 or (
                    ratio <= best_ratio + 1e-9 and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    if ratio < best_ratio:
                        best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("LP is unbounded; the weighted l1 objective cannot be")
        _reference_pivot(tableau, basis, leaving, entering)
    raise RuntimeError(f"simplex did not terminate within {max_pivots} pivots")


def _oracle_problem(seed, i, m=32, n=128, k=5):
    """Op ``i`` of the benchmark's solver-vs-oracle recipe: Gaussian ``phi``,
    a planted ``k``-sparse ``x0`` and, on odd ops, weights in [0.5, 1)."""
    rng = np.random.default_rng([seed, i])
    phi = rng.standard_normal((m, n))
    x0 = np.zeros(n)
    x0[rng.permutation(n)[:k]] = rng.standard_normal(k)
    weights = rng.uniform(0.5, 1.0, n) if i % 2 else None
    return phi, phi @ x0, weights, x0


def _simplex_x(phi, b, weights=None):
    """The split LP solved by ``_simplex_solve`` on the unscaled data."""
    n = phi.shape[1]
    w = np.ones(n) if weights is None else weights
    z = certificates._simplex_solve(np.hstack([phi, -phi]), b, np.concatenate([w, w]))
    return z[:n] - z[n:]


def _assert_oracle_answer(phi, b, weights, x0, solve=l1_min_exact):
    """``x`` solves ``phi x = b`` and costs no more than the planted ``x0``."""
    x = solve(phi, b, weights)
    w = np.ones(phi.shape[1]) if weights is None else weights
    scale = float(np.abs(phi).max()) * float(np.abs(x).sum()) + float(np.abs(b).max())
    assert float(np.abs(phi @ x - b).max()) <= 1e-9 * scale
    assert float(w @ np.abs(x)) <= float(w @ np.abs(x0)) * (1.0 + 1e-9)


class TestPivotReference:
    def _problems(self, ex1_phi, ex1_b, ex2_phi, ex2_b):
        yield ex1_phi, ex1_b, None
        yield ex1_phi, ex1_b, np.array([1.0, 1.0, 0.7])
        yield ex2_phi, ex2_b, None
        yield ex2_phi, ex2_b, np.array([1.0, 2 / 3, 1.0, 0.5, 1.0])
        yield ex2_phi, ex2_phi @ np.array([0.0, -1.3, 0.0, 0.0, 0.7]), None  # negative rhs
        redundant = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.0, 1.0, 1.0]])
        yield redundant, np.array([1.0, 2.0, 1.0]), None
        yield np.array([[2.0], [0.0]]), np.array([3.0, 0.0]), None
        yield ex1_phi, np.zeros(2), None
        for m, n, k in ((16, 64, 3), (32, 128, 5)):
            for i in range(6):
                phi, b, weights, _ = _oracle_problem(7, i, m, n, k)
                yield phi, b, weights

    def test_bitwise_equal_to_row_by_row_pivots(self, ex1_phi, ex1_b, ex2_phi, ex2_b, monkeypatch):
        problems = list(self._problems(ex1_phi, ex1_b, ex2_phi, ex2_b))
        got = [_simplex_x(*p) for p in problems]
        monkeypatch.setattr(certificates, "_pivot", _reference_pivot)
        monkeypatch.setattr(certificates, "_pivot_loop", _reference_pivot_loop)
        for case, (p, x) in enumerate(zip(problems, got)):
            want = _simplex_x(*p)
            assert x.tobytes() == want.tobytes(), case


class TestPivotLoop:
    @staticmethod
    def _tableau(column, cost):
        # x0 + column * x1 = 1 and x2 + x3 = 1 with x0 and x3 basic.  x1 has
        # no positive entry; x2 is an ordinary eligible column after it.
        tableau = np.array([
            [1.0, column, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 1.0, 1.0],
            [0.0, cost, -1.0, 0.0, 0.0],
        ])
        return tableau, [0, 3]

    def test_unbounded_column_raises(self):
        tableau, basis = self._tableau(-1.0, -1.0)
        with pytest.raises(RuntimeError, match="LP is unbounded"):
            certificates._pivot_loop(tableau, basis, 4, 100)

    def test_small_unbounded_cost_on_large_column_raises(self):
        tableau, basis = self._tableau(-1e4, -5e-8)
        with pytest.raises(RuntimeError, match="LP is unbounded"):
            certificates._pivot_loop(tableau, basis, 4, 100)

    def test_rounding_noise_cost_passes_to_next_column(self):
        tableau, basis = self._tableau(-1e4, -5e-9)
        certificates._pivot_loop(tableau, basis, 4, 100)
        assert basis == [0, 2]
        assert tableau[2, -1] == 1.0  # objective -1 at x2 = 1

    def test_pivot_cap_still_raises(self):
        tableau, basis = self._tableau(1.0, -1.0)
        with pytest.raises(RuntimeError, match="did not terminate within 0 pivots"):
            certificates._pivot_loop(tableau, basis, 4, 0)


class TestOracleRegressions:
    def test_no_false_unbounded(self):
        # Phase 1 ends with twenty eligible columns that have no positive
        # entry and reduced costs below 2e-14 of their largest entry (up to
        # 1e5): rounding noise, not rays.
        _assert_oracle_answer(*_oracle_problem(5, 85), solve=_simplex_x)

    def test_no_cycling(self):
        # The tolerant ratio test revisits the basis of phase-2 pivot 1308 at
        # pivot 1438, and without exact ties cycles until the pivot cap.
        _assert_oracle_answer(*_oracle_problem(2, 202), solve=_simplex_x)


def _assert_agrees_with_simplex(x, phi, b, weights):
    want = _simplex_x(phi, b, weights)
    assert float(np.abs(x - want).max()) <= 1e-9 * max(1.0, float(np.abs(x).max()))


class TestHomotopy:
    @staticmethod
    def _problems():
        for m, n, k in ((16, 64, 3), (32, 128, 5)):
            for i in range(12):  # odd ops are weighted
                phi, b, weights, _ = _oracle_problem(11, i, m, n, k)
                yield phi, b, np.ones(n) if weights is None else weights
        rng = np.random.default_rng(601)
        for i in range(8):  # the C6 shapes: 6x10, 1- and 2-sparse
            phi = rng.standard_normal((6, 10))
            w = np.ones(10) if i % 2 == 0 else rng.uniform(0.4, 1.0, 10)
            x0 = np.zeros(10)
            x0[rng.choice(10, size=1 + i % 2, replace=False)] = rng.standard_normal(1 + i % 2)
            yield phi, phi @ x0, w

    def test_certified_answers_agree_with_the_simplex(self):
        problems = list(self._problems())
        certified = 0
        for phi, b, w in problems:
            x = certificates._homotopy(phi, b, w)
            if x is not None:
                certified += 1
                _assert_agrees_with_simplex(x, phi, b, w)
                assert l1_min_exact(phi, b, w).tobytes() == x.tobytes()
        assert certified >= 0.9 * len(problems)

    def test_tied_columns_decline(self):
        # Every point of [0, 1] e0 + [0, 1] e1 on x0 + x1 = 1 is optimal.
        phi, b = np.array([[1.0, 1.0]]), np.array([1.0])
        assert certificates._homotopy(phi, b, np.ones(2)) is None
        assert np.array_equal(l1_min_exact(phi, b), [1.0, 0.0])

    def test_infeasible_system_declines(self):
        phi, b = np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0])
        assert certificates._homotopy(phi, b, np.ones(2)) is None
        with pytest.raises(InfeasibleSystem):
            l1_min_exact(phi, b)

    def test_zero_rhs_gives_exact_zeros(self):
        phi = np.random.default_rng(3).standard_normal((4, 7))
        x = certificates._homotopy(phi, np.zeros(4), np.ones(7))
        assert x.tobytes() == np.zeros(7).tobytes()

    def test_redundant_rows(self):
        phi = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 2.0, 1.0])
        x = certificates._homotopy(phi, b, np.ones(3))
        assert np.abs(x - np.array([0.0, 1 / 3, 2 / 3])).max() <= 1e-15
        _assert_agrees_with_simplex(x, phi, b, None)

    def test_scale_covariant(self, ex2_phi, ex2_b):
        want = np.array([1 / 3, -0.5, 0.0, 0.0, 0.0])
        for s in (1.0, 1e-9, 1e-12, 1e12):
            x = certificates._homotopy(s * ex2_phi, s * ex2_b, np.ones(5))
            assert np.abs(x - want).max() <= 1e-14, s


class TestScaledSimplex:
    # Both inputs make the homotopy decline, so the simplex answers them.
    @pytest.mark.parametrize("s", [1.0, 1e-9, 1e-12, 1e9])
    def test_tied_columns_at_any_scale(self, s):
        assert np.array_equal(l1_min_exact(s * np.array([[1.0, 1.0]]), s * np.array([1.0])),
                              [1.0, 0.0])

    def test_tiny_infeasible_system_raises(self):
        with pytest.raises(InfeasibleSystem):
            l1_min_exact(np.array([[1.0, 1.0], [1.0, 1.0]]), 1e-9 * np.array([1.0, 2.0]))

    @pytest.mark.parametrize("s", [2.0**-30, 1e-9, 1e9, 2.0**30])
    def test_degenerate_example_at_any_scale(self, ex1_phi, ex1_b, s):
        want = l1_min_exact(ex1_phi, ex1_b)
        assert np.abs(l1_min_exact(s * ex1_phi, s * ex1_b) - want).max() <= 1e-12


@pytest.mark.skipif(not os.environ.get("RUN_SLOW"), reason="set RUN_SLOW=1 to run the LP sweep")
def test_oracle_sweep():
    # The inputs long benchmark runs reach: ops 0-249 of the recipe at seeds 1-8.
    failed = []
    certified = total = 0
    for seed in range(1, 9):
        for i in range(250):
            phi, b, weights, x0 = _oracle_problem(seed, i)
            total += 1
            try:
                _assert_oracle_answer(phi, b, weights, x0)
                w = np.ones(phi.shape[1]) if weights is None else weights
                x = certificates._homotopy(phi, b, w)
                if x is not None:
                    certified += 1
                    _assert_agrees_with_simplex(x, phi, b, weights)
            except (AssertionError, RuntimeError) as exc:
                failed.append(f"seed {seed} op {i}: {exc}")
    assert not failed, "; ".join(failed)
    assert certified >= 0.95 * total, f"{certified} of {total} certified"


class TestRecoveryTrial:
    def test_zero_order_trivial(self, ex1_phi):
        assert recovery_trial(ex1_phi, np.ones(3), 0, 5, seed=1) == 1.0

    def test_rescued_weights_always_recover(self, ex1_phi):
        rate = recovery_trial(ex1_phi, np.array([1.0, 1.0, 0.7]), 1, 100, seed=3)
        assert rate == 1.0

    def test_deterministic(self, ex2_phi):
        a = recovery_trial(ex2_phi, np.ones(5), 1, 30, seed=9)
        b = recovery_trial(ex2_phi, np.ones(5), 1, 30, seed=9)
        assert a == b

    def test_validation(self, ex1_phi):
        with pytest.raises(ValueError):
            recovery_trial(ex1_phi, np.ones(3), 5, 10, seed=0)
        with pytest.raises(ValueError):
            recovery_trial(ex1_phi, np.ones(3), 1, 0, seed=0)
        for k, trials in ((True, 2), (1.0, 2), (1, 2.5), (1, True)):
            with pytest.raises(ValueError, match="must be an integer"):
                recovery_trial(ex1_phi, np.ones(3), k, trials, seed=0)
        for seed in (True, 1.5, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                recovery_trial(ex1_phi, np.ones(3), 1, 2, seed=seed)
