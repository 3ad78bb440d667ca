"""Exact certificates: kernel vertex enumeration, NSP/WNSP, dominant support,
gamma intervals, exact RIC/ROC, bound formulas, LP oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
