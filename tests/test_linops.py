"""Dense linear-algebra plumbing: validation, eigenvalues, kernels, file I/O."""

import warnings

import numpy as np
import pytest

from wl1min import (
    as_int,
    as_matrix,
    as_number,
    as_system,
    as_vector,
    as_weights,
    kernel_basis,
    largest_gram_eigenvalue,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)
from wl1min.linops import _null_space


class TestValidation:
    def test_as_matrix_accepts_lists(self):
        a = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert a.shape == (2, 2)
        assert a.dtype == np.float64

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_as_matrix_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0.0]])

    def test_as_matrix_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector([[1.0], [2.0]])

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([np.nan])


class TestInputRules:
    def test_as_int(self):
        assert as_int(3, "k") == 3
        for bad in (3.0, True, "3"):
            with pytest.raises(ValueError, match="k must be an integer"):
                as_int(bad, "k")

    def test_as_number(self):
        assert as_number(2, "eps") == 2.0 and type(as_number(2, "eps")) is float
        for bad in (False, "0.1", None):
            with pytest.raises(ValueError, match="eps must be a number"):
                as_number(bad, "eps")
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="eps must be finite"):
                as_number(bad, "eps")

    def test_as_system(self):
        a, b = as_system([[1.0, 2.0]], [3.0])
        assert a.shape == (1, 2) and b.shape == (1,)
        with pytest.raises(ValueError, match="dimension mismatch"):
            as_system(np.eye(2), np.ones(3))

    def test_as_weights(self):
        assert np.array_equal(as_weights([0.5, 1.0], 2), [0.5, 1.0])
        with pytest.raises(ValueError, match="weights have 3 entries, expected 2"):
            as_weights(np.ones(3), 2)
        with pytest.raises(ValueError, match="strictly positive"):
            as_weights([1.0, 0.0], 2)


class TestLargestGramEigenvalue:
    def test_identity(self):
        assert largest_gram_eigenvalue(np.eye(2)) == pytest.approx(1.0, rel=1e-10)

    def test_scalar(self):
        assert largest_gram_eigenvalue(np.array([[2.0]])) == pytest.approx(4.0, rel=1e-10)

    def test_reference_matrix(self, ex1_phi):
        # independent check: full eigendecomposition of the 3x3 Gram matrix
        expected = float(np.linalg.eigvalsh(ex1_phi.T @ ex1_phi).max())
        got = largest_gram_eigenvalue(ex1_phi)
        assert got == pytest.approx(expected, rel=1e-8)
        assert got == pytest.approx(0.82, rel=1e-8)

    def test_random_against_eigvalsh(self):
        rng = np.random.default_rng(3)
        for shape in [(6, 9)] * 10 + [(9, 6)] * 10 + [(7, 7)] * 10:
            a = rng.standard_normal(shape)
            expected = float(np.linalg.eigvalsh(a.T @ a).max())
            assert largest_gram_eigenvalue(a) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("shape", [(128, 512), (512, 128), (64, 64)])
    def test_matches_top_singular_value_squared(self, shape):
        # ISTA steps by 1/L, so L is sigma_max**2 up to rounding, not a
        # lower estimate of it.
        a = np.random.default_rng(11).standard_normal(shape)
        sigma = float(np.linalg.svd(a, compute_uv=False)[0])
        assert largest_gram_eigenvalue(a) == pytest.approx(sigma**2, rel=1e-13)

    def test_diagonal(self):
        assert largest_gram_eigenvalue(np.diag([3.0, -1.0])) == pytest.approx(9.0, rel=1e-10)

    def test_zero_matrix(self):
        # The solver falls back to L = 1 on exactly this value.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert largest_gram_eigenvalue(np.zeros((3, 2))) == 0.0


class TestKernelBasis:
    def test_reference_kernel_direction(self, ex1_phi):
        basis = kernel_basis(ex1_phi)
        assert basis.shape == (3, 1)
        direction = np.array([3 / 8, 3 / 8, -1.0])
        direction /= np.linalg.norm(direction)
        cos = abs(float(direction @ basis[:, 0]))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_invertible_has_trivial_kernel(self):
        basis = kernel_basis(np.array([[2.0, 1.0], [0.0, 1.0]]))
        assert basis.shape == (2, 0)

    def test_block_with_no_rows_gives_the_identity(self):
        # The certificates' degenerate recursion starts from the empty zero set.
        assert np.array_equal(_null_space(np.zeros((0, 4))), np.eye(4))

    def test_reference_kernel_dim_two(self, ex2_phi):
        assert kernel_basis(ex2_phi).shape == (5, 2)

    def test_annihilation_and_orthonormality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((4, 9))
            basis = kernel_basis(a)
            assert basis.shape == (9, 5)
            norm_a = np.linalg.norm(a, 2)
            for j in range(basis.shape[1]):
                assert np.linalg.norm(a @ basis[:, j]) <= 1e-8 * norm_a
            gram = basis.T @ basis
            assert np.allclose(gram, np.eye(5), atol=1e-10)


class TestFileFormat:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 7))
        path = tmp_path / "a.txt"
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(6)
        path = tmp_path / "x.txt"
        write_vector(path, x)
        assert np.array_equal(read_vector(path), x)

    def test_vector_is_single_column_matrix(self, tmp_path):
        path = tmp_path / "x.txt"
        write_vector(path, np.array([1.5, -2.0]))
        header = path.read_text().splitlines()[0]
        assert header.split() == ["2", "1"]
        assert np.array_equal(read_matrix(path), np.array([[1.5], [-2.0]]))

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1 2\n1e-3 -2.5E+1\n")
        assert np.array_equal(read_matrix(path), np.array([[1e-3, -25.0]]))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("one two\n1 2\n")
        with pytest.raises(ValueError, match="bad.txt"):
            read_matrix(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 3\n1 2\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.txt")

    def test_reference_fixtures_parse(self, ex1_phi, ex1_b, ex2_phi, ex2_b):
        assert ex1_phi.shape == (2, 3)
        assert ex1_b.shape == (2,)
        assert ex2_phi.shape == (3, 5)
        assert ex2_b.shape == (3,)
        assert np.allclose(ex1_phi, [[0.8, 0.0, 0.3], [0.0, 0.8, 0.3]], atol=1e-15)
        assert np.allclose(ex1_b, [0.6, 0.6], atol=1e-15)
