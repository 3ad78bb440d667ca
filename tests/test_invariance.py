"""``l1_min_exact`` answers the same problem the same way however it is posed.

Mixing the rows of ``phi x = b`` by an orthogonal matrix, permuting the
columns together with the weights, scaling every weight by one constant, and
scaling ``phi`` and ``b`` by one constant all keep the weighted l1 minimizer.
Each case compares the answer to the transformed problem with the untransformed
one, to within ``1e-12 * max|x|``.
"""

import numpy as np
import pytest

from wl1min import l1_min_exact

# Weights for the fixtures' weighted cases: example 1's are the paper's.
_FIXTURE_WEIGHTS = {
    "ex1": np.array([1.0, 1.0, 0.7]),
    "ex2": np.random.default_rng(2).uniform(0.5, 1.0, 5),
}
_GAUSSIAN_SEEDS = (0, 1, 2)


def _gaussian(seed, weighted=True):
    """A 32x128 Gaussian system with a planted 5-sparse signal and U[0.5, 1) weights."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((32, 128))
    x0 = np.zeros(128)
    x0[rng.permutation(128)[:5]] = rng.standard_normal(5)
    w = rng.uniform(0.5, 1.0, 128)
    return phi, phi @ x0, w if weighted else None


_PROBLEMS = [f"{name}/{kind}" for name in _FIXTURE_WEIGHTS for kind in ("unit", "weighted")]
_PROBLEMS += [f"gauss{seed}/weighted" for seed in _GAUSSIAN_SEEDS] + ["gauss0/unit"]


@pytest.fixture(params=_PROBLEMS)
def problem(request):
    name, kind = request.param.split("/")
    if name.startswith("gauss"):
        return _gaussian(int(name[len("gauss"):]), kind == "weighted")
    phi, b = request.getfixturevalue(f"{name}_phi"), request.getfixturevalue(f"{name}_b")
    return phi, b, _FIXTURE_WEIGHTS[name] if kind == "weighted" else None


def _assert_same_answer(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_orthogonal_row_mixing(problem):
    phi, b, w = problem
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((phi.shape[0],) * 2))
    _assert_same_answer(l1_min_exact(q @ phi, q @ b, w), l1_min_exact(phi, b, w))


def test_column_permutation(problem):
    phi, b, w = problem
    p = np.random.default_rng(6).permutation(phi.shape[1])
    got = l1_min_exact(phi[:, p], b, None if w is None else w[p])
    _assert_same_answer(got, l1_min_exact(phi, b, w)[p])


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_weight_scaling(problem, c):
    phi, b, w = problem
    scaled = c * (np.ones(phi.shape[1]) if w is None else w)
    _assert_same_answer(l1_min_exact(phi, b, scaled), l1_min_exact(phi, b, w))


@pytest.mark.parametrize("s", [2.0**-30, 2.0**30, 1e-9, 1e9])
@pytest.mark.parametrize("seed", _GAUSSIAN_SEEDS)
def test_data_scaling_with_weights(seed, s):
    phi, b, w = _gaussian(seed)
    _assert_same_answer(l1_min_exact(s * phi, s * b, w), l1_min_exact(phi, b, w))
