"""Dense linear-algebra primitives.

Matrices are 2-d float64 numpy arrays (row major), vectors are 1-d arrays,
index sets are strictly increasing tuples of 0-based column indices, and a
subspace basis is an (ambient, dim) array with orthonormal columns.  All
functions here are pure: inputs are validated, never mutated.

The module also owns the plain-text matrix format used by the command line
tools: the first line holds ``rows cols``, followed by one whitespace
separated row of decimal or scientific literals per matrix row.  Vectors are
stored as single-column matrices.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "largest_gram_eigenvalue",
    "kernel_basis",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]


def as_matrix(a) -> np.ndarray:
    """Return ``a`` as a validated 2-d float64 array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must have at least one row and column, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    """Return ``a`` as a validated 1-d float64 array with finite entries."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got array of shape {v.shape}")
    if v.shape[0] < 1:
        raise ValueError("vector must have at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


# Power-iteration stopping rule: relative Rayleigh-quotient change and cap.
_RAYLEIGH_TOL = 1e-12
_POWER_MAX_ITER = 10000


def _power_run(a: np.ndarray, v: np.ndarray):
    """One power-iteration run on ``a.T @ a`` from unit start ``v``.

    Returns ``(lam, converged, stationary, iterations)`` where ``lam`` is the
    final Rayleigh quotient (always a lower bound on the true eigenvalue),
    ``converged`` reports whether the quotient settled within the tolerance and
    ``stationary`` whether the eigen-residual is small at that point.
    """
    lam = -1.0
    for it in range(1, _POWER_MAX_ITER + 1):
        u = a @ v
        lam_new = float(u @ u)
        if lam_new == 0.0:
            # The start vector is annihilated; nothing more to learn here.
            return 0.0, True, False, it
        w = a.T @ u
        if abs(lam_new - lam) <= _RAYLEIGH_TOL * max(1.0, lam_new):
            resid = float(np.linalg.norm(w - lam_new * v))
            return lam_new, True, resid <= 1e-6 * lam_new, it
        lam = lam_new
        v = w / float(np.linalg.norm(w))
    return lam, False, False, _POWER_MAX_ITER


def largest_gram_eigenvalue(a) -> float:
    """Largest eigenvalue of ``a.T @ a`` by power iteration.

    Deterministic all-ones start.  If the Rayleigh quotient settles on a
    non-stationary point (the start can be orthogonal to the top eigenvector)
    the iteration restarts once from a seeded pseudorandom vector.  Hitting
    the iteration cap emits a ``RuntimeWarning`` and returns the best
    estimate, which is always a lower bound.
    """
    a = as_matrix(a)
    n = a.shape[1]
    v0 = np.ones(n) / math.sqrt(n)
    lam, converged, stationary, _ = _power_run(a, v0)
    if not (converged and stationary):
        rng = np.random.default_rng(0x5EED)
        v1 = rng.standard_normal(n)
        v1 /= float(np.linalg.norm(v1))
        lam2, converged2, stationary2, _ = _power_run(a, v1)
        lam = max(lam, lam2)
        if not (converged and converged2):
            warnings.warn(
                f"power iteration did not converge within {_POWER_MAX_ITER} iterations; "
                f"returning the best (lower-bound) estimate {lam!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return lam


def kernel_basis(a) -> np.ndarray:
    """Orthonormal basis of the null space ``{x : a @ x = 0}``.

    Returns an ``(n, dim)`` array whose columns span the kernel; ``dim`` may
    be zero.  Rank is decided at the singular-value threshold
    ``1e-10 * sigma_max * max(rows, cols)``.
    """
    a = as_matrix(a)
    m, n = a.shape
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    tol = 1e-10 * smax * max(m, n)
    rank = int(np.count_nonzero(s > tol))
    return vh[rank:].T.copy()


def _parse_header(line: str, path) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"{path}: header must be 'rows cols', got {line.strip()!r}")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{path}: header must hold two integers, got {line.strip()!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: matrix dimensions must be positive, got {rows}x{cols}")
    return rows, cols


def read_matrix(path) -> np.ndarray:
    """Read a matrix from the plain-text format (header line, then rows)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    rows, cols = _parse_header(lines[0], path)
    if len(lines) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    data = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise ValueError(f"{path}: row {i + 1} has {len(parts)} entries, expected {cols}")
        try:
            data[i] = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}: row {i + 1} holds a non-numeric entry") from None
    return as_matrix(data)


def write_matrix(path, a) -> None:
    """Write a matrix in the plain-text format with round-trip precision."""
    a = as_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_vector(path) -> np.ndarray:
    """Read a vector stored as a single-column matrix."""
    m = read_matrix(path)
    if m.shape[1] != 1:
        raise ValueError(f"{path}: vectors are single-column matrices, got {m.shape[1]} columns")
    return m[:, 0].copy()


def write_vector(path, x) -> None:
    """Write a vector as a single-column matrix."""
    x = as_vector(x)
    write_matrix(path, x.reshape(-1, 1))
