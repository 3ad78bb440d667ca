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

import numpy as np

__all__ = [
    "as_int",
    "as_number",
    "as_matrix",
    "as_vector",
    "as_system",
    "as_weights",
    "largest_gram_eigenvalue",
    "kernel_basis",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]


def as_int(value, name: str) -> int:
    """Return ``value`` if it is an ``int``; ``bool`` is rejected."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def as_number(value, name: str) -> float:
    """Return ``value`` as a finite float; ``bool`` is rejected."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


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


def as_system(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(as_matrix(a), as_vector(b))`` with one rhs entry per row."""
    a = as_matrix(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: matrix is {a.shape}, rhs has {b.shape[0]} entries")
    return a, b


def as_weights(w, n: int) -> np.ndarray:
    """Return ``w`` as a validated vector of ``n`` strictly positive weights."""
    w = as_vector(w)
    if w.shape[0] != n:
        raise ValueError(f"weights have {w.shape[0]} entries, expected {n}")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    return w


def largest_gram_eigenvalue(a) -> float:
    """Largest eigenvalue of ``a.T @ a``, from LAPACK's symmetric eigensolver
    on the smaller of ``a @ a.T`` and ``a.T @ a`` (both share it)."""
    a = as_matrix(a)
    g = a @ a.T if a.shape[0] < a.shape[1] else a.T @ a
    return float(np.linalg.eigvalsh(g)[-1])


def _null_space(a: np.ndarray) -> np.ndarray:
    """``kernel_basis`` without input checks or the copy, for the
    certificates' slices of checked matrices.  A slice with no rows gives the
    identity, which is what the SVD returns as ``vh`` then."""
    _, s, vh = np.linalg.svd(a)
    tol = 1e-10 * float(s[0]) * max(a.shape) if s.size else 0.0
    return vh[int(np.count_nonzero(s > tol)) :].T


def kernel_basis(a) -> np.ndarray:
    """Orthonormal basis of the null space ``{x : a @ x = 0}``.

    Returns an ``(n, dim)`` array whose columns span the kernel; ``dim`` may
    be zero.  Rank is decided at the singular-value threshold
    ``1e-10 * sigma_max * max(rows, cols)``.
    """
    return _null_space(as_matrix(a)).copy()


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
