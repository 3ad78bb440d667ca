"""Exact recovery certificates for (weighted) l1 minimization.

The null space property (NSP) of order ``k`` asks that every nonzero kernel
vector of the design matrix carries less than half of its l1 mass on any
``k`` coordinates.  It is equivalent to exact recovery of all ``k``-sparse
vectors by l1 minimization, and its weighted counterpart (WNSP, mass measured
after multiplying by the weight vector) plays the same role for weighted l1.

Because the top-``k`` mass is a convex function, its maximum over the unit
l1 sphere of the kernel is attained at a vertex of the kernel's l1-ball
section, and those vertices are finitely enumerable: force ``dim - 1``
coordinates to zero, solve the remaining one-dimensional space, normalize.
Everything in this module builds on that enumeration, plus an exact
two-phase simplex LP used as the ground-truth l1 minimizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .linops import as_matrix, as_vector, kernel_basis

__all__ = [
    "EnumerationCapExceeded",
    "InfeasibleSystem",
    "VertexSet",
    "NspReport",
    "DominantSupportReport",
    "DownweightInterval",
    "RicValue",
    "RocValue",
    "l1ball_section_vertices",
    "check_nsp",
    "check_wnsp",
    "dominant_support",
    "downweight_interval",
    "compute_ric",
    "compute_roc",
    "ric_bound_scaled_order",
    "ric_bound_plain_order",
    "ric_bound_plain_order_infimum",
    "l1_min_exact",
    "recovery_trial",
]

_DEDUPE_TOL = 1e-9
# Masses within this of the dominant one make the dominant support not unique.
_TIE_TOL = 1e-9
# Candidates scored per batched eigen/singular-value call in compute_ric/roc.
_CHUNK = 8192


class EnumerationCapExceeded(RuntimeError):
    """Raised when a subset enumeration would exceed its work cap."""

    def __init__(self, required: int, cap: int, what: str = "subsets"):
        self.required = required
        self.cap = cap
        super().__init__(
            f"enumeration of {required} {what} exceeds the cap of {cap}; "
            f"raise the cap to force the computation"
        )


class InfeasibleSystem(ValueError):
    """Raised when ``phi x = b`` has no solution."""


@dataclass
class VertexSet:
    """Vertices of the l1-ball section of a subspace.

    ``vertices`` has one unit-l1 row per vertex; the set is closed under
    negation.  ``had_degenerate_zero_set`` flags inputs where some forced
    zero pattern met the subspace in dimension above one, handled by forcing
    additional zeros recursively.
    """

    vertices: np.ndarray
    had_degenerate_zero_set: bool = False


@dataclass
class NspReport:
    """Verdict of an (un)weighted null space property check.

    ``worst_margin`` is ``max ||h_S||_1 - 1/2`` over unit-l1 kernel vectors
    (weighted mass for the weighted check); the property holds iff it is
    negative.  A trivial kernel makes the check vacuous: ``holds`` is true
    and the witness fields are ``None``.
    """

    holds: bool
    order: int
    vacuous: bool
    worst_margin: float | None
    witness_vertex: np.ndarray | None
    witness_set: tuple[int, ...] | None


@dataclass
class DominantSupportReport:
    """Where unit-l1 kernel vectors concentrate the most l1 mass.

    ``support`` is the argmax over (size-``k`` support, unit-l1 kernel
    vector) pairs of the carried mass, ``vertex`` a maximizing vector, and
    ``runner_up_mass`` the best mass any *other* support achieves.  The
    maximizing support is ``unique`` when no other support comes within
    1e-9 of ``mass``.
    """

    support: tuple[int, ...]
    vertex: np.ndarray
    mass: float
    runner_up_mass: float
    unique: bool


@dataclass
class DownweightInterval:
    """Admissible down-weights for the dominant support.

    A weight vector that is 1 off the dominant support and ``gamma`` on it
    certifies weighted recovery when ``gamma < hi_nullspace``; the
    null-space route additionally wants ``gamma > lo`` (``lo = 1`` when the
    dominant support is not unique, leaving nothing admissible).  ``hi_ric``
    is the
    isometry-constant route: the largest ``gamma`` the measured constant
    supports, present only when a budget ``(a, delta)`` was given.
    """

    lo: float
    hi_nullspace: float
    hi_ric: float | None
    feasible: bool


@dataclass
class RicValue:
    """Exact order-``k`` restricted isometry constant with an attaining set."""

    order: int
    value: float
    attaining: tuple[int, ...]


@dataclass
class RocValue:
    """Exact restricted orthogonality constant with an attaining pair."""

    orders: tuple[int, int]
    value: float
    attaining: tuple[tuple[int, ...], tuple[int, ...]]


def _nullspace_of_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Orthonormal null-space basis of a short row block (columns of output)."""
    if rows.shape[0] == 0:
        return np.eye(width)
    _, s, vh = np.linalg.svd(rows)
    smax = float(s[0]) if s.size else 0.0
    tol = 1e-10 * smax * max(rows.shape)
    rank = int(np.count_nonzero(s > tol))
    return vh[rank:].T


def l1ball_section_vertices(basis, *, max_zero_sets: int = 10**6) -> VertexSet:
    """Vertices of ``{h in span(basis) : ||h||_1 <= 1}``.

    ``basis`` is an ``(n, d)`` array with orthonormal columns (``d >= 1``
    for a non-empty result).  Every vertex has at least ``d - 1`` zero
    coordinates, so candidates come from forcing each ``(d-1)``-subset of
    coordinates to zero and normalizing the remaining direction.  Zero sets
    that meet the subspace in dimension above one recurse with one more
    forced zero (flagged in the output); degeneracy deeper than ``d`` extra
    zeros aborts.  Refuses upfront when the count of base zero sets,
    ``C(n, d-1)``, exceeds ``max_zero_sets``.
    """
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2:
        raise ValueError(f"basis must be 2-d, got shape {b.shape}")
    n, d = b.shape
    if d == 0:
        return VertexSet(np.zeros((0, n)))
    if d > n:
        raise ValueError(f"basis has more columns than rows: {b.shape}")
    required = math.comb(n, d - 1)
    if required > max_zero_sets:
        raise EnumerationCapExceeded(required, max_zero_sets, "kernel zero sets")

    directions: list[np.ndarray] = []
    degenerate = False
    visited: set[tuple[int, ...]] = set()

    def emit(direction: np.ndarray, zero_idx: tuple[int, ...]) -> None:
        v = b @ direction
        if zero_idx:
            v[list(zero_idx)] = 0.0  # exact zeros by construction
        v = v / float(np.abs(v).sum())
        first = int(np.argmax(np.abs(v) > _DEDUPE_TOL))
        if v[first] < 0.0:
            v = -v
        directions.append(v)

    def explore(zero_idx: tuple[int, ...], extra: int) -> None:
        nonlocal degenerate
        if zero_idx in visited:
            return
        visited.add(zero_idx)
        ns = _nullspace_of_rows(b[list(zero_idx), :], d)
        dim = ns.shape[1]
        if dim == 0:
            return
        if dim == 1:
            emit(ns[:, 0], zero_idx)
            return
        degenerate = True
        if extra >= d:
            raise RuntimeError(
                f"zero set {zero_idx} still meets the subspace in dimension {dim} "
                f"after forcing {extra} extra zeros; input is too degenerate"
            )
        present = set(zero_idx)
        for j in range(n):
            if j not in present:
                explore(tuple(sorted(zero_idx + (j,))), extra + 1)

    if d == 1:
        explore((), 0)
    else:
        for zero_idx in itertools.combinations(range(n), d - 1):
            explore(zero_idx, 0)

    unique: list[np.ndarray] = []
    for v in directions:
        if not any(float(np.max(np.abs(v - u))) <= _DEDUPE_TOL for u in unique):
            unique.append(v)
    half = np.array(unique)
    return VertexSet(np.vstack([half, -half]), degenerate)


def _topk_masses(vertices: np.ndarray, k: int) -> np.ndarray:
    mags = np.sort(np.abs(vertices), axis=1)[:, ::-1]
    return mags[:, :k].sum(axis=1)


def _topk_set(vertex: np.ndarray, k: int) -> tuple[int, ...]:
    order = np.argsort(-np.abs(vertex), kind="stable")  # ties to the smaller index
    return tuple(sorted(int(i) for i in order[:k]))


def _nsp_from_vertices(vertices: np.ndarray, k: int) -> NspReport:
    masses = _topk_masses(vertices, k)
    worst = int(np.argmax(masses))
    margin = float(masses[worst]) - 0.5
    return NspReport(
        holds=margin < 0.0,
        order=k,
        vacuous=False,
        worst_margin=margin,
        witness_vertex=vertices[worst].copy(),
        witness_set=_topk_set(vertices[worst], k),
    )


def _validate_order(phi: np.ndarray, k: int) -> None:
    if not 1 <= k <= phi.shape[1]:
        raise ValueError(f"order k must satisfy 1 <= k <= {phi.shape[1]}, got {k}")


def check_nsp(phi, k: int, *, max_zero_sets: int = 10**6) -> NspReport:
    """Exact order-``k`` null space property check by vertex enumeration.

    The property holds iff every unit-l1 kernel vector carries less than
    half of its mass on its top ``k`` coordinates, so only the enumerated
    vertices need inspecting and the witness set is always the top-``k``
    magnitude set of the witness vertex.
    """
    phi = as_matrix(phi)
    _validate_order(phi, k)
    basis = kernel_basis(phi)
    if basis.shape[1] == 0:
        return NspReport(True, k, True, None, None, None)
    vertices = l1ball_section_vertices(basis, max_zero_sets=max_zero_sets).vertices
    return _nsp_from_vertices(vertices, k)


def check_wnsp(phi, weights, k: int, *, max_zero_sets: int = 10**6) -> NspReport:
    """Weighted null space property check.

    Multiplying the kernel by the (positive) weights turns weighted masses
    into plain ones, so the check reduces to the unweighted one on the
    rescaled kernel; the witness vector is mapped back and re-normalized to
    unit l1 norm, and the witness set is where the *weighted* mass of that
    vector concentrates.
    """
    phi = as_matrix(phi)
    _validate_order(phi, k)
    w = as_vector(weights)
    if w.shape[0] != phi.shape[1]:
        raise ValueError(f"weights have {w.shape[0]} entries, expected {phi.shape[1]}")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    basis = kernel_basis(phi)
    if basis.shape[1] == 0:
        return NspReport(True, k, True, None, None, None)
    scaled = basis * w[:, None]
    q, _ = np.linalg.qr(scaled)
    vertices = l1ball_section_vertices(q, max_zero_sets=max_zero_sets).vertices
    report = _nsp_from_vertices(vertices, k)
    h = report.witness_vertex / w
    h /= float(np.abs(h).sum())
    return replace(report, witness_vertex=h)


def dominant_support(phi, k: int, *, max_zero_sets: int = 10**6) -> DominantSupportReport:
    """Support of size ``k`` carrying the most l1 mass of any unit-l1 kernel
    vector, with the best mass any other support achieves.

    Requires a nontrivial kernel.  For each vertex the best support is its
    top-``k`` set; the best *other* support swaps the smallest included
    magnitude for the largest excluded one, which is optimal because the
    included magnitudes dominate the excluded ones.
    """
    phi = as_matrix(phi)
    _validate_order(phi, k)
    basis = kernel_basis(phi)
    if basis.shape[1] == 0:
        raise ValueError("trivial kernel: no nonzero null-space vectors exist")
    vertices = l1ball_section_vertices(basis, max_zero_sets=max_zero_sets).vertices

    mags = np.abs(vertices)
    order = np.argsort(-mags, axis=1, kind="stable")  # ties to the smaller index
    ranked = np.take_along_axis(mags, order, axis=1)
    masses = ranked[:, :k].sum(axis=1)
    best = int(np.argmax(masses))  # the first of tied vertices wins
    support = _topk_set(vertices[best], k)

    # Rows whose own top-k set is the dominant support offer the swap instead.
    dominant = np.all(np.sort(order[:, :k], axis=1) == support, axis=1)
    if k < phi.shape[1]:
        swapped = masses - ranked[:, k - 1] + ranked[:, k]
        candidates = np.where(dominant, swapped, masses)
    else:
        candidates = masses[~dominant]  # the only support of size n is the dominant one
    runner_up = float(candidates.max(initial=0.0))
    mass = float(masses[best])

    return DominantSupportReport(
        support=support,
        vertex=vertices[best].copy(),
        mass=mass,
        runner_up_mass=runner_up,
        unique=runner_up < mass - _TIE_TOL,
    )


def downweight_interval(
    phi,
    k: int,
    ric_budget: tuple[float, float] | None = None,
    *,
    max_zero_sets: int = 10**6,
) -> DownweightInterval:
    """Open interval of admissible down-weights for the dominant support.

    ``lo`` is the runner-up to dominant mass ratio (1 when the dominant
    support is not unique), ``hi_nullspace`` the weighted-null-space ceiling
    ``(1 - mass) / mass``, and ``hi_ric`` inverts the scaled-order isometry
    bound at a budget ``(a, delta)``: ``gamma < sqrt((a-1)(1-delta^2))/delta``.
    """
    report = dominant_support(phi, k, max_zero_sets=max_zero_sets)
    lo = report.runner_up_mass / report.mass if report.unique else 1.0
    hi_nullspace = (1.0 - report.mass) / report.mass
    hi_ric = None
    if ric_budget is not None:
        a, delta = float(ric_budget[0]), float(ric_budget[1])
        if a <= 1.0:
            raise ValueError(f"budget multiplier a must exceed 1, got {a}")
        if delta <= 0.0:
            raise ValueError(f"budget delta must be positive, got {delta}")
        hi_ric = math.sqrt((a - 1.0) * (1.0 - delta * delta)) / delta if delta < 1.0 else 0.0
    return DownweightInterval(
        lo=lo,
        hi_nullspace=hi_nullspace,
        hi_ric=hi_ric,
        feasible=lo < min(hi_nullspace, 1.0),
    )


def _best_candidate(candidates, score):
    """``(value, candidate)`` of the highest-scoring candidate; the first of
    tied candidates wins.

    ``score`` maps a list of up to ``_CHUNK`` candidates to an array of their
    values, so each block is scored in one batched call.
    """
    best = -1.0
    best_candidate = None
    it = iter(candidates)
    while block := list(itertools.islice(it, _CHUNK)):
        values = score(block)
        local = int(np.argmax(values))
        if float(values[local]) > best:
            best = float(values[local])
            best_candidate = block[local]
    return best, best_candidate


def compute_ric(phi, k: int, *, max_subsets: int = 10**6) -> RicValue:
    """Exact order-``k`` restricted isometry constant.

    Enumerates every size-``k`` column subset and takes the largest spectral
    deviation ``||phi_S.T phi_S - I||_2`` (symmetric, so the largest absolute
    eigenvalue).  Refuses with the required work estimate when the subset
    count exceeds ``max_subsets``.
    """
    phi = as_matrix(phi)
    _validate_order(phi, k)
    n = phi.shape[1]
    required = math.comb(n, k)
    if required > max_subsets:
        raise EnumerationCapExceeded(required, max_subsets, what=f"size-{k} column subsets")
    gram = phi.T @ phi
    eye = np.eye(k)

    def deviation(block):
        idx = np.array(block)
        eigs = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]] - eye)
        return np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))

    value, attaining = _best_candidate(itertools.combinations(range(n), k), deviation)
    return RicValue(order=k, value=value, attaining=attaining)


def _disjoint_pairs(n: int, k1: int, k2: int):
    for s1 in itertools.combinations(range(n), k1):
        s1_set = set(s1)
        rest = [j for j in range(n) if j not in s1_set]
        for s2 in itertools.combinations(rest, k2):
            yield s1, s2


def compute_roc(phi, k1: int, k2: int, *, max_pairs: int = 10**6) -> RocValue:
    """Exact restricted orthogonality constant for orders ``(k1, k2)``.

    Maximizes ``||phi_S1.T phi_S2||_2`` over disjoint supports: the tight
    constant in ``|<phi u, phi v>| <= theta ||u||_2 ||v||_2`` for unit
    vectors on disjoint supports of those sizes.
    """
    phi = as_matrix(phi)
    n = phi.shape[1]
    if k1 < 1 or k2 < 1 or k1 + k2 > n:
        raise ValueError(f"need k1, k2 >= 1 with k1 + k2 <= {n}, got ({k1}, {k2})")
    required = math.comb(n, k1) * math.comb(n - k1, k2)
    if required > max_pairs:
        raise EnumerationCapExceeded(required, max_pairs, what="disjoint support pairs")
    gram = phi.T @ phi

    def coupling(block):
        idx1 = np.array([p[0] for p in block])
        idx2 = np.array([p[1] for p in block])
        return np.linalg.svd(gram[idx1[:, :, None], idx2[:, None, :]], compute_uv=False)[:, 0]

    value, attaining = _best_candidate(_disjoint_pairs(n, k1, k2), coupling)
    return RocValue(orders=(k1, k2), value=value, attaining=attaining)


def ric_bound_scaled_order(a: float, gamma: float) -> float:
    """Sufficient threshold on the order-``ceil(a k)`` isometry constant.

    Recovery of ``k``-sparse vectors under a down-weight ``gamma`` follows
    whenever that constant stays below ``sqrt((a-1) / (a-1+gamma^2))``.
    """
    if a <= 1.0:
        raise ValueError(f"need a > 1, got {a}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"need 0 < gamma <= 1, got {gamma}")
    return math.sqrt((a - 1.0) / (a - 1.0 + gamma * gamma))


def _iceil(x: float) -> int:
    # Guard against float noise lifting an exactly integer product.
    return math.ceil(x - 1e-12)


def ric_bound_plain_order(k: int, gamma: float) -> float:
    """Sufficient threshold on the order-``k`` isometry constant itself.

    Even ``k``: ``1 / (1 + 2 ceil(gamma k) / k)``; odd ``k``:
    ``1 / (1 + 2 ceil(gamma k) / sqrt(k^2 - 1))``.  Requires ``k >= 2``.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"need 0 < gamma <= 1, got {gamma}")
    c = _iceil(gamma * k)
    if k % 2 == 0:
        return 1.0 / (1.0 + 2.0 * c / k)
    return 1.0 / (1.0 + 2.0 * c / math.sqrt(k * k - 1.0))


def ric_bound_plain_order_infimum(gamma: Fraction, k_start: int) -> tuple[float, int]:
    """Infimum of ``ric_bound_plain_order(k, gamma)`` over ``k >= k_start``
    of the same parity, with the attaining ``k``.

    For rational ``gamma = p/q`` the ceiling offset ``ceil(gamma k) - gamma k``
    recurs with period ``2q`` in ``k`` and, within one residue class, the
    bound increases with ``k``; the infimum is therefore attained on
    ``[k_start, k_start + 2q]`` and the scan below is exact.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise ValueError(f"need 0 < gamma <= 1, got {gamma}")
    if k_start < 2:
        raise ValueError(f"need k_start >= 2, got {k_start}")
    p, q = gamma.numerator, gamma.denominator
    best_value = math.inf
    best_k = k_start
    for k in range(k_start, k_start + 2 * q + 1, 2):
        c = -((-p * k) // q)  # exact ceil(p k / q)
        if k % 2 == 0:
            value = float(Fraction(k, k + 2 * c))
        else:
            value = 1.0 / (1.0 + 2.0 * c / math.sqrt(k * k - 1.0))
        if value < best_value:
            best_value = value
            best_k = k
    return best_value, best_k


# ---------------------------------------------------------------------------
# Exact weighted l1 minimization: self-contained two-phase simplex.
# ---------------------------------------------------------------------------

_PIVOT_TOL = 1e-9


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Pivot on ``tableau[row, col]``: column ``col`` enters the basis at ``row``.

    Rows whose coefficient in ``col`` is already zero are skipped rather
    than reduced by ``0 * pivot row``, which could flip the sign of a zero.
    """
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _pivot_loop(tableau: np.ndarray, basis: list[int], ncols: int, max_pivots: int) -> None:
    """Run simplex pivots under Bland's rule until optimality.

    ``tableau`` rows 0..m-1 hold the constraints, the last row the reduced
    costs with the negated objective value in its last entry.  ``ncols``
    bounds the candidate entering columns (excludes the rhs).
    """
    m = tableau.shape[0] - 1
    for _ in range(max_pivots):
        costs = tableau[m, :ncols]
        entering = -1
        for j in range(ncols):  # Bland: smallest eligible index enters
            if costs[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return
        col = tableau[:m, entering]
        rhs = tableau[:m, -1]
        leaving = -1
        best_ratio = math.inf
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = rhs[i] / col[i]
                # Bland: ties resolve to the smallest basis variable.
                if ratio < best_ratio - _PIVOT_TOL or (
                    ratio <= best_ratio + _PIVOT_TOL and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    if ratio < best_ratio:
                        best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("LP is unbounded; the weighted l1 objective cannot be")
        _pivot(tableau, basis, leaving, entering)
    raise RuntimeError(f"simplex did not terminate within {max_pivots} pivots")


def _simplex_solve(a: np.ndarray, rhs: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Minimize ``costs @ z`` subject to ``a z = rhs, z >= 0`` exactly."""
    m, n = a.shape
    a = a.copy()
    rhs = rhs.copy()
    flip = rhs < 0.0
    a[flip] *= -1.0
    rhs[flip] *= -1.0

    # Phase 1: artificial basis, minimize the artificial mass.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = rhs
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -rhs.sum()
    basis = list(range(n, n + m))
    max_pivots = 1000 * (n + m + 1)
    _pivot_loop(tableau, basis, n + m, max_pivots)
    if -tableau[m, -1] > 1e-7 * max(1.0, float(rhs.sum())):
        raise InfeasibleSystem("the linear system phi x = b has no solution")

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] < n:
            keep_rows.append(i)
            continue
        entering = -1
        for j in range(n):
            if abs(tableau[i, j]) > _PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            continue  # redundant constraint
        _pivot(tableau, basis, i, entering)
        keep_rows.append(i)

    rows = keep_rows + [m]
    tableau = tableau[rows][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep_rows]
    mm = len(basis)

    # Phase 2: restore the true costs, cancel them on the basis, re-optimize.
    tableau[mm, :n] = costs
    tableau[mm, -1] = 0.0
    for i, var in enumerate(basis):
        if tableau[mm, var] != 0.0:
            tableau[mm] -= tableau[mm, var] * tableau[i]
    _pivot_loop(tableau, basis, n, max_pivots)

    z = np.zeros(n)
    for i, var in enumerate(basis):
        z[var] = tableau[i, -1]
    return z


def l1_min_exact(phi, b, weights=None) -> np.ndarray:
    """Exact minimizer of ``sum_i w_i |x_i|`` subject to ``phi x = b``.

    Solved as the split LP ``min w.(u + v) s.t. phi(u - v) = b, u, v >= 0``
    with a self-contained two-phase simplex under Bland's anti-cycling rule,
    so the returned point is always a vertex of the solution polytope.
    Raises :class:`InfeasibleSystem` when no solution exists.
    """
    phi = as_matrix(phi)
    b = as_vector(b)
    m, n = phi.shape
    if b.shape[0] != m:
        raise ValueError(f"dimension mismatch: matrix is {phi.shape}, rhs has {b.shape[0]} entries")
    if weights is None:
        w = np.ones(n)
    else:
        w = as_vector(weights)
        if w.shape[0] != n:
            raise ValueError(f"weights have {w.shape[0]} entries, expected {n}")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
    a = np.hstack([phi, -phi])
    costs = np.concatenate([w, w])
    z = _simplex_solve(a, b, costs)
    return z[:n] - z[n:]


def recovery_trial(phi, weights, k: int, trials: int, seed: int) -> float:
    """Fraction of random ``k``-sparse vectors recovered exactly by the LP.

    Each trial draws a uniformly random support of size ``k`` with standard
    normal values, forms ``b = phi x``, solves the weighted l1 program, and
    counts success at l-infinity error 1e-7.  Deterministic for a given seed.
    """
    phi = as_matrix(phi)
    n = phi.shape[1]
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    successes = 0
    for _ in range(trials):
        idx = rng.choice(n, size=k, replace=False)
        x = np.zeros(n)
        x[idx] = rng.standard_normal(k)
        recovered = l1_min_exact(phi, phi @ x, weights)
        if float(np.max(np.abs(recovered - x))) <= 1e-7:
            successes += 1
    return successes / trials
