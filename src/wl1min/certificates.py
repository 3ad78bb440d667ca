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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linops import _null_space, as_int, as_matrix, as_number, as_system, as_weights, kernel_basis

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
# Candidates per batched call: zero sets per stacked SVD in the vertex
# enumeration, supports per eigen/singular-value call in compute_ric/roc.
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
    additional zeros recursively.  ``zero_sets`` counts the zero patterns
    solved, recursion included, and ``degenerate_sets`` those of them that
    met the subspace in dimension above one.
    """

    vertices: np.ndarray
    had_degenerate_zero_set: bool = False
    zero_sets: int = 0
    degenerate_sets: int = 0


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


def _as_cap(value, name: str) -> int:
    """Return the work cap ``value``, an integer of at least 1."""
    cap = as_int(value, name)
    if cap < 1:
        raise ValueError(f"{name} must be at least 1, got {cap}")
    return cap


def _normalised(b: np.ndarray, directions: np.ndarray, zero_idx: np.ndarray) -> np.ndarray:
    """Candidate vertices ``b @ direction``, one row per row of ``directions``.

    The coordinates in the matching row of ``zero_idx`` are set to exact
    zeros, each row is scaled to unit l1 norm, and its sign is fixed so that
    the first entry above ``_DEDUPE_TOL`` is positive.  The stacked
    matrix-vector products are bitwise those of ``b @ direction`` one row at
    a time (a single GEMM would not be).
    """
    v = np.matmul(b[None], directions[:, :, None])[:, :, 0]
    rows = np.arange(len(v))
    v[rows[:, None], zero_idx] = 0.0  # exact zeros by construction
    mass = np.abs(v).sum(axis=1)
    if not mass.all():
        raise ValueError("basis is rank-deficient: a kernel direction has zero l1 mass")
    v /= mass[:, None]
    flip = v[rows, (np.abs(v) > _DEDUPE_TOL).argmax(axis=1)] < 0.0
    v[flip] = -v[flip]
    return v


def _dedupe(candidates: np.ndarray) -> np.ndarray:
    """The candidates, in order, that lie farther than ``_DEDUPE_TOL`` in max
    norm from every earlier candidate kept.

    Two unit-l1 rows within ``_DEDUPE_TOL`` of each other have coordinate
    sums within ``n * _DEDUPE_TOL``, plus ``2 n eps`` for the rounding of
    the two sums.  So only a candidate whose window of sums holds another
    candidate needs a check, and it is compared with the kept candidates of
    its window that come before it: the comparisons that decide the greedy
    scan over every kept candidate.  When all sums are equal, that scan is
    what runs.
    """
    count, n = candidates.shape
    sums = candidates.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    ranked = sums[order]
    reach = n * (_DEDUPE_TOL + 2.0 * np.finfo(float).eps)
    lo = np.searchsorted(ranked, sums - reach, "left")
    hi = np.searchsorted(ranked, sums + reach, "right")
    rank = np.empty(count, dtype=np.intp)
    rank[order] = np.arange(count)
    # Columns in order of their sums, so a window is a run of columns.  The
    # kept crowded candidates fill in their columns of ``kept`` as the scan
    # reaches them, and every other column stays infinitely far.
    cols = np.ascontiguousarray(candidates[order].T)
    kept = np.full((n, count), np.inf)
    keep = np.ones(count, dtype=bool)
    for i in np.flatnonzero(hi - lo > 1).tolist():
        r = rank[i]
        if np.abs(kept[:, lo[i] : hi[i]] - cols[:, r, None]).max(axis=0).min() <= _DEDUPE_TOL:
            keep[i] = False
        else:
            kept[:, r] = cols[:, r]
    return candidates[keep]


def l1ball_section_vertices(basis, *, max_zero_sets: int = 10**6) -> VertexSet:
    """Vertices of ``{h in span(basis) : ||h||_1 <= 1}``.

    ``basis`` is an ``(n, d)`` array with orthonormal columns (``d >= 1``
    for a non-empty result).  Every vertex has at least ``d - 1`` zero
    coordinates, so candidates come from forcing each ``(d-1)``-subset of
    coordinates to zero and normalizing the remaining direction.  The base
    zero sets are solved in blocks of ``_CHUNK`` with one stacked SVD each.
    A zero set that meets the subspace in dimension above one (flagged in
    the output) is closed under the coordinates that vanish on that piece,
    and each closure recurses once, with one more forced zero; the
    recursion ends because forcing every coordinate leaves dimension 0.
    Its candidates take that zero set's place in combination order, which
    the dedupe (first of near-equal candidates wins) depends on.
    Refuses upfront when the count of base zero sets, ``C(n, d-1)``,
    exceeds ``max_zero_sets``, and during the recursion once the visited
    zero sets exceed it.  Raises ``ValueError`` on non-finite entries and
    on a rank-deficient basis that yields a zero candidate.
    """
    max_zero_sets = _as_cap(max_zero_sets, "max_zero_sets")
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2:
        raise ValueError(f"basis must be 2-d, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("basis entries must be finite")
    n, d = b.shape
    if d == 0:
        return VertexSet(np.zeros((0, n)))
    if d > n:
        raise ValueError(f"basis has more columns than rows: {b.shape}")
    required = math.comb(n, d - 1)
    if required > max_zero_sets:
        raise EnumerationCapExceeded(required, max_zero_sets, "kernel zero sets")

    pieces: list[np.ndarray] = []  # candidates, in combination order
    visited: set[tuple[int, ...]] = set()
    closures: set[tuple[int, ...]] = set()
    zero_sets = 0
    degenerate_sets = 0

    def visit(count: int = 1) -> None:
        nonlocal zero_sets
        zero_sets += count
        if zero_sets > max_zero_sets:
            # The count passes the cap one zero set at a time, so at cap + 1.
            raise EnumerationCapExceeded(
                max_zero_sets + 1,
                max_zero_sets,
                "kernel zero sets, degenerate recursion included",
            )

    def explore(zero_idx: tuple[int, ...]) -> None:
        nonlocal degenerate_sets
        if zero_idx in visited:
            return
        visited.add(zero_idx)
        visit()
        ns = _null_space(b[list(zero_idx), :])
        dim = ns.shape[1]
        if dim == 0:
            return
        if dim == 1:
            pieces.append(_normalised(b, ns[:, 0][None], np.array([zero_idx], dtype=np.intp)))
            return
        degenerate_sets += 1
        # A coordinate that vanishes on the whole piece is zero already, and
        # forcing it adds nothing, so all of them are forced at once.  The
        # test is the rank rule's for the zero set with that coordinate
        # added (the rows of ``b @ ns`` are its new components, of norm <= 1).
        vanish = np.linalg.norm(b @ ns, axis=1) <= 1e-10 * max(len(zero_idx) + 1, d)
        closure = tuple(sorted(set(zero_idx).union(np.flatnonzero(vanish).tolist())))
        if closure in closures:
            return
        closures.add(closure)
        present = set(closure)
        for j in range(n):
            if j not in present:
                explore(tuple(sorted(closure + (j,))))

    combos = itertools.combinations(range(n), d - 1)
    while block := list(itertools.islice(combos, _CHUNK)):
        # The rank rule of linops._null_space, one stacked SVD per block.  A
        # line kernel has the one empty zero set, whose SVD has ``vh = [[1]]``.
        sets = np.array(block, dtype=np.intp).reshape(len(block), d - 1)
        _, s, vh = np.linalg.svd(b[sets])
        full = np.count_nonzero(s > 1e-10 * s[:, :1] * d, axis=1) == d - 1
        found = _normalised(b, vh[full, d - 1], sets[full])
        # Full-rank sets go in runs; each degenerate set recurses in between.
        done = taken = 0
        for at in np.flatnonzero(~full).tolist():
            pieces.append(found[taken : taken + at - done])
            visit(at - done)
            taken += at - done
            explore(block[at])
            done = at + 1
        pieces.append(found[taken:])
        visit(len(block) - done)

    half = _dedupe(np.concatenate(pieces))
    return VertexSet(np.vstack([half, -half]), degenerate_sets > 0, zero_sets, degenerate_sets)


def _validate_order(phi: np.ndarray, k: int) -> int:
    k = as_int(k, "order k")
    if not 1 <= k <= phi.shape[1]:
        raise ValueError(f"order k must satisfy 1 <= k <= {phi.shape[1]}, got {k}")
    return k


def _top_k_section(phi, k: int, max_zero_sets: int, weights=None):
    """``(k, w, section)`` for the order-``k`` checks on ``phi``'s kernel.

    ``w`` is the validated weight vector (``None`` when unweighted), and
    ``section`` is ``None`` for a trivial kernel.  Otherwise the kernel,
    multiplied by ``w`` when weighted, is enumerated into ``vertices``, and
    ``section`` is ``(vertices, ranked, masses, best, support)``: each
    vertex's magnitudes in decreasing order, its top-``k`` masses, the first
    vertex of largest mass, and that vertex's top-``k`` set (ties to the
    smaller index).
    """
    phi = as_matrix(phi)
    k = _validate_order(phi, k)
    w = None if weights is None else as_weights(weights, phi.shape[1])
    max_zero_sets = _as_cap(max_zero_sets, "max_zero_sets")  # also when the kernel is trivial
    basis = kernel_basis(phi)
    if basis.shape[1] == 0:
        return k, w, None
    if w is not None:
        basis, _ = np.linalg.qr(basis * w[:, None])
    vertices = l1ball_section_vertices(basis, max_zero_sets=max_zero_sets).vertices
    ranked = np.sort(np.abs(vertices), axis=1)[:, ::-1]
    masses = ranked[:, :k].sum(axis=1)
    best = int(np.argmax(masses))
    order = np.argsort(-np.abs(vertices[best]), kind="stable")
    support = tuple(sorted(int(i) for i in order[:k]))
    return k, w, (vertices, ranked, masses, best, support)


def _nsp_report(k: int, w: np.ndarray | None, section) -> NspReport:
    if section is None:
        return NspReport(True, k, True, None, None, None)
    vertices, _, masses, best, support = section
    margin = float(masses[best]) - 0.5
    if w is None:
        h = vertices[best].copy()
    else:
        h = vertices[best] / w
        h /= float(np.abs(h).sum())
    return NspReport(margin < 0.0, k, False, margin, h, support)


def check_nsp(phi, k: int, *, max_zero_sets: int = 10**6) -> NspReport:
    """Exact order-``k`` null space property check by vertex enumeration.

    The property holds iff every unit-l1 kernel vector carries less than
    half of its mass on its top ``k`` coordinates, so only the enumerated
    vertices need inspecting and the witness set is always the top-``k``
    magnitude set of the witness vertex.
    """
    return _nsp_report(*_top_k_section(phi, k, max_zero_sets))


def check_wnsp(phi, weights, k: int, *, max_zero_sets: int = 10**6) -> NspReport:
    """Weighted null space property check.

    Multiplying the kernel by the (positive) weights turns weighted masses
    into plain ones, so the check reduces to the unweighted one on the
    rescaled kernel; the witness vector is mapped back and re-normalized to
    unit l1 norm, and the witness set is where the *weighted* mass of that
    vector concentrates.
    """
    return _nsp_report(*_top_k_section(phi, k, max_zero_sets, weights))


def dominant_support(phi, k: int, *, max_zero_sets: int = 10**6) -> DominantSupportReport:
    """Support of size ``k`` carrying the most l1 mass of any unit-l1 kernel
    vector, with the best mass any other support achieves.

    Requires a nontrivial kernel.  For each vertex the best support is its
    top-``k`` set; the best *other* support swaps the smallest included
    magnitude for the largest excluded one, which is optimal because the
    included magnitudes dominate the excluded ones.
    """
    k, _, section = _top_k_section(phi, k, max_zero_sets)
    if section is None:
        raise ValueError("trivial kernel: no nonzero null-space vectors exist")
    vertices, ranked, masses, best, support = section

    # Rows whose own top-k set is the dominant support offer the swap instead.
    order = np.argsort(-np.abs(vertices), axis=1, kind="stable")  # ties to the smaller index
    dominant = np.all(np.sort(order[:, :k], axis=1) == support, axis=1)
    if k < vertices.shape[1]:
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
        if not isinstance(ric_budget, (tuple, list)) or len(ric_budget) != 2:
            raise ValueError(f"budget must be a pair (a, delta), got {ric_budget!r}")
        a = as_number(ric_budget[0], "budget multiplier a")
        delta = as_number(ric_budget[1], "budget delta")
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
    k = _validate_order(phi, k)
    n = phi.shape[1]
    required = math.comb(n, k)
    if required > _as_cap(max_subsets, "max_subsets"):
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
    k1, k2 = as_int(k1, "order k1"), as_int(k2, "order k2")
    if k1 < 1 or k2 < 1 or k1 + k2 > n:
        raise ValueError(f"need k1, k2 >= 1 with k1 + k2 <= {n}, got ({k1}, {k2})")
    required = math.comb(n, k1) * math.comb(n - k1, k2)
    if required > _as_cap(max_pairs, "max_pairs"):
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
    a, gamma = as_number(a, "a"), as_number(gamma, "gamma")
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
    k, gamma = as_int(k, "k"), as_number(gamma, "gamma")
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
    ``[k_start, k_start + 2q]`` and the scan below is exact.  ``gamma`` is
    an ``int`` or a ``Fraction``: a float's exact value has a denominator
    up to ``2**1074``, too long a period to scan.
    """
    if as_int(k_start, "k_start") < 2:
        raise ValueError(f"need k_start >= 2, got {k_start}")
    if not isinstance(gamma, (int, Fraction)) or isinstance(gamma, bool):
        raise ValueError(f"gamma must be an int or a Fraction, got {gamma!r}")
    gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise ValueError(f"need 0 < gamma <= 1, got {gamma}")
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
# A reduced cost within this fraction of its column's largest entry is
# rounding noise, not a descent direction.
_COST_NOISE = 1e-12


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Pivot on ``tableau[row, col]``: column ``col`` enters the basis at ``row``.

    Rows whose coefficient in ``col`` is already zero are skipped rather
    than reduced by ``0 * pivot row``, which could flip the sign of a zero.
    """
    tableau[row] /= tableau[row, col]
    coeff = tableau[:, col].copy()
    coeff[row] = 0.0
    rows = coeff.nonzero()[0]
    tableau[rows] -= np.multiply.outer(coeff[rows], tableau[row])
    basis[row] = col


def _pivot_loop(tableau: np.ndarray, basis: list[int], ncols: int, max_pivots: int) -> None:
    """Run simplex pivots under Bland's rule until optimality.

    ``tableau`` rows 0..m-1 hold the constraints, the last row the reduced
    costs with the negated objective value in its last entry.  ``ncols``
    bounds the candidate entering columns (excludes the rhs).

    The smallest eligible column enters.  An eligible column with no
    positive entry proves the LP unbounded unless its reduced cost is
    rounding noise for the column's size; such a column is passed over for
    the next eligible one.  The ratio test treats ratios within
    ``_PIVOT_TOL`` of the running best as ties; that window can cycle on
    degenerate vertices, so once a basis repeats, the rest of the loop
    counts only equal ratios as ties.
    """
    m = tableau.shape[0] - 1
    seen: set[int] = set()
    tie = _PIVOT_TOL
    for _ in range(max_pivots):
        if tie:
            key = hash(tuple(basis))
            if key in seen:
                tie = 0.0
            seen.add(key)
        for entering in (tableau[m, :ncols] < -_PIVOT_TOL).nonzero()[0].tolist():
            col = tableau[:m, entering]
            rows = (col > _PIVOT_TOL).nonzero()[0]
            if rows.size:
                break
            if -tableau[m, entering] > _COST_NOISE * float(np.abs(col).max(initial=0.0)):
                raise RuntimeError("LP is unbounded; the weighted l1 objective cannot be")
        else:
            return
        leaving = -1
        best_ratio = math.inf
        # Bland: ties resolve to the smallest basis variable.  The window moves
        # with the running best, so the rows are scanned in order.
        for i, ratio in zip(rows.tolist(), (tableau[rows, -1] / col[rows]).tolist()):
            if ratio < best_ratio - tie or (
                ratio <= best_ratio + tie and (leaving < 0 or basis[i] < basis[leaving])
            ):
                if ratio < best_ratio:
                    best_ratio = ratio
                leaving = i
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


def _pow2_scale(v: np.ndarray) -> float:
    """The power of two that brings ``max|v|`` nearest to 1 (1 for zero ``v``)."""
    top = float(np.abs(v).max(initial=0.0))
    return 2.0 ** -round(math.log2(top)) if top > 0.0 else 1.0


def _simplex_l1(phi: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The split LP ``min w.(u + v) s.t. phi(u - v) = b, u, v >= 0`` by the
    simplex, on ``phi`` and ``b`` each scaled by a power of two.

    The simplex's tolerances are absolute, so the scaling makes its answer
    covariant under ``phi, b -> s phi, s b``; powers of two scale exactly.
    """
    n = phi.shape[1]
    phi_scale, b_scale = _pow2_scale(phi), _pow2_scale(b)
    a = np.hstack([phi, -phi]) * phi_scale
    z = _simplex_solve(a, b * b_scale, np.concatenate([w, w]))
    return (z[:n] - z[n:]) * (phi_scale / b_scale)


# Path events at or below this fraction of the current penalty are rounding
# noise; an event within this window of the penalty ends the path.
_EVENT_FLOOR = 1e-13
_PATH_END = 1e-9
# Strict dual slack the certificate demands off the final support.
_DUAL_SLACK = 1e-9


def _homotopy(phi: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """The weighted l1 minimizer by homotopy, or ``None`` when uncertified.

    Follows the minimizers of ``1/2 ||b - phi x||^2 + mu sum_i w_i |x_i|``
    from ``mu0 = max_j |phi_j.b| / w_j`` down to 0 (Donoho & Tsaig 2008).
    On the active set ``S`` with signs ``s`` the path is
    ``x_S(mu) = z - mu d`` with ``A_S^T A_S z = A_S^T b`` and
    ``A_S^T A_S d = w_S o s``; it bends where an inactive correlation
    reaches ``mu w_j`` or an active entry crosses zero.  With ``m`` active
    columns the residual is ``mu A_S d``, so no column joins before
    ``mu = 0`` and the active set never exceeds ``m``.  It gives up (returns
    ``None``) after ``4(m + n)`` steps or on a singular system.

    At ``mu = 0`` the final set ``E`` is certified (Fuchs 2004).  Let ``y``
    be the least-norm solution of ``A_E^T y = w_E o s_E``; if ``|phi_j.y| <
    w_j`` strictly off ``E``, complementary slackness with ``y`` puts every
    LP optimum on ``E`` with signs ``s_E``, so it solves ``A_E x_E = b``.
    Full column rank of ``A_E`` makes that solution unique, so
    ``x_E = lstsq(A_E, b)`` is the LP's unique optimum (the vertex the
    simplex reaches, up to its rounding) once it is feasible and carries
    the signs ``s_E``.  Every test is relative to the data.
    """
    m, n = phi.shape
    c = phi.T @ b
    j = int(np.argmax(np.abs(c) / w))
    mu = float(np.abs(c[j]) / w[j])
    if mu == 0.0:  # phi^T b = 0: only b = 0 is feasible, with unique optimum 0
        return None if b.any() else np.zeros(n)
    active, signs = [j], [float(np.sign(c[j]))]
    inf = np.inf
    try:
        for _ in range(4 * (m + n)):
            a_s = phi[:, active]
            ws = w[active] * signs
            z, d = np.linalg.solve(a_s.T @ a_s, np.column_stack([a_s.T @ b, ws])).T
            x_s = z - mu * d
            c = phi.T @ (b - a_s @ x_s)
            a = phi.T @ (a_s @ d)
            floor = _EVENT_FLOOR * mu
            with np.errstate(divide="ignore", invalid="ignore"):
                up = np.where(w > a, (mu * w - c) / (w - a), inf)
                down = np.where(w > -a, (mu * w + c) / (w + a), inf)
                cross = np.where(d * ws < 0.0, -x_s / d, inf)
            up[active] = down[active] = inf
            if len(active) == m:
                # A square A_S leaves the residual mu A_S d: every inactive
                # correlation is mu a_j, so every join comes at mu = 0.
                up[:] = down[:] = inf
            events = np.concatenate([up, down, cross])
            events[~(events > floor)] = inf
            k = int(np.argmin(events))
            gamma = float(events[k])
            if gamma >= mu * (1.0 - _PATH_END):
                break  # the last segment reaches mu = 0
            mu -= gamma
            if k < 2 * n:
                active.append(k % n)
                signs.append(1.0 if k < n else -1.0)
            else:
                del active[k - 2 * n], signs[k - 2 * n]
        else:
            return None
        return _certified(phi, b, w, active, np.array(signs))
    except np.linalg.LinAlgError:
        return None


def _certified(phi, b, w, support: list[int], signs: np.ndarray) -> np.ndarray | None:
    """``x`` supported on ``support`` if the certificate of ``_homotopy``
    proves it the unique LP optimum, else ``None``."""
    a_e = phi[:, support]
    v = w[support] * signs
    if _null_space(a_e).shape[1]:
        return None  # A_E is rank-deficient
    y = np.linalg.lstsq(a_e.T, v, rcond=None)[0]
    if float(np.abs(a_e.T @ y - v).max()) > 1e-10 * float(np.abs(v).max()):
        return None
    off = np.ones(phi.shape[1], dtype=bool)
    off[support] = False
    if np.any(np.abs(phi[:, off].T @ y) >= w[off] * (1.0 - _DUAL_SLACK)):
        return None
    x_e = np.linalg.lstsq(a_e, b, rcond=None)[0]
    x_e[np.abs(x_e) <= 1e-12 * float(np.abs(x_e).max())] = 0.0  # rounding level
    if np.any(x_e * signs < 0.0):
        return None
    x = np.zeros(phi.shape[1])
    x[support] = x_e
    scale = float(np.abs(phi).max()) * float(np.abs(x).sum()) + float(np.abs(b).max())
    if float(np.abs(phi @ x - b).max()) > 1e-12 * scale:
        return None
    return x


def l1_min_exact(phi, b, weights=None) -> np.ndarray:
    """Exact minimizer of ``sum_i w_i |x_i|`` subject to ``phi x = b``.

    A weighted homotopy answers first when its certificate proves its point
    the LP's unique optimum (see ``_homotopy``).  Every other input goes to
    the split LP ``min w.(u + v) s.t. phi(u - v) = b, u, v >= 0``, solved
    on power-of-two scaled data by a self-contained two-phase simplex under
    Bland's anti-cycling rule, so the returned point is always a vertex of
    the solution polytope.  Raises :class:`InfeasibleSystem` when no
    solution exists.
    """
    phi, b = as_system(phi, b)
    n = phi.shape[1]
    w = np.ones(n) if weights is None else as_weights(weights, n)
    x = _homotopy(phi, b, w)
    return _simplex_l1(phi, b, w) if x is None else x


def recovery_trial(phi, weights, k: int, trials: int, seed: int) -> float:
    """Fraction of random ``k``-sparse vectors recovered exactly by the LP.

    Each trial draws a uniformly random support of size ``k`` with standard
    normal values, forms ``b = phi x``, solves the weighted l1 program, and
    counts success at l-infinity error 1e-7.  Deterministic for a given seed.
    """
    phi = as_matrix(phi)
    n = phi.shape[1]
    k, trials = as_int(k, "order k"), as_int(trials, "trials")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(as_int(seed, "seed"))
    successes = 0
    for _ in range(trials):
        idx = rng.choice(n, size=k, replace=False)
        x = np.zeros(n)
        x[idx] = rng.standard_normal(k)
        recovered = l1_min_exact(phi, phi @ x, weights)
        if float(np.max(np.abs(recovered - x))) <= 1e-7:
            successes += 1
    return successes / trials
