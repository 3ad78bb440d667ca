"""Proximal continuation solvers for weighted l1 sparse recovery.

The inner loop is plain ISTA on ``0.5 * ||phi x - b||^2 + mu * ||w o x||_1``
(``o`` is the entrywise product).  The outer loop shrinks ``mu``
geometrically from ``||phi.T b||_inf`` and re-derives the weights between
stages according to the chosen scheme:

* ``Identity``         constant all-ones weights (plain iterative l1),
* ``Classic``          magnitude reweighting from the current iterate,
* ``NullspaceGuided``  reweighting from the stage-to-stage step direction,
  down-weighting the coordinates where the step concentrates,
* ``Fixed``            user-pinned weights held for every stage.

The final stage's iterate is the solver's answer.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .linops import as_int, as_number, as_system, as_vector, as_weights, largest_gram_eigenvalue

__all__ = [
    "Identity",
    "Classic",
    "NullspaceGuided",
    "Fixed",
    "WeightScheme",
    "SCHEMES",
    "SolverConfig",
    "StageDiagnostics",
    "SolveReport",
    "InnerResult",
    "soft_threshold",
    "mu_schedule",
    "ista_stage",
    "update_weights_nullspace",
    "update_weights_classic",
    "solve",
]


def _set_numbers(obj, *names: str) -> None:
    """Replace each named field of a frozen dataclass by its ``as_number``."""
    for name in names:
        object.__setattr__(obj, name, as_number(getattr(obj, name), name))


@dataclass(frozen=True)
class Identity:
    """Constant all-ones weights."""


@dataclass(frozen=True)
class Classic:
    """Magnitude reweighting ``w_i = (1 / (|x_i| + eps)) ** (1 - q)``.

    Entries of small magnitude are weighted above 1, so this scheme pushes
    harder toward sparsity the smaller ``q`` is.
    """

    q: float = 0.5
    eps: float = 1e-4

    def __post_init__(self):
        _set_numbers(self, "q", "eps")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"Classic needs 0 <= q < 1, got {self.q}")
        if self.eps <= 0.0:
            raise ValueError(f"Classic needs eps > 0, got {self.eps}")


@dataclass(frozen=True)
class NullspaceGuided:
    """Step-direction reweighting on the dominant-change support.

    After each stage the step ``h = x_curr - x_prev`` is inspected: the
    ``|supp(x_curr)|`` coordinates where ``|h|`` is largest are down-weighted
    relative to the largest remaining ``|h|`` entry, all other weights stay
    at 1.  With ``q = 1`` the scheme degenerates to all-ones weights.
    """

    q: float = 0.5
    eps: float = 1e-4

    def __post_init__(self):
        _set_numbers(self, "q", "eps")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"NullspaceGuided needs 0 < q <= 1, got {self.q}")
        if self.eps <= 0.0:
            raise ValueError(f"NullspaceGuided needs eps > 0, got {self.eps}")


@dataclass(frozen=True)
class Fixed:
    """User-pinned weights, entries in (0, 1], held constant across stages."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_vector(self.weights)
        if np.any(w <= 0.0) or np.any(w > 1.0):
            raise ValueError("Fixed weights must lie in (0, 1]")
        object.__setattr__(self, "weights", w)


WeightScheme = Union[Identity, Classic, NullspaceGuided, Fixed]

# The schemes a name selects, built from an exponent ``q`` and smoothing
# ``eps``; ``Fixed`` needs a weight vector, so it has no name here.
SCHEMES: dict[str, Callable[[float, float], WeightScheme]] = {
    "identity": lambda q, eps: Identity(),
    "classic": Classic,
    "nullspace": NullspaceGuided,
}


# Multiplies the measured largest Gram eigenvalue so the ISTA step size stays
# strictly inside the descent regime.
_L_INFLATION = 1.0 + 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Continuation-loop parameters."""

    stages: int = 8
    mu_decay: float = 0.2
    eta_factor: float = 1e-4
    inner_cap: int = 5000

    def __post_init__(self):
        as_int(self.stages, "stages")
        as_int(self.inner_cap, "inner_cap")
        _set_numbers(self, "mu_decay", "eta_factor")
        if self.stages < 1:
            raise ValueError(f"need at least one stage, got {self.stages}")
        if not 0.0 < self.mu_decay < 1.0:
            raise ValueError(f"mu_decay must lie in (0, 1), got {self.mu_decay}")
        if self.eta_factor <= 0.0:
            raise ValueError(f"eta_factor must be positive, got {self.eta_factor}")
        if self.inner_cap < 1:
            raise ValueError(f"inner_cap must be positive, got {self.inner_cap}")


@dataclass
class InnerResult:
    """Outcome of one ISTA stage."""

    iterations: int
    final_step_norm: float
    converged: bool
    objectives: list[float]
    computed: int  # iterations run, those past the first stop included


@dataclass
class StageDiagnostics:
    stage: int
    mu: float
    inner_iterations: int
    computed_iterations: int  # InnerResult.computed
    final_step_norm: float
    converged: bool
    support_size: int
    weights: np.ndarray
    seconds: float  # wall time of the stage's ISTA call


@dataclass
class SolveReport:
    x: np.ndarray
    stages: list[StageDiagnostics]
    objective_history: list[list[float]]
    total_seconds: float
    step_bound: float  # the ISTA step bound L every stage used
    step_bound_seconds: float  # wall time of the largest_gram_eigenvalue call

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.stages)


def soft_threshold(v, t) -> np.ndarray:
    """Entrywise ``sign(v) * max(|v| - t, 0)``.

    Entries with ``|v_i| <= t_i`` come out as exact (bitwise) zeros.
    """
    v = as_vector(v)
    t = as_vector(t)
    if v.shape != t.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {t.shape}")
    if np.any(t < 0.0):
        raise ValueError("thresholds must be nonnegative")
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _aligned_empty(shape, order="C") -> np.ndarray:
    """An uninitialised float64 array whose data starts on a 64-byte cache line."""
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start : start + size].reshape(shape, order=order)


def _aligned_rows(count: int, length: int) -> np.ndarray:
    """``count`` uninitialised float64 rows of ``length``, each on its own cache line."""
    return _aligned_empty((count, -(-length // 8) * 8))[:, :length]


def _aligned(a: np.ndarray) -> np.ndarray:
    """``a``, or a copy of it on a cache line in the same memory order.

    ``malloc`` promises only 16 bytes, and a BLAS product with a 128x512
    matrix takes 13 us from a cache line against 20 us from 16 bytes past
    one, so without the copy a solve's speed would depend on where its
    matrix landed.  Strided arrays are returned as they are.
    """
    if a.ctypes.data % 64 == 0 or not (a.flags.c_contiguous or a.flags.f_contiguous):
        return a
    out = _aligned_empty(a.shape, "C" if a.flags.c_contiguous else "F")
    out[...] = a
    return out


def mu_schedule(phi, b, stages: int, decay: float) -> np.ndarray:
    """Penalty continuation ``mu_tau = decay**(tau-1) * ||phi.T b||_inf``."""
    phi, b = as_system(phi, b)
    if as_int(stages, "stages") < 1:
        raise ValueError(f"need at least one stage, got {stages}")
    decay = as_number(decay, "decay")
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    scale = float(np.abs(phi.T @ b).max())
    return scale * decay ** np.arange(stages)


# Iterations in a stage's first block of the ISTA loop.  The step norms,
# objectives and stop tests of a block are computed by a few batched calls
# after it, and the iterations a block runs past its first stop are discarded.
# Later blocks run up to ``_ring_rows(n)`` iterations, sized by a prediction of
# the stop, which keeps that waste near 2-3% of the iterations
# (BENCH_lean_ista.json).
_BLOCK = 16


def _ring_rows(n: int) -> int:
    """The longest block for iterates of length ``n``: at most 64 KiB of them,
    and ``_BLOCK`` from ``n = 512`` on, where longer blocks measured slower
    because they leave the cache."""
    return max(_BLOCK, min(4 * _BLOCK, 8192 // n))


def _row_dots(a: np.ndarray) -> np.ndarray:
    """``a[i].dot(a[i])`` for every row ``i`` of the 2-d ``a``, bitwise.

    Each ``(1, n) @ (n, 1)`` product of the stack is one BLAS ``ddot``, the
    call ``ndarray.dot`` makes for two vectors.
    """
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def ista_stage(phi, b, weights, mu, L, x_init, eta, cap: int):
    """Run ISTA at fixed penalty ``mu`` until the step norm drops below
    ``eta * max(1, ||x||)`` or ``cap`` iterations elapse.

    Returns ``(x, InnerResult)``; the result records the objective after the
    start point and after every inner update.  An exactly repeated iterate
    stops the loop early: once ``x_{t+1} == x_t`` bitwise every later iterate
    is identical, so the stage is stationary even when ``eta == 0``.  Inputs
    are validated once here, so the loop shrinks without re-checking them.

    The loop runs in blocks that only take the proximal steps; the step
    norms, objectives and stop tests of a block follow in batched calls, and
    the first stopping iteration decides the result.  The first block runs
    ``_BLOCK`` iterations.  Where the ring buffers hold more rows
    (``_ring_rows``), a later block runs the iterations that the decay of
    ``q_t = step_t / (eta * max(1, ||x_{t-1}||))`` across the block before
    predicts until ``q`` drops below 1, clamped to between ``_BLOCK`` and the
    buffer length, and the buffer length where ``q`` did not fall.  A block
    length decides only how many iterations are computed past the stop and
    discarded (``InnerResult.computed``), never what is reported.  Inside
    the loop the shrink is ``v - clip(v, -t, t)``, three ufunc calls, which
    gives ``soft_threshold``'s floats up to the sign of a zero; the returned
    iterate is rebuilt once with ``soft_threshold``'s formula, so every float
    reported, signed zeros included, is the one the plain per-iteration
    expressions give.
    """
    phi, b = as_system(phi, b)
    phi = _aligned(phi)
    m, n = phi.shape
    weights = as_weights(weights, n)
    x_init = as_vector(x_init)
    if x_init.shape[0] != n:
        raise ValueError(f"start point has {x_init.shape[0]} entries, expected {n}")
    mu, L, eta = as_number(mu, "mu"), as_number(L, "step bound L"), as_number(eta, "eta")
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if L <= 0.0:
        raise ValueError(f"step bound L must be positive, got {L}")
    if eta < 0.0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if as_int(cap, "cap") < 1:
        raise ValueError(f"iteration cap must be positive, got {cap}")

    # Row t of xs and rs holds the iterate x_t of the block and its residual
    # phi x_t - b; row 0 carries the last ones of the block before.
    rows = _ring_rows(n)
    xs, rs = _aligned_rows(rows + 1, n), _aligned_rows(rows + 1, m)
    g, c = _aligned_rows(2, n)
    xs[0] = x_init
    thresholds = (mu / L) * weights
    # The loop shrinks by ``v - clip(v, -t, t)``: ``v - t`` above the dead
    # zone and ``v + t == -fl(|v| - t)`` below it, the floats of
    # ``sign(v) * max(|v| - t, 0)``.  Inside it gives +0.0 where that gives
    # -0.0 for v < 0 (v == -t included).  No reported number sees the sign
    # of a zero: step norms and r.r square it, the objective takes abs, a
    # zero factor adds +-0 to a BLAS sum, and a v that comes out +-0 lands in
    # the dead zone either way.  Only the returned iterate carries the sign,
    # so it alone is rebuilt, from the row before it, by the sign-max formula.
    lower = -thresholds
    # The residual of each iterate serves both its objective and the next gradient.
    np.subtract(phi @ xs[0], b, out=rs[0])
    objectives = [0.5 * float(rs[0] @ rs[0]) + mu * float(np.sum(weights * np.abs(xs[0])))]
    # The block computes ``v = x - phi.T r / L``, its shrink and its residual
    # in preallocated rows.  ``ndarray.dot`` makes ``@``'s BLAS call on a C-
    # or F-ordered matrix at less overhead; other layouts keep ``@``.  The
    # calls are bound to local names and take ``out`` by position (numpy
    # deprecates that for maximum and minimum), and L is divided as a 0-d
    # array, which spares a scalar conversion per call; the operations and
    # operands are those of ``g = adj(r); g /= L; ...; r_next -= b``.  After
    # the block, a norm is ``sqrt(x . x)`` as in np.linalg.norm, through
    # ``_row_dots``; ``np.add.reduce(axis=1)`` sums each row pairwise as
    # ``np.sum`` sums a vector; and the objectives and stop tests are
    # elementwise the scalar expressions.
    if phi.flags.c_contiguous or phi.flags.f_contiguous:
        fwd, adj = phi.dot, phi.T.dot
    else:
        fwd, adj = functools.partial(np.matmul, phi), functools.partial(np.matmul, phi.T)
    subtract, divide, maximum, minimum = np.subtract, np.divide, np.maximum, np.minimum
    L_array = np.array(L)
    views: list = []  # (x, r, x_next, r_next) row views, built as far as a block needs
    done, k = 0, _BLOCK
    while True:
        k = min(k, cap - done)
        if k > len(views):
            views = list(zip(xs[:k], rs[:k], xs[1 : k + 1], rs[1 : k + 1]))
        for x, r, x_next, r_next in views[:k]:
            adj(r, g)
            divide(g, L_array, g)
            subtract(x, g, g)
            maximum(g, lower, out=c)
            minimum(c, thresholds, out=c)
            subtract(g, c, x_next)
            fwd(x_next, r_next)
            subtract(r_next, b, r_next)
        step = np.sqrt(_row_dots(xs[1 : k + 1] - xs[:k]))
        norm = np.sqrt(_row_dots(xs[:k]))
        objective = 0.5 * _row_dots(rs[1 : k + 1]) + mu * np.add.reduce(
            weights * np.abs(xs[1 : k + 1]), axis=1)
        # fmax, like the builtin max, takes 1 over a NaN norm.
        limit = eta * np.fmax(1.0, norm)
        stops = np.flatnonzero((step < limit) | (step == 0.0))
        if stops.size or done + k == cap:
            t = int(stops[0]) + 1 if stops.size else k
            objectives += objective[:t].tolist()
            adj(rs[t - 1], g)
            divide(g, L_array, g)
            subtract(xs[t - 1], g, g)
            x = np.sign(g) * np.maximum(np.abs(g) - thresholds, 0.0)
            return x, InnerResult(
                done + t, float(step[t - 1]), bool(stops.size), objectives, done + k)
        objectives += objective.tolist()
        done += k
        xs[0], rs[0] = xs[k], rs[k]
        if rows > _BLOCK and eta > 0.0:
            # Without a stop, q = step / limit is at least 1 (or NaN) on
            # every row; a q that fell across the block is extrapolated at
            # its mean rate per iteration to where it drops below 1.
            q_first, q_last = float(step[0]) / float(limit[0]), float(step[-1]) / float(limit[-1])
            decay = math.log(q_first / q_last) if 0.0 < q_last < q_first < math.inf else 0.0
            left = math.log(q_last) * (k - 1) / decay if decay > 0.0 else math.inf
            k = max(_BLOCK, math.ceil(left)) if left < rows else rows
        else:
            k = rows


def update_weights_nullspace(x_prev, x_curr, scheme: NullspaceGuided) -> np.ndarray:
    """Weights from the stage step ``h = x_curr - x_prev``.

    With ``k`` the number of exact nonzeros of ``x_curr``, the ``k`` largest
    ``|h|`` coordinates (ties to the smaller index) form the set ``T`` and get
    ``w_i = ((|h_i| + eps) / D) ** (q - 1)`` with ``D`` the largest ``|h|``
    outside ``T``; everything else stays at 1.  When ``T`` covers all
    coordinates or ``D == 0``, ``D`` falls back to ``eps``.  ``q`` and ``eps``
    come from ``scheme``, which checked them on construction.
    """
    x_prev = as_vector(x_prev)
    x_curr = as_vector(x_curr)
    if x_prev.shape != x_curr.shape:
        raise ValueError(f"shape mismatch: {x_prev.shape} vs {x_curr.shape}")
    q, eps = scheme.q, scheme.eps
    n = x_curr.shape[0]
    w = np.ones(n)
    k = int(np.count_nonzero(x_curr))
    if k == 0:
        return w
    h = np.abs(x_curr - x_prev)
    order = np.argsort(-h, kind="stable")  # stable: ties resolve to the smaller index
    top = order[:k]
    if k >= n:
        d = eps
    else:
        d = float(h[order[k:]].max())
        if d == 0.0:
            d = eps
    w[top] = ((h[top] + eps) / d) ** (q - 1.0)
    return w


def update_weights_classic(x_curr, scheme: Classic) -> np.ndarray:
    """Magnitude weights ``w_i = (1 / (|x_i| + eps)) ** (1 - q)`` with ``q``
    and ``eps`` from ``scheme``."""
    x_curr = as_vector(x_curr)
    return (1.0 / (np.abs(x_curr) + scheme.eps)) ** (1.0 - scheme.q)


def solve(phi, b, scheme: WeightScheme, config: SolverConfig | None = None) -> SolveReport:
    """Continuation solve of ``min ||w o x||_1 s.t. phi x = b`` (approximately,
    through the penalized stages).

    Every scheme starts stage 1 with all-ones weights except ``Fixed``, which
    pins its own weights throughout; ``NullspaceGuided`` re-derives weights
    from the last stage step, ``Classic`` from the last iterate.  Non-converged
    stages are reported in the diagnostics, never raised.
    """
    if config is None:
        config = SolverConfig()
    phi, b = as_system(phi, b)
    phi = _aligned(phi)  # once here, not once per stage
    n = phi.shape[1]
    if not isinstance(scheme, (Identity, Classic, NullspaceGuided, Fixed)):
        raise TypeError(f"unknown weight scheme: {scheme!r}")
    if isinstance(scheme, Fixed) and scheme.weights.shape[0] != n:
        raise ValueError(f"fixed weights have {scheme.weights.shape[0]} entries, expected {n}")

    t_start = time.perf_counter()
    L = _L_INFLATION * largest_gram_eigenvalue(phi)
    step_bound_seconds = time.perf_counter() - t_start
    if L == 0.0:
        L = 1.0  # zero matrix: gradient vanishes, any positive step bound works
    mus = mu_schedule(phi, b, config.stages, config.mu_decay)

    # The schedule scale vanishes only when phi^T b = 0, i.e. b carries no
    # recoverable signal; every stage then has mu = 0 and the all-ones start
    # would drift to its kernel projection instead of the exact answer 0,
    # which is a fixed point of every stage.  Start there.
    x = np.zeros(n) if mus[0] == 0.0 else np.ones(n)

    weights = scheme.weights.copy() if isinstance(scheme, Fixed) else np.ones(n)

    stages: list[StageDiagnostics] = []
    objective_history: list[list[float]] = []
    for tau, mu in enumerate(mus, start=1):
        eta = config.eta_factor * mu
        x_prev = x
        t_stage = time.perf_counter()
        x, inner = ista_stage(phi, b, weights, float(mu), L, x_prev, float(eta), config.inner_cap)
        seconds = time.perf_counter() - t_stage
        stages.append(
            StageDiagnostics(
                stage=tau,
                mu=float(mu),
                inner_iterations=inner.iterations,
                computed_iterations=inner.computed,
                final_step_norm=inner.final_step_norm,
                converged=inner.converged,
                support_size=int(np.count_nonzero(x)),
                weights=weights.copy(),
                seconds=seconds,
            )
        )
        objective_history.append(inner.objectives)
        if tau == config.stages:
            break  # no stage is left to use updated weights
        if isinstance(scheme, NullspaceGuided):
            weights = update_weights_nullspace(x_prev, x, scheme)
        elif isinstance(scheme, Classic):
            weights = update_weights_classic(x, scheme)
        # Identity and Fixed keep their weights.

    return SolveReport(
        x=x,
        stages=stages,
        objective_history=objective_history,
        total_seconds=time.perf_counter() - t_start,
        step_bound=L,
        step_bound_seconds=step_bound_seconds,
    )
