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

import time
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .linops import as_matrix, as_vector, largest_gram_eigenvalue

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
        for name in ("stages", "inner_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


@dataclass
class StageDiagnostics:
    stage: int
    mu: float
    inner_iterations: int
    final_step_norm: float
    converged: bool
    support_size: int
    weights: np.ndarray


@dataclass
class SolveReport:
    x: np.ndarray
    stages: list[StageDiagnostics]
    objective_history: list[list[float]]
    total_seconds: float

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


def mu_schedule(phi, b, stages: int, decay: float) -> np.ndarray:
    """Penalty continuation ``mu_tau = decay**(tau-1) * ||phi.T b||_inf``."""
    phi = as_matrix(phi)
    b = as_vector(b)
    if phi.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: matrix is {phi.shape}, rhs has {b.shape[0]} entries")
    if stages < 1:
        raise ValueError(f"need at least one stage, got {stages}")
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    scale = float(np.abs(phi.T @ b).max())
    return scale * decay ** np.arange(stages)


def ista_stage(phi, b, weights, mu, L, x_init, eta, cap: int):
    """Run ISTA at fixed penalty ``mu`` until the step norm drops below
    ``eta * max(1, ||x||)`` or ``cap`` iterations elapse.

    Returns ``(x, InnerResult)``; the result records the objective after the
    start point and after every inner update.  An exactly repeated iterate
    stops the loop early: once ``x_{t+1} == x_t`` bitwise every later iterate
    is identical, so the stage is stationary even when ``eta == 0``.
    """
    phi = as_matrix(phi)
    b = as_vector(b)
    weights = as_vector(weights)
    x = as_vector(x_init).copy()
    n = phi.shape[1]
    if phi.shape[0] != b.shape[0] or weights.shape[0] != n or x.shape[0] != n:
        raise ValueError("dimension mismatch between matrix, rhs, weights and start point")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be strictly positive")
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if L <= 0.0:
        raise ValueError(f"step bound L must be positive, got {L}")
    if eta < 0.0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    if cap < 1:
        raise ValueError(f"iteration cap must be positive, got {cap}")

    thresholds = (mu / L) * weights
    # The residual of each iterate serves both its objective and the next gradient.
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
            return x, InnerResult(it, step, True, objectives)
    return x, InnerResult(cap, step, False, objectives)


def update_weights_nullspace(x_prev, x_curr, q: float, eps: float) -> np.ndarray:
    """Weights from the stage step ``h = x_curr - x_prev``.

    With ``k`` the number of exact nonzeros of ``x_curr``, the ``k`` largest
    ``|h|`` coordinates (ties to the smaller index) form the set ``T`` and get
    ``w_i = ((|h_i| + eps) / D) ** (q - 1)`` with ``D`` the largest ``|h|``
    outside ``T``; everything else stays at 1.  When ``T`` covers all
    coordinates or ``D == 0``, ``D`` falls back to ``eps``.
    """
    x_prev = as_vector(x_prev)
    x_curr = as_vector(x_curr)
    if x_prev.shape != x_curr.shape:
        raise ValueError(f"shape mismatch: {x_prev.shape} vs {x_curr.shape}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"need 0 < q <= 1, got {q}")
    if eps <= 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
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


def update_weights_classic(x_curr, q: float, eps: float) -> np.ndarray:
    """Magnitude weights ``w_i = (1 / (|x_i| + eps)) ** (1 - q)``."""
    x_curr = as_vector(x_curr)
    if not 0.0 <= q < 1.0:
        raise ValueError(f"need 0 <= q < 1, got {q}")
    if eps <= 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    return (1.0 / (np.abs(x_curr) + eps)) ** (1.0 - q)


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
    phi = as_matrix(phi)
    b = as_vector(b)
    m, n = phi.shape
    if b.shape[0] != m:
        raise ValueError(f"dimension mismatch: matrix is {phi.shape}, rhs has {b.shape[0]} entries")
    if not isinstance(scheme, (Identity, Classic, NullspaceGuided, Fixed)):
        raise TypeError(f"unknown weight scheme: {scheme!r}")

    t_start = time.perf_counter()
    L = _L_INFLATION * largest_gram_eigenvalue(phi)
    if L == 0.0:
        L = 1.0  # zero matrix: gradient vanishes, any positive step bound works
    mus = mu_schedule(phi, b, config.stages, config.mu_decay)

    # The schedule scale vanishes only when phi^T b = 0, i.e. b carries no
    # recoverable signal; every stage then has mu = 0 and the all-ones start
    # would drift to its kernel projection instead of the exact answer 0,
    # which is a fixed point of every stage.  Start there.
    x = np.zeros(n) if mus[0] == 0.0 else np.ones(n)

    if isinstance(scheme, Fixed):
        if scheme.weights.shape[0] != n:
            raise ValueError(f"fixed weights have {scheme.weights.shape[0]} entries, expected {n}")
        weights = scheme.weights.copy()
    else:
        weights = np.ones(n)

    stages: list[StageDiagnostics] = []
    objective_history: list[list[float]] = []
    for tau, mu in enumerate(mus, start=1):
        eta = config.eta_factor * mu
        x_prev = x
        x, inner = ista_stage(phi, b, weights, float(mu), L, x_prev, float(eta), config.inner_cap)
        stages.append(
            StageDiagnostics(
                stage=tau,
                mu=float(mu),
                inner_iterations=inner.iterations,
                final_step_norm=inner.final_step_norm,
                converged=inner.converged,
                support_size=int(np.count_nonzero(x)),
                weights=weights.copy(),
            )
        )
        objective_history.append(inner.objectives)
        if tau == config.stages:
            break  # no stage is left to use updated weights
        if isinstance(scheme, NullspaceGuided):
            weights = update_weights_nullspace(x_prev, x, scheme.q, scheme.eps)
        elif isinstance(scheme, Classic):
            weights = update_weights_classic(x, scheme.q, scheme.eps)
        # Identity and Fixed keep their weights.

    return SolveReport(
        x=x,
        stages=stages,
        objective_history=objective_history,
        total_seconds=time.perf_counter() - t_start,
    )
