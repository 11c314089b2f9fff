"""Mode determination: robust kernel losses over candidates and their minimizers.

For normals the loss puts a Gaussian kernel on the sine of the angle to each
candidate (antipodally invariant since ||n x m||^2 = 1 - (n.m)^2); the
minimizer is found by an iteratively reweighted eigenvector update.  For
positions the loss is the classic Gaussian kernel on distance and the
minimizer is a mean-shift fixed point.  Both solvers are safeguarded to keep
the loss non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCandidates
from .geometry import angle_unoriented, as_points, canonical_sign

# default kernel bandwidth: sin(30 degrees)
DEFAULT_TAU = math.sin(math.pi / 6)

_LOSS_SLACK = 1e-12
_MAX_HALVINGS = 8


@dataclass(frozen=True)
class ConsensusParams:
    tau_normal: float = DEFAULT_TAU
    max_iters: int = 50
    tol_deg: float = 0.01
    tol_pos: float = 1e-6          # absolute step tolerance for position mode

    def __post_init__(self):
        if not 0.0 < self.tau_normal <= 1.0:
            raise ValueError("tau_normal must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class ModeResult:
    value: np.ndarray
    loss: float
    iterations: int
    converged: bool


def ccn_loss(n, candidates, tau: float = DEFAULT_TAU) -> float:
    """Candidate consensus loss for a trial normal."""
    n = np.asarray(n, dtype=np.float64)
    m = as_points(candidates)
    sin2 = 1.0 - (m @ n) ** 2
    return float(-np.exp(-sin2 / tau**2).sum())


def _weighted_principal(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    mat = (m * w[:, None]).T @ m
    _, v = np.linalg.eigh(mat)
    return canonical_sign(v[:, 2])


def normal_mode(candidates, params: ConsensusParams, init) -> ModeResult:
    """Minimize ccn_loss by reweighted principal-eigenvector iteration.

    Each step weights candidates by their kernel value at the current
    normal and moves to the principal direction of the weighted outer-
    product sum.  If a step would increase the loss it is halved toward
    the previous iterate (up to 8 times) before giving up.
    """
    m = as_points(candidates)
    if len(m) == 0:
        raise EmptyCandidates("normal_mode needs at least one candidate")
    tau2 = params.tau_normal**2
    n = canonical_sign(np.asarray(init, dtype=np.float64).copy())
    loss = ccn_loss(n, m, params.tau_normal)
    iterations = 0
    converged = False
    for _ in range(params.max_iters):
        iterations += 1
        w = np.exp(-(1.0 - (m @ n) ** 2) / tau2)
        n_new = _weighted_principal(m, w)
        new_loss = ccn_loss(n_new, m, params.tau_normal)
        halvings = 0
        while new_loss > loss + _LOSS_SLACK and halvings < _MAX_HALVINGS:
            if n_new @ n < 0:
                n_new = -n_new
            n_new = (n + n_new) / np.linalg.norm(n + n_new)
            new_loss = ccn_loss(n_new, m, params.tau_normal)
            halvings += 1
        if new_loss > loss + _LOSS_SLACK:
            break
        step_deg = angle_unoriented(n_new, n)
        n = canonical_sign(n_new)
        loss = new_loss
        if step_deg < params.tol_deg:
            converged = True
            break
    return ModeResult(value=n, loss=loss, iterations=iterations, converged=converged)


def mean_mode_normal(candidates) -> np.ndarray:
    """Sign-invariant least-squares direction: the exact minimizer of
    sum ||z x m||^2 on the unit sphere (principal eigenvector of sum m m^T)."""
    m = as_points(candidates)
    if len(m) == 0:
        raise EmptyCandidates("mean_mode_normal needs at least one candidate")
    return _weighted_principal(m, np.ones(len(m)))


def ccp_loss(x, candidates, tau: float) -> float:
    """Candidate consensus loss for a trial position."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.asarray(x, dtype=np.float64)
    q = as_points(candidates)
    d2 = ((q - x) ** 2).sum(axis=1)
    return float(-np.exp(-d2 / tau**2).sum())


def position_mode(candidates, params: ConsensusParams, init, tau: float) -> ModeResult:
    """Mean-shift to the main mode of candidate positions.

    If every kernel weight underflows to zero the nearest candidate is
    returned with converged=False.
    """
    q = as_points(candidates)
    if len(q) == 0:
        raise EmptyCandidates("position_mode needs at least one candidate")
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.asarray(init, dtype=np.float64).copy()
    loss = ccp_loss(x, q, tau)
    iterations = 0
    converged = False
    for _ in range(params.max_iters):
        iterations += 1
        d2 = ((q - x) ** 2).sum(axis=1)
        w = np.exp(-d2 / tau**2)
        total = w.sum()
        if total == 0.0:
            nearest = q[int(np.argmin(d2))]
            return ModeResult(value=nearest, loss=ccp_loss(nearest, q, tau),
                              iterations=iterations, converged=False)
        x_new = (w[:, None] * q).sum(axis=0) / total
        new_loss = ccp_loss(x_new, q, tau)
        halvings = 0
        while new_loss > loss + _LOSS_SLACK and halvings < _MAX_HALVINGS:
            x_new = (x + x_new) / 2.0
            new_loss = ccp_loss(x_new, q, tau)
            halvings += 1
        if new_loss > loss + _LOSS_SLACK:
            break
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        loss = new_loss
        if step < params.tol_pos:
            converged = True
            break
    return ModeResult(value=x, loss=loss, iterations=iterations, converged=converged)
