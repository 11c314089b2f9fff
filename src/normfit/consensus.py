"""Mode determination: robust kernel losses over candidates and their minimizers.

For normals the loss puts a Gaussian kernel on the sine of the angle to each
candidate (antipodally invariant since ||n x m||^2 = 1 - (n.m)^2); the
minimizer is found by an iteratively reweighted eigenvector update.  For
positions the loss is the classic Gaussian kernel on distance and the
minimizer is a mean-shift fixed point.  Both solvers are safeguarded to keep
the loss non-increasing.

The solvers run on a batch of A points at once (`normal_mode_batch`,
`position_mode_batch`); each point keeps its own iterate, halving
safeguard, convergence test and iteration budget, and leaves the batch when
it stops.  `normal_mode` and `position_mode` are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCandidates
from .geometry import angles_unoriented, as_points, canonical_sign

# default kernel bandwidth: sin(30 degrees)
DEFAULT_TAU = math.sin(math.pi / 6)

_LOSS_SLACK = 1e-12
_MAX_HALVINGS = 8


@dataclass(frozen=True)
class ConsensusParams:
    tau_normal: float = DEFAULT_TAU
    max_iters: int = 50
    tol_deg: float = 0.01
    tol_pos: float = 1e-5          # position-mode step tolerance, a fraction of the bandwidth

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


def _ccn_losses(m: np.ndarray, n: np.ndarray, tau2: float) -> np.ndarray:
    """ccn_loss of each row: (A, M, 3) candidates at (A, 3) normals -> (A,)."""
    c = np.einsum("amc,ac->am", m, n)
    return -np.exp(-(1.0 - c**2) / tau2).sum(axis=1)


def ccn_loss(n, candidates, tau: float = DEFAULT_TAU) -> float:
    """Candidate consensus loss for a trial normal."""
    n = np.asarray(n, dtype=np.float64).reshape(1, 3)
    return float(_ccn_losses(as_points(candidates)[None], n, tau**2)[0])


def _weighted_principal(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Principal direction of sum_i w_i m_i m_i^T per row: (A, M, 3), (A, M) -> (A, 3)."""
    mat = np.matmul((m * w[:, :, None]).transpose(0, 2, 1), m)
    _, v = np.linalg.eigh(mat)
    return canonical_sign(v[:, :, 2])


def normal_mode_batch(m: np.ndarray, params: ConsensusParams, init: np.ndarray):
    """Minimize ccn_loss for each row of (A, M, 3) candidates from (A, 3) inits.

    Each step weights candidates by their kernel value at the current
    normal and moves to the principal direction of the weighted outer-
    product sum.  If a step would increase the loss it is halved toward
    the previous iterate (up to 8 times) before the point gives up.
    Returns (normals (A, 3), losses (A,), iterations (A,), converged (A,)).
    """
    tau2 = params.tau_normal**2
    n = canonical_sign(np.array(init, dtype=np.float64))
    loss = _ccn_losses(m, n, tau2)
    iterations = np.zeros(len(m), dtype=np.int64)
    converged = np.zeros(len(m), dtype=bool)
    act = np.arange(len(m))
    for _ in range(params.max_iters):
        if len(act) == 0:
            break
        ma, na, la = m[act], n[act], loss[act]
        iterations[act] += 1
        w = np.exp(-(1.0 - np.einsum("amc,ac->am", ma, na) ** 2) / tau2)
        n_new = _weighted_principal(ma, w)
        new_loss = _ccn_losses(ma, n_new, tau2)
        up = new_loss > la + _LOSS_SLACK
        for _ in range(_MAX_HALVINGS):
            i = np.flatnonzero(up)
            if len(i) == 0:
                break
            flip = np.where(np.einsum("ac,ac->a", n_new[i], na[i]) < 0, -1.0, 1.0)
            half = na[i] + flip[:, None] * n_new[i]
            half /= np.linalg.norm(half, axis=1, keepdims=True)
            n_new[i] = half
            new_loss[i] = _ccn_losses(ma[i], half, tau2)
            up[i] = new_loss[i] > la[i] + _LOSS_SLACK
        moved = ~up
        n[act[moved]] = canonical_sign(n_new[moved])
        loss[act[moved]] = new_loss[moved]
        done = moved & (angles_unoriented(n_new, na) < params.tol_deg)
        converged[act[done]] = True
        act = act[moved & ~done]
    return n, loss, iterations, converged


def normal_mode(candidates, params: ConsensusParams, init) -> ModeResult:
    """Mode of one candidate set: `normal_mode_batch` on a batch of one."""
    m = as_points(candidates)
    if len(m) == 0:
        raise EmptyCandidates("normal_mode needs at least one candidate")
    init = np.asarray(init, dtype=np.float64).reshape(1, 3)
    n, loss, iterations, converged = normal_mode_batch(m[None], params, init)
    return ModeResult(value=n[0], loss=float(loss[0]), iterations=int(iterations[0]),
                      converged=bool(converged[0]))


def _ccp_losses(q: np.ndarray, x: np.ndarray, tau2: np.ndarray) -> np.ndarray:
    """ccp_loss of each row: (A, M, 3) candidates at (A, 3) positions, (A,) squared bandwidths."""
    d2 = ((q - x[:, None, :]) ** 2).sum(axis=2)
    return -np.exp(-d2 / tau2[:, None]).sum(axis=1)


def ccp_loss(x, candidates, tau: float) -> float:
    """Candidate consensus loss for a trial position."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(1, 3)
    return float(_ccp_losses(as_points(candidates)[None], x, np.array([tau**2]))[0])


def position_mode_batch(q: np.ndarray, params: ConsensusParams, init: np.ndarray,
                        tau: np.ndarray):
    """Mean-shift each row of (A, M, 3) candidates from (A, 3) inits with
    bandwidths tau (A,), all positive.

    A point converges when a step moves it less than tol_pos * tau, so the
    iterations do not depend on the cloud's scale.  A point whose kernel
    weights all underflow to zero stops at its nearest candidate,
    unconverged.  Returns (positions (A, 3), losses (A,),
    iterations (A,), converged (A,)).
    """
    tau2 = tau**2
    x = np.array(init, dtype=np.float64)
    loss = _ccp_losses(q, x, tau2)
    iterations = np.zeros(len(q), dtype=np.int64)
    converged = np.zeros(len(q), dtype=bool)
    act = np.arange(len(q))
    for _ in range(params.max_iters):
        if len(act) == 0:
            break
        iterations[act] += 1
        qa, xa = q[act], x[act]
        d2 = ((qa - xa[:, None, :]) ** 2).sum(axis=2)
        w = np.exp(-d2 / tau2[act, None])
        total = w.sum(axis=1)
        empty = total == 0.0
        if empty.any():
            e = np.flatnonzero(empty)
            x[act[e]] = qa[e, np.argmin(d2[e], axis=1)]
            loss[act[e]] = _ccp_losses(qa[e], x[act[e]], tau2[act[e]])
            live = ~empty
            act, qa, xa, w, total = act[live], qa[live], xa[live], w[live], total[live]
        la, t2 = loss[act], tau2[act]
        x_new = (w[:, :, None] * qa).sum(axis=1) / total[:, None]
        new_loss = _ccp_losses(qa, x_new, t2)
        up = new_loss > la + _LOSS_SLACK
        for _ in range(_MAX_HALVINGS):
            i = np.flatnonzero(up)
            if len(i) == 0:
                break
            x_new[i] = (xa[i] + x_new[i]) / 2.0
            new_loss[i] = _ccp_losses(qa[i], x_new[i], t2[i])
            up[i] = new_loss[i] > la[i] + _LOSS_SLACK
        moved = ~up
        x[act[moved]] = x_new[moved]
        loss[act[moved]] = new_loss[moved]
        done = moved & (np.linalg.norm(x_new - xa, axis=1) < params.tol_pos * tau[act])
        converged[act[done]] = True
        act = act[moved & ~done]
    return x, loss, iterations, converged


def position_mode(candidates, params: ConsensusParams, init, tau: float) -> ModeResult:
    """Mode of one candidate set: `position_mode_batch` on a batch of one."""
    q = as_points(candidates)
    if len(q) == 0:
        raise EmptyCandidates("position_mode needs at least one candidate")
    if tau <= 0:
        raise ValueError("tau must be positive")
    init = np.asarray(init, dtype=np.float64).reshape(1, 3)
    x, loss, iterations, converged = position_mode_batch(q[None], params, init,
                                                         np.array([tau], dtype=np.float64))
    return ModeResult(value=x[0], loss=float(loss[0]), iterations=int(iterations[0]),
                      converged=bool(converged[0]))
