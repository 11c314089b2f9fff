"""Mode determination: robust kernel losses over candidates and their minimizers.

For normals the loss puts a Gaussian kernel on the sine of the angle to each
candidate (antipodally invariant since ||n x m||^2 = 1 - (n.m)^2); the
minimizer is found by an iteratively reweighted eigenvector update.  For
positions the loss is the classic Gaussian kernel on distance and the
minimizer is a mean-shift fixed point.  Both steps are minorize-maximize
steps (Hunter & Lange 2004): the loss rises only by round-off.

The solvers run on a batch of A points at once (`normal_mode_batch`,
`position_mode_batch`) through one loop, `_descend`; each point keeps its
own iterate, convergence test and iteration budget, and leaves the batch
when it stops.  `normal_mode` and `position_mode` are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCandidates
from .geometry import angles_unoriented, as_points, canonical_sign, lift

# default kernel bandwidth: sin(30 degrees)
DEFAULT_TAU = math.sin(math.pi / 6)

_LOSS_SLACK = 1e-12


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
        # a negative tolerance can never be met, so every point would run to max_iters
        for name in ("tol_deg", "tol_pos"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass
class ModeResult:
    value: np.ndarray
    loss: float
    iterations: int
    converged: bool


def _ccn_kernel(m: np.ndarray, n: np.ndarray, tau: float) -> np.ndarray:
    """Kernel terms of ccn_loss: (A, M, 3) candidates at (A, 3) normals -> (A, M).

    exp(-(1 - (m.n)^2) / tau^2) as exp(c^2 - 1 / tau^2), with c = m.(n / tau)
    one stacked matmul.  Minus their row sums are the losses; they are also
    the weights of the solver's next step from these normals.
    """
    c = np.matmul(m, (n / tau)[:, :, None])[:, :, 0]
    np.square(c, out=c)
    c -= (1.0 / tau) ** 2
    return np.exp(c, out=c)


def ccn_loss(n, candidates, tau: float = DEFAULT_TAU) -> float:
    """Candidate consensus loss for a trial normal."""
    n = np.asarray(n, dtype=np.float64).reshape(1, 3)
    return float(-_ccn_kernel(as_points(candidates)[None], n, tau).sum(axis=1)[0])


def _weighted_principal(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Principal direction, of either sign, of sum_i w_i m_i m_i^T per row:
    (A, M, 3), (A, M) -> (A, 3)."""
    mat = np.matmul((m * w[:, :, None]).transpose(0, 2, 1), m)
    _, v = np.linalg.eigh(mat)
    return v[:, :, 2]


def _descend(c, x, kernel, step, stopped, nearest, max_iters: int, *rows):
    """Minimize -kernel(c, x, *rows).sum(axis=1) for each of A points from
    (A, M, ...) candidates c, (A, 3) starts x and per-point arrays rows.

    A pass moves each point to step(c, kern, -loss), from its kernel terms
    and their sum; it converges when stopped(x_new, x, *rows).  Unconverged,
    a point stops where it was if its step would raise its loss by more than
    _LOSS_SLACK (only round-off can), and at nearest(c, x) if its kernel
    terms all vanish.  Returns (iterates, losses, iterations, converged).
    """
    kern = kernel(c, x, *rows)           # at the current iterates, kept across steps
    loss = -kern.sum(axis=1)
    out_x, out_loss = np.empty_like(x), np.empty_like(loss)
    iterations = np.full(len(c), max_iters, dtype=np.int64)
    converged = np.zeros(len(c), dtype=bool)
    # c, kern, x, loss and rows hold the active points' rows only; they
    # shrink when a point leaves, and act maps their rows back to the batch
    act = np.arange(len(c))
    c = np.ascontiguousarray(c)           # like every compacted copy below
    for it in range(1, max_iters + 1):
        if len(act) == 0:
            break
        # a point whose loss no longer matches its kern has left the batch
        empty = loss == 0.0
        if empty.any():
            e = np.flatnonzero(empty)
            xe = nearest(c[e], x[e])
            out_x[act[e]], iterations[act[e]] = xe, it
            out_loss[act[e]] = -kernel(c[e], xe, *(r[e] for r in rows)).sum(axis=1)
            live = ~empty
            act, c, x, kern, loss, *rows = (a[live] for a in (act, c, x, kern, loss, *rows))
        x_new = step(c, kern, -loss)
        new_kern = kernel(c, x_new, *rows)
        new_loss = -new_kern.sum(axis=1)
        up = new_loss > loss + _LOSS_SLACK
        done = ~up & stopped(x_new, x, *rows)
        if up.any():
            x_new[up], new_loss[up] = x[up], loss[up]
        converged[act[done]] = True
        x, loss, kern = x_new, new_loss, new_kern
        stay = ~(up | done)
        if not stay.all():
            leave = act[~stay]
            out_x[leave], out_loss[leave], iterations[leave] = x[~stay], loss[~stay], it
            act, c, x, loss, kern, *rows = (a[stay] for a in (act, c, x, loss, kern, *rows))
    out_x[act], out_loss[act] = x, loss
    return out_x, out_loss, iterations, converged


def normal_mode_batch(m: np.ndarray, params: ConsensusParams, init: np.ndarray):
    """Minimize ccn_loss for each row of (A, M, 3) candidates from (A, 3) inits.

    Each step weights candidates by their kernel value at the current
    normal and moves to the principal direction of the weighted outer-
    product sum.  A point whose step would raise the loss stops where it
    was; one whose kernel weights all underflow to zero stops at its nearest
    candidate (largest |n.m|); both unconverged.  No step sees a normal's
    sign, so the results are sign-canonicalized once, on the way out.
    Returns (normals (A, 3), losses (A,), iterations (A,), converged (A,)).
    """
    n, loss, iterations, converged = _descend(
        m, np.array(init, dtype=np.float64),
        lambda m, n: _ccn_kernel(m, n, params.tau_normal),
        lambda m, kern, total: _weighted_principal(m, kern),
        lambda n_new, n: angles_unoriented(n_new, n) < params.tol_deg,
        lambda m, n: m[np.arange(len(m)), np.argmax(np.abs(np.einsum("amc,ac->am", m, n)), axis=1)],
        params.max_iters)
    return canonical_sign(n), loss, iterations, converged


def normal_mode(candidates, params: ConsensusParams, init) -> ModeResult:
    """Mode of one candidate set: `normal_mode_batch` on a batch of one."""
    m = as_points(candidates)
    if len(m) == 0:
        raise EmptyCandidates("normal_mode needs at least one candidate")
    init = np.asarray(init, dtype=np.float64).reshape(1, 3)
    n, loss, iterations, converged = normal_mode_batch(m[None], params, init)
    return ModeResult(value=n[0], loss=float(loss[0]), iterations=int(iterations[0]),
                      converged=bool(converged[0]))


def _ccp_exponent(q: np.ndarray, x: np.ndarray, tau2: np.ndarray) -> np.ndarray:
    """-|q - x|^2 / tau^2 of (A, M, 5) lifted candidates (`geometry.lift`) at
    (A, 3) positions, (A,) squared bandwidths -> (A, M): one stacked matmul."""
    return np.matmul(q, lift(x, tau2)[:, :, None])[:, :, 0]


def _ccp_kernel(q: np.ndarray, x: np.ndarray, tau2: np.ndarray) -> np.ndarray:
    """Kernel terms of ccp_loss, like `_ccn_kernel` both losses and the next
    mean-shift weights: exp of `_ccp_exponent`, clamped at 0 for round-off
    only, so a far candidate's term underflows to 0."""
    e = _ccp_exponent(q, x, tau2)
    np.minimum(e, 0.0, out=e)
    return np.exp(e, out=e)


def ccp_loss(x, candidates, tau: float) -> float:
    """Candidate consensus loss for a trial position."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(1, 3)
    kern = _ccp_kernel(lift(as_points(candidates)[None]), x, np.array([tau**2]))
    return float(-kern.sum(axis=1)[0])


def position_mode_batch(q: np.ndarray, params: ConsensusParams, init: np.ndarray,
                        tau: np.ndarray):
    """Mean-shift each row of (A, M, 3) candidates from (A, 3) inits with
    bandwidths tau (A,), all positive.

    A point converges when a step moves it less than tol_pos * tau, so the
    iterations do not depend on the cloud's scale.  A point whose step would
    raise the loss stops where it was; one whose kernel weights all underflow
    to zero stops at its nearest candidate; both unconverged.  The
    candidates are lifted once; each step is one matmul of the weights with
    them.  Returns (positions (A, 3), losses (A,), iterations (A,),
    converged (A,)).
    """
    return _descend(
        lift(q), np.array(init, dtype=np.float64),
        lambda q, x, tau2, tol: _ccp_kernel(q, x, tau2),
        lambda q, kern, total: np.matmul(kern[:, None, :], q[..., :3])[:, 0] / total[:, None],
        lambda x_new, x, tau2, tol: np.linalg.norm(x_new - x, axis=1) < tol,
        lambda q, x: q[np.arange(len(q)), _ccp_exponent(q, x, np.ones(len(q))).argmax(axis=1), :3],
        params.max_iters, tau**2, params.tol_pos * tau)


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
