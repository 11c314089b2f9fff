"""Mode determination: robust kernel losses over candidates and their minimizers.

For normals the loss puts a Gaussian kernel on the sine of the angle to each
candidate (antipodally invariant since ||n x m||^2 = 1 - (n.m)^2); the
minimizer is found by power steps of the scatter S = sum_i w_i m_i m_i^T
weighted by the kernel terms at the current normal.  A power step of the
positive semidefinite S never lowers the minorizer n^T S n, a (generalized)
minorize-maximize step (Hunter & Lange 2004), so the loss rises only by
round-off.  For positions the loss is the classic Gaussian kernel on
distance, and the minimizer is found by Newton steps on the kernel density
where it is locally concave and by mean-shift steps, which are
minorize-maximize steps, where it is not or where a Newton point would
raise the loss (Carreira-Perpinan, CVPR 2006).

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
from .geometry import angles_unoriented, as_points, canonical_sign, lift, require_count, require_real

# default kernel bandwidth: sin(30 degrees)
DEFAULT_TAU = math.sin(math.pi / 6)

_LOSS_SLACK = 1e-12

# power steps n <- S n per normal solver step, normalized once
_POWER_STEPS = 2


@dataclass(frozen=True)
class ConsensusParams:
    tau_normal: float = DEFAULT_TAU
    max_iters: int = 50
    tol_deg: float = 0.01
    tol_pos: float = 1e-5          # position-mode step tolerance, a fraction of the bandwidth

    def __post_init__(self):
        require_real("tau_normal", self.tau_normal, "(0, 1]")
        require_count("max_iters", self.max_iters, 1)
        # a negative tolerance can never be met, so every point would run to max_iters
        require_real("tol_deg", self.tol_deg, "[0, inf)")
        require_real("tol_pos", self.tol_pos, "[0, inf)")


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


def _power_step(m: np.ndarray, w: np.ndarray, n: np.ndarray) -> np.ndarray:
    """S^j n / ||S^j n|| for S = sum_i w_i m_i m_i^T per row, j = _POWER_STEPS:
    (A, M, 3), (A, M), (A, 3) -> (A, 3).  S x = sum_i w_i (m_i.x) m_i is two
    stacked matmuls.  The weights are rescaled by their row maximum first,
    so subnormal ones do not underflow S^j n; a row whose S^j n vanishes
    keeps n."""
    w = w / w.max(axis=1, keepdims=True)
    x = n
    for _ in range(_POWER_STEPS):
        d = np.matmul(m, x[:, :, None])[:, :, 0]
        d *= w
        x = np.matmul(d[:, None, :], m)[:, 0]
    norm = np.linalg.norm(x, axis=1)
    vanished = norm == 0.0
    if vanished.any():
        x[vanished], norm[vanished] = n[vanished], 1.0
    x /= norm[:, None]
    return x


def _descend(c, x, kernel, step, stopped, nearest, max_iters: int, *rows, fallback=None):
    """Minimize -kernel(c, x, *rows).sum(axis=1) for each of A points from
    (A, ...) candidates c, (A, 3) starts x and per-point arrays rows.

    A pass moves each point to step(c, kern, -loss, x, *rows), from its
    kernel terms, their sum, its iterate and its rows; it converges when
    stopped(x_new, x, *rows).  A point whose step would raise its loss by
    more than _LOSS_SLACK is retried at fallback(...) of the same arguments,
    the kernel evaluated for those points only; unconverged, it stops where
    it was if that raises the loss too (or if there is no fallback), and at
    nearest(c, x) if its kernel terms all vanish.  Returns (iterates,
    losses, iterations, converged).
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
        x_new = step(c, kern, -loss, x, *rows)
        new_kern = kernel(c, x_new, *rows)
        new_loss = -new_kern.sum(axis=1)
        limit = loss + _LOSS_SLACK
        up = new_loss > limit
        if fallback is not None and up.any():
            r = np.flatnonzero(up)
            cr, rr = c[r], [a[r] for a in rows]
            xr = fallback(cr, kern[r], -loss[r], x[r], *rr)
            kr = kernel(cr, xr, *rr)
            x_new[r], new_kern[r], new_loss[r] = xr, kr, -kr.sum(axis=1)
            up[r] = new_loss[r] > limit[r]
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
    normal and takes `_power_step`.  A point whose step would raise the loss
    stops where it was; one whose kernel weights all underflow to zero stops
    at its nearest candidate (largest |n.m|); both unconverged.  The step
    is sign-equivariant (-n goes to -S n) and neither the kernel nor the
    stopping angle sees the sign, so the results are sign-canonicalized
    once, on the way out, with zero components +0: a sum that cancels is +0
    whatever the iterate's sign.
    Returns (normals (A, 3), losses (A,), iterations (A,), converged (A,)).
    """
    n, loss, iterations, converged = _descend(
        m, np.array(init, dtype=np.float64),
        lambda m, n: _ccn_kernel(m, n, params.tau_normal),
        lambda m, kern, total, n: _power_step(m, kern, n),
        lambda n_new, n: angles_unoriented(n_new, n) < params.tol_deg,
        lambda m, n: m[np.arange(len(m)), np.argmax(np.abs(np.einsum("amc,ac->am", m, n)), axis=1)],
        params.max_iters)
    return canonical_sign(n) + 0.0, loss, iterations, converged


def normal_mode(candidates, params: ConsensusParams, init) -> ModeResult:
    """Mode of one candidate set: `normal_mode_batch` on a batch of one."""
    m = as_points(candidates)
    if len(m) == 0:
        raise EmptyCandidates("normal_mode needs at least one candidate")
    init = np.asarray(init, dtype=np.float64).reshape(1, 3)
    n, loss, iterations, converged = normal_mode_batch(m[None], params, init)
    return ModeResult(value=n[0], loss=float(loss[0]), iterations=int(iterations[0]),
                      converged=bool(converged[0]))


# the entries (i, j), i <= j, of a symmetric 3x3 matrix as 6 rows, diagonal
# first; `_lift_products` writes its products in this order
_SYM = (np.array([0, 1, 2, 0, 1, 0]), np.array([0, 1, 2, 1, 2, 2]))
# _ENTRY[i, k] is the row of entry (i, k); cofactor (i, k) of a symmetric
# 3x3 matrix is H[i+1, k+1] H[i+2, k+2] - H[i+1, k+2] H[i+2, k+1], indices
# mod 3, and _COFACTOR holds the rows of those four factors
_ENTRY = np.zeros((3, 3), dtype=np.intp)
_ENTRY[_SYM] = _ENTRY[_SYM[::-1]] = np.arange(6)
_COFACTOR = np.stack([_ENTRY[np.ix_(a, b)] for a, b in
                      (([1, 2, 0], [1, 2, 0]), ([2, 0, 1], [2, 0, 1]),
                       ([1, 2, 0], [2, 0, 1]), ([2, 0, 1], [1, 2, 0]))])


def _lift_products(q: np.ndarray) -> np.ndarray:
    """(A, 11, M) lifts of (A, M, 3) candidates, coordinate-major: rows
    [q, 1, |q|^2] (`geometry.lift`), which the kernel reads, then the products
    q_i q_j for (i, j) in _SYM, so that one matmul with the kernel terms gives
    S0, S1 and the second moments."""
    out = np.empty((len(q), 11, q.shape[1]))
    qt = out[:, :3]
    qt[...], out[:, 3] = q.transpose(0, 2, 1), 1.0
    np.multiply(qt, qt, out=out[:, 5:8])
    np.multiply(qt[:, :2], qt[:, 1:], out=out[:, 8:10])
    np.multiply(qt[:, 0], qt[:, 2], out=out[:, 10])
    np.add(out[:, 5], out[:, 6], out=out[:, 4])
    out[:, 4] += out[:, 7]
    return out


def _ccp_exponent(q: np.ndarray, x: np.ndarray, tau2: np.ndarray) -> np.ndarray:
    """-|q - x|^2 / tau^2 of (A, 11, M) lifted candidates (`_lift_products`)
    at (A, 3) positions, (A,) squared bandwidths -> (A, M): one stacked
    matmul with lift(x, tau2)."""
    return np.matmul(lift(x, tau2)[:, None, :], q[:, :5])[:, 0]


def _ccp_kernel(q: np.ndarray, x: np.ndarray, tau2: np.ndarray) -> np.ndarray:
    """Kernel terms of ccp_loss, like `_ccn_kernel` both losses and the next
    step's weights: exp of `_ccp_exponent`, clamped at 0 for round-off
    only, so a far candidate's term underflows to 0."""
    e = _ccp_exponent(q, x, tau2)
    np.minimum(e, 0.0, out=e)
    return np.exp(e, out=e)


def ccp_loss(x, candidates, tau: float) -> float:
    """Candidate consensus loss for a trial position."""
    require_real("tau", tau, "(0, inf)")
    x = np.asarray(x, dtype=np.float64).reshape(1, 3)
    kern = _ccp_kernel(_lift_products(as_points(candidates)[None]), x, np.array([tau**2]))
    return float(-kern.sum(axis=1)[0])


def _moments(q: np.ndarray, kern: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Kernel-weighted means (11, A) of the lifted products (A, 11, M) under
    weights kern (A, M) that sum to total (A,): rows 0-2 are the mean-shift
    point S1 / S0, rows 5-10 the second moments E[q_i q_j]."""
    m = np.matmul(q, kern[:, :, None])[:, :, 0].T
    return m / total


def _mean_shift(q: np.ndarray, kern: np.ndarray, total: np.ndarray) -> np.ndarray:
    """The mean-shift point S1 / S0 (A, 3): the position solver's fallback."""
    return np.ascontiguousarray(_moments(q, kern, total)[:3].T)


def _newton_step(q: np.ndarray, kern: np.ndarray, total: np.ndarray, x: np.ndarray,
                 tau2: np.ndarray) -> np.ndarray:
    """The Newton point x + H^-1 d of F(x) = sum_i exp(-|q_i - x|^2 / tau^2)
    where H is positive definite, and the mean-shift point S1 / S0 = x + d
    elsewhere: (A, 3).

    d is the mean-shift vector and H = I - (2 / tau^2)(C + d d^T), with C
    the kernel-weighted covariance of the candidates about S1 / S0; grad F
    and minus its Hessian are d and H times 2 S0 / tau^2, so H is positive
    definite where F is locally concave.  Sylvester's criterion tests H and
    its adjugate solves it, elementwise over the rows.
    """
    m = _moments(q, kern, total)
    mu = m[:3]
    d = mu - x.T
    i, j = _SYM
    # C + d d^T = E[q q^T] - mu mu^T + d d^T
    h = (mu[i] * mu[j] - d[i] * d[j] - m[5:]) * (2.0 / tau2)
    h[:3] += 1.0
    cof = h[_COFACTOR[0]] * h[_COFACTOR[1]] - h[_COFACTOR[2]] * h[_COFACTOR[3]]
    # sums written out, not einsum, whose rounding depends on the batch size
    e = h[_ENTRY[0]] * cof[0]
    det = e[0] + e[1] + e[2]
    concave = (h[0] > 0.0) & (cof[2, 2] > 0.0) & (det > 0.0)
    step = cof[:, 0] * d[0] + cof[:, 1] * d[1] + cof[:, 2] * d[2]
    step /= np.where(concave, det, 1.0)
    return np.ascontiguousarray(np.where(concave, x.T + step, mu).T)


def position_mode_batch(q: np.ndarray, params: ConsensusParams, init: np.ndarray,
                        tau: np.ndarray):
    """Find the mode of each row of (A, M, 3) candidates from (A, 3) inits with
    bandwidths tau (A,), all positive, by Newton steps (`_newton_step`) on
    the kernel density, the mean-shift step where it is not locally concave.

    A point whose Newton point would raise the loss is retried at the
    mean-shift point, a minorize-maximize step whose loss rises only by
    round-off.  A point converges when a step moves it less than
    tol_pos * tau, so the iterations do not depend on the cloud's scale.  A
    point whose mean-shift step would raise the loss stops where it was;
    one whose kernel weights all underflow to zero stops at its nearest
    candidate; both unconverged.  The candidates and their products are
    lifted once (`_lift_products`); each step is one matmul of the weights
    with them.  The second moments lose digits to cancellation when the
    candidates sit far from the origin against their spread, as the lifted
    exponents do, so callers pass candidates relative to a nearby point.
    Returns (positions (A, 3), losses (A,), iterations (A,), converged (A,)).
    """
    return _descend(
        _lift_products(q), np.array(init, dtype=np.float64),
        lambda q, x, tau2, tol: _ccp_kernel(q, x, tau2),
        lambda q, kern, total, x, tau2, tol: _newton_step(q, kern, total, x, tau2),
        lambda x_new, x, tau2, tol: np.linalg.norm(x_new - x, axis=1) < tol,
        lambda q, x: q[np.arange(len(q)), :3, _ccp_exponent(q, x, np.ones(len(q))).argmax(axis=1)],
        params.max_iters, tau**2, params.tol_pos * tau,
        fallback=lambda q, kern, total, x, tau2, tol: _mean_shift(q, kern, total))


def position_mode(candidates, params: ConsensusParams, init, tau: float) -> ModeResult:
    """Mode of one candidate set: `position_mode_batch` on a batch of one."""
    q = as_points(candidates)
    if len(q) == 0:
        raise EmptyCandidates("position_mode needs at least one candidate")
    require_real("tau", tau, "(0, inf)")
    init = np.asarray(init, dtype=np.float64).reshape(1, 3)
    x, loss, iterations, converged = position_mode_batch(q[None], params, init,
                                                         np.array([tau], dtype=np.float64))
    return ModeResult(value=x[0], loss=float(loss[0]), iterations=int(iterations[0]),
                      converged=bool(converged[0]))
