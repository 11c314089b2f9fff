"""Random candidate generation and kernel-score rejection.

Stage 1 samples many plane hypotheses (or position hypotheses for
denoising) from a query point's neighborhood.  Stage 2 scores each
hypothesis by how many neighbors it explains, via a Gaussian kernel on the
point-to-plane (point-to-candidate) distance, and drops a fixed fraction of
the lowest-scoring ones.

Every stage works on a block of P query points at once: neighborhoods are
(P, k, 3) arrays and candidates (P, M, 3).  Each point's rows are computed
independently of the other points in the block, so a caller may split a
block into row chunks (the pipeline scores in chunks that bound the
(P, k, M) kernel matrix) without changing a byte.  The single-point
functions are the block functions called on a block of one.

Randomness is counter-based: each index draw is a pure function of the
point's stream key (`point_rng`), the candidate slot, the redraw attempt and
the position in the subset, so results do not depend on how points are
grouped into blocks or threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PersistentDegeneracy, TooFewNeighbors
from .geometry import as_points, fit_planes_batch, lift

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF
# neighbors averaged into one position candidate
POSITION_SUBSET = 4


@dataclass(frozen=True)
class SamplingParams:
    k_s: int = 4
    n_candidates: int = 100
    rejection_fraction_normals: float = 0.20
    rejection_fraction_positions: float = 0.10
    max_resample_attempts: int = 20

    def __post_init__(self):
        if self.k_s < 3:
            raise ValueError("k_s must be >= 3")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        for frac in (self.rejection_fraction_normals, self.rejection_fraction_positions):
            if not 0.0 <= frac < 1.0:
                raise ValueError("rejection fractions must lie in [0, 1)")
        if self.max_resample_attempts < 1:
            raise ValueError("max_resample_attempts must be >= 1")


@dataclass
class CandidatePlanes:
    """A batch of sampled plane hypotheses (array-of-struct layout)."""

    normals: np.ndarray            # (M, 3), unit, sign-canonicalized
    anchors: np.ndarray            # (M, 3)
    scores: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.normals)


@dataclass
class PositionCandidates:
    positions: np.ndarray          # (M, 3)
    scores: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.positions)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser on a uint64 array (wraps modulo 2**64)."""
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def point_rng(seed: int, t):
    """Stream key of query point t (an int or an array of ints): uint64.

    The key depends on (seed, t) only, so every point's draws are the same
    whatever block or thread it runs in.
    """
    t = np.asarray(t)
    base = _mix64(np.array([seed & _U64], dtype=np.uint64))
    keys = _mix64(base + _GOLDEN * t.astype(np.uint64).reshape(-1))
    return keys.reshape(t.shape)[()]


def _draw_index_sets(keys: np.ndarray, counters: np.ndarray, pool: int, k: int) -> np.ndarray:
    """One row of k distinct indices in range(pool) per (key, counter) pair.

    Draw j of a row is the word mix64(key + golden * (counter * k + j)); its
    top 32 bits pick r_j from range(pool - j) by multiply-shift (bias at most
    pool / 2**32), and r_j is shifted past the indices already picked, so
    the row is a uniform ordered k-subset with no argsort.  The shift walks
    the picked indices in ascending order; they are kept sorted by min/max
    insertion of each new pick, not sorted again for every draw.
    """
    j = np.arange(k, dtype=np.uint64)[:, None]
    words = _mix64(keys + _GOLDEN * (counters.astype(np.uint64) * np.uint64(k) + j))
    # (k, rows): one contiguous row per draw
    out = (((words >> np.uint64(32)) * (np.uint64(pool) - j)) >> np.uint64(32)).astype(np.intp)
    picked = [out[0].copy()]
    for v in out[1:]:
        for s in picked:
            v += v >= s
        if len(picked) < k - 1:
            carry = v.copy()
            for i, s in enumerate(picked):
                picked[i] = np.minimum(s, carry)
                np.maximum(s, carry, out=carry)
            picked.append(carry)
    return np.ascontiguousarray(out.T)


def _subsets(nbrs: np.ndarray, keys: np.ndarray, rows: np.ndarray, m: int, attempt: int,
             size: int) -> np.ndarray:
    """(len(rows), size, 3) neighbors of the candidate rows `rows` = point * m + slot: each
    row's `size` distinct neighbors of its point, drawn from the point's key at counter
    attempt * m + slot.  `nbrs` is (P, k, 3) and `keys` (P,)."""
    pool = nbrs.shape[1]
    if pool < size:
        raise TooFewNeighbors(f"{pool} neighbors < subset size {size}")
    p, slot = np.divmod(rows, m)
    sets = _draw_index_sets(keys[p], attempt * m + slot, pool, size)
    sets += (p * pool)[:, None]             # rows of the flattened (P * k, 3) neighbors
    return np.take(nbrs.reshape(-1, 3), sets, axis=0)


def sample_plane_block(nbrs: np.ndarray, keys: np.ndarray, params: SamplingParams):
    """Fit one plane per candidate slot to k_s random neighbors, per point.

    `nbrs` is (P, k, 3) and `keys` (P,).  Degenerate draws (collinear or
    coincident points) are redrawn, each with the next attempt number, up to
    max_resample_attempts times.  Returns (normals (P, M, 3), anchors
    (P, M, 3), failed (P,)); a failed point has a slot that stayed
    degenerate, and its rows are meaningless.
    """
    n_pts, m = len(nbrs), params.n_candidates
    pending = np.arange(n_pts * m)
    for attempt in range(params.max_resample_attempts):
        nrm, anc, bad = fit_planes_batch(_subsets(nbrs, keys, pending, m, attempt, params.k_s))
        if attempt == 0:
            # the first attempt fills every slot; redraws overwrite only their own
            normals, anchors = nrm, anc
        else:
            ok = ~bad
            normals[pending[ok]] = nrm[ok]
            anchors[pending[ok]] = anc[ok]
        pending = pending[bad]
        if len(pending) == 0:
            break
    failed = np.zeros(n_pts, dtype=bool)
    failed[pending // m] = True
    return normals.reshape(n_pts, m, 3), anchors.reshape(n_pts, m, 3), failed


def sample_normal_candidates(neighbors, params: SamplingParams, key) -> CandidatePlanes:
    """Plane candidates of one neighborhood; `key` is its `point_rng` key.

    If any slot stays degenerate after max_resample_attempts redraws the
    neighborhood itself is pathological and PersistentDegeneracy is raised.
    """
    nbrs = as_points(neighbors)
    normals, anchors, failed = sample_plane_block(nbrs[None], np.array([key], dtype=np.uint64),
                                                  params)
    if failed[0]:
        raise PersistentDegeneracy(
            f"candidate slots stayed degenerate after {params.max_resample_attempts} attempts")
    return CandidatePlanes(normals=normals[0], anchors=anchors[0])


def rejection_sigma(neighbor_distances):
    """Kernel bandwidth: one percent of the neighborhood radius (per row of
    a (P, k) array of distances)."""
    d = np.asarray(neighbor_distances, dtype=np.float64)
    if d.size == 0:
        raise ValueError("need at least one neighbor distance")
    return 0.01 * d.max(axis=-1)


def _kernel_sum(e: np.ndarray, axis: int) -> np.ndarray:
    """sum(exp(e)) over `axis` for exponents e <= 0, overwriting e.  Exponents are
    clipped to [-700, 0] first: exp is many times slower below -708, where it
    underflows, and a term below e**-700 (about 1e-304) cannot change a sum that has
    any term above about 1e-288; a lifted exponent can exceed 0 by round-off."""
    np.clip(e, -700.0, 0.0, out=e)
    np.exp(e, out=e)
    return e.sum(axis=axis)


def score_plane_block(nbrs: np.ndarray, normals: np.ndarray, anchors: np.ndarray,
                      sigma: np.ndarray) -> np.ndarray:
    """Gaussian-kernel consensus score (P, M) of each plane over its point's
    neighbors: (P, k, 3) neighbors, (P, M, 3) planes, (P,) bandwidths.
    Distances (p - a).n / sigma are one stacked matmul of lifted neighbors
    [p, 1] and planes [n, -a.n] / sigma; the neighbours' four columns are
    built here, since `lift`'s fifth, |p|^2, is not read."""
    planes = np.concatenate([normals, -np.einsum("pmc,pmc->pm", anchors, normals)[..., None]], 2)
    planes /= sigma[:, None, None]
    points = np.empty(nbrs.shape[:-1] + (4,))
    points[..., :3], points[..., 3] = nbrs, 1.0
    e = np.matmul(points, planes.transpose(0, 2, 1))      # (P, k, M)
    np.square(e, out=e)
    np.negative(e, out=e)
    return _kernel_sum(e, axis=1)


def score_candidates(neighbors, cands: CandidatePlanes, sigma: float) -> np.ndarray:
    """Gaussian-kernel consensus score of each plane over all neighbors."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    nbrs = as_points(neighbors)
    return score_plane_block(nbrs[None], cands.normals[None], cands.anchors[None],
                             np.array([sigma], dtype=np.float64))[0]


def rejection_order(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Per row of (P, M) scores, the survivors' indices by descending score
    (stable on ties); the lowest floor(fraction * M) of each row are dropped."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    m = scores.shape[1]
    order = np.argsort(-scores, axis=1, kind="stable")
    return order[:, : m - int(np.floor(fraction * m))]


def reject_candidates(cands: CandidatePlanes, fraction: float) -> CandidatePlanes:
    """Drop the lowest-scoring fraction; survivors keep descending order."""
    if cands.scores is None:
        raise ValueError("scores must be computed before rejection")
    keep = rejection_order(cands.scores[None], fraction)[0]
    return CandidatePlanes(
        normals=cands.normals[keep],
        anchors=cands.anchors[keep],
        scores=cands.scores[keep],
    )


def sample_position_block(nbrs: np.ndarray, keys: np.ndarray, n_candidates: int) -> np.ndarray:
    """Denoising hypotheses (P, M, 3): centroids of POSITION_SUBSET distinct
    random neighbors."""
    rows = np.arange(len(nbrs) * n_candidates)
    subsets = _subsets(nbrs, keys, rows, n_candidates, 0, POSITION_SUBSET)
    # the bytes of subsets.mean(axis=1), faster
    centroids = np.einsum("mkc->mc", subsets) / POSITION_SUBSET
    return centroids.reshape(len(nbrs), n_candidates, 3)


def sample_position_candidates(neighbors, params: SamplingParams, key) -> PositionCandidates:
    """Position candidates of one neighborhood; `key` is its `point_rng` key."""
    nbrs = as_points(neighbors)
    positions = sample_position_block(nbrs[None], np.array([key], dtype=np.uint64),
                                      params.n_candidates)
    return PositionCandidates(positions=positions[0])


def score_position_block(nbrs: np.ndarray, positions: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Gaussian-kernel density (P, M) of each point's neighbors (P, k, 3)
    around its candidate positions (P, M, 3), for bandwidths (P,).  The
    exponents -|p - q|^2 / sigma^2 are one stacked matmul of lifts."""
    e = np.matmul(lift(positions, (sigma**2)[:, None]), lift(nbrs).transpose(0, 2, 1))
    return _kernel_sum(e, axis=2)                                 # e is (P, M, k)


def score_position_candidates(neighbors, cands: PositionCandidates, sigma: float) -> np.ndarray:
    """Gaussian-kernel density of neighbors around each candidate position."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    nbrs = as_points(neighbors)
    return score_position_block(nbrs[None], cands.positions[None],
                                np.array([sigma], dtype=np.float64))[0]


def reject_position_candidates(cands: PositionCandidates, fraction: float) -> PositionCandidates:
    if cands.scores is None:
        raise ValueError("scores must be computed before rejection")
    keep = rejection_order(cands.scores[None], fraction)[0]
    return PositionCandidates(positions=cands.positions[keep], scores=cands.scores[keep])
