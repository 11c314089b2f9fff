"""Whole-cloud orchestration: normal estimation and denoising.

Points run the three-stage chain (sample hypotheses, score + reject, seek
the main mode) in blocks of P points, P = min(ceil(N / n_threads),
2**18 // (3 * k_s * M)): one block per thread on small clouds, and on large
ones as many points as keep a block's (P * M, k_s, 3) subset gather near
2 MB.  A block's neighborhoods come from one k-NN tree query, and its
(P, k, M) plane scores and (P, M, k) position scores are computed in row
chunks of 2**18 // (M * k) points, so each kernel matrix also stays near
2 MB.  The blocks are a fixed partition of range(N) and threads take whole
blocks.  Every random draw is a pure function of (seed, point index,
candidate slot, attempt), and every stage computes each point's rows
independently of the others, so outputs are identical for any thread count
and block size.  `estimate_normal` and `denoise_point` run the same block
function on a block of one and give that point's result byte for byte.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import candidates as cand
from .candidates import point_rng
from .consensus import ConsensusParams, normal_mode_batch, position_mode_batch
# unused here: perfbench/tracer.py probes these two names on this module
from .consensus import normal_mode, position_mode  # noqa: F401
from .errors import TooFewNeighbors
from .geometry import NeighborIndex, PointCloud, build_index, plane_fit
from .noise import AdaptiveConfig, DEFAULT_NOISE_K, adaptive_k, cloud_noise_scale, rejection_enabled

# float64 elements of a block's subset gather and of a scoring chunk: 2 MB
_BLOCK_ELEMENTS = 2**18
# neighbors whose mean distance sets the denoising bandwidth
_DENOISE_SIGMA_K = 12


@dataclass(frozen=True)
class EstimationParams:
    adaptive: AdaptiveConfig = AdaptiveConfig()
    sampling: cand.SamplingParams = cand.SamplingParams()
    consensus: ConsensusParams = ConsensusParams()
    seed: int = 0
    denoise_k: int = 64
    noise_k: int = DEFAULT_NOISE_K


@dataclass
class RunReport:
    """Per-point counters of an `estimate_all` run: one (N,) array per field."""

    k_hat: int                     # neighborhood size, shared by every point
    survivors: np.ndarray          # candidates left after rejection; 0 on fallback
    iterations: np.ndarray         # mode-solver iterations
    converged: np.ndarray          # bool: the mode solver met its tolerance
    loss: np.ndarray               # final consensus loss; 0 on fallback
    fallback: np.ndarray           # bool: PCA normal, every resampling attempt stayed degenerate


def _require_points(cloud: PointCloud, need: int) -> None:
    """Raise TooFewNeighbors unless each point has at least `need` neighbors."""
    if len(cloud) <= need:
        raise TooFewNeighbors(f"need more than {need} points, got {len(cloud)}")


def _block_size(n: int, n_threads: int, n_candidates: int, subset: int) -> int:
    """Points per block: an equal share of the n points per thread, capped
    so that the block's (P * M, subset, 3) gather of candidate subsets holds
    at most _BLOCK_ELEMENTS doubles."""
    share = -(-n // max(1, n_threads))
    return max(1, min(share, _BLOCK_ELEMENTS // (3 * subset * n_candidates)))


def _chunked_scores(score, nbrs: np.ndarray, cands: np.ndarray, *per_point) -> np.ndarray:
    """score(nbrs, cands, *per_point) -> (P, M), run on row chunks so that
    each chunk's (rows, k, M) kernel matrix holds at most _BLOCK_ELEMENTS
    doubles (at least one row).  A block of no rows gives (0, M)."""
    rows = max(1, _BLOCK_ELEMENTS // (cands.shape[1] * nbrs.shape[1]))
    out = np.empty(cands.shape[:2])
    for start in range(0, len(out), rows):
        part = slice(start, start + rows)
        out[part] = score(nbrs[part], cands[part], *(a[part] for a in per_point))
    return out


def _neighborhoods(cloud: PointCloud, index: NeighborIndex, ts: np.ndarray, k: int):
    """(neighbors relative to their query point (P, k, 3), distances (P, k))."""
    idx, dist = index.knn_batch(k, ts)
    return cloud.points[idx] - cloud.points[ts, None, :], dist


def _run_blocks(n: int, block: int, work, n_threads: int) -> list:
    """work(ts) on every block of the fixed partition of range(n), in block order."""
    blocks = [np.arange(s, min(s + block, n)) for s in range(0, n, block)]
    if n_threads <= 1:
        return [work(ts) for ts in blocks]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(work, blocks))


def _k_hat(cloud: PointCloud, f_cloud: float, params: EstimationParams) -> int:
    return min(adaptive_k(f_cloud, params.adaptive), len(cloud) - 1)


def _estimate_block(cloud: PointCloud, index: NeighborIndex, ts: np.ndarray, k_hat: int,
                    reject: bool, params: EstimationParams):
    """Rows of block ts: (normals (P, 3), then the `RunReport` arrays).

    A point whose candidate slots stay degenerate after every resampling
    attempt gets the PCA normal of its neighborhood plus itself.
    """
    sp = params.sampling
    rel, nbr_d = _neighborhoods(cloud, index, ts, k_hat)
    nrm, anc, failed = cand.sample_plane_block(rel, point_rng(params.seed, ts), sp)
    normals = np.empty((len(ts), 3))
    survivors = np.zeros(len(ts), dtype=np.int64)
    iterations = np.zeros(len(ts), dtype=np.int64)
    converged = np.zeros(len(ts), dtype=bool)
    loss = np.zeros(len(ts))
    if failed.any():
        # PCA over the neighborhood plus the point itself (the origin)
        pts = np.concatenate([rel[failed], np.zeros((np.count_nonzero(failed), 1, 3))], axis=1)
        normals[failed] = plane_fit(pts)[0]
    ok = ~failed
    if ok.any():
        rel, nbr_d, nrm, anc = rel[ok], nbr_d[ok], nrm[ok], anc[ok]
        scores = _chunked_scores(cand.score_plane_block, rel, nrm, anc,
                                 cand.rejection_sigma(nbr_d))
        if reject:
            keep = cand.rejection_order(scores, sp.rejection_fraction_normals)
            nrm = np.take_along_axis(nrm, keep[:, :, None], axis=1)
            init = nrm[:, 0]              # survivors are score-sorted
        else:
            # rejection off: scores only pick the solver initialization
            init = nrm[np.arange(len(nrm)), np.argmax(scores, axis=1)]
        normals[ok], loss[ok], iterations[ok], converged[ok] = normal_mode_batch(
            nrm, params.consensus, init)
        survivors[ok] = nrm.shape[1]
    return normals, survivors, iterations, converged, loss, failed


def estimate_normal(cloud: PointCloud, index: NeighborIndex, t: int, f_cloud: float,
                    params: EstimationParams):
    """Estimate one point's normal; returns (unit normal, RunReport of that point).

    The block chain on a block of one: gives what `estimate_all` gives for
    t, PCA fallback included.
    """
    _require_points(cloud, params.sampling.k_s)
    k_hat = _k_hat(cloud, f_cloud, params)
    normals, *cols = _estimate_block(cloud, index, np.array([t]), k_hat,
                                     rejection_enabled(f_cloud, params.adaptive), params)
    return normals[0], RunReport(k_hat, *cols)


def estimate_all(cloud: PointCloud, params: EstimationParams, n_threads: int = 1):
    """Estimate normals for every point.

    Returns (cloud with normals attached, RunReport).  The noise scale (and
    hence the neighborhood size) is computed once per cloud.  A point whose
    candidate slots stay degenerate after every resampling attempt gets the
    PCA normal of its neighborhood plus itself and is flagged `fallback`.
    Raises TooFewNeighbors if the cloud has no more than k_s points.
    """
    _require_points(cloud, params.sampling.k_s)
    index = build_index(cloud)
    profile = cloud_noise_scale(cloud, index, min(params.noise_k, len(cloud) - 1))
    f = profile.cloud_f
    k_hat = _k_hat(cloud, f, params)
    reject = rejection_enabled(f, params.adaptive)
    sp = params.sampling
    block = _block_size(len(cloud), n_threads, sp.n_candidates, sp.k_s)
    rows = _run_blocks(len(cloud), block,
                       lambda ts: _estimate_block(cloud, index, ts, k_hat, reject, params),
                       n_threads)
    normals, *cols = (np.concatenate(c) for c in zip(*rows))
    return PointCloud(points=cloud.points.copy(), normals=normals), RunReport(k_hat, *cols)


def _denoise_k(cloud: PointCloud, params: EstimationParams) -> int:
    _require_points(cloud, cand.POSITION_SUBSET)
    return min(params.denoise_k, len(cloud) - 1)


def _denoise_block(cloud: PointCloud, index: NeighborIndex, ts: np.ndarray, k: int,
                   params: EstimationParams) -> np.ndarray:
    """Denoised positions (P, 3) of block ts.

    A point whose nearest neighbors all coincide with it (bandwidth 0)
    keeps its position.
    """
    sp = params.sampling
    rel, nbr_d = _neighborhoods(cloud, index, ts, k)
    sigma = nbr_d[:, :_DENOISE_SIGMA_K].mean(axis=1)
    out = cloud.points[ts]
    live = sigma > 0.0
    rel, sigma = rel[live], sigma[live]
    pos = cand.sample_position_block(rel, point_rng(params.seed, ts[live]), sp.n_candidates)
    scores = _chunked_scores(cand.score_position_block, rel, pos, sigma)
    keep = cand.rejection_order(scores, sp.rejection_fraction_positions)
    pos = np.take_along_axis(pos, keep[:, :, None], axis=1)
    x, _, _, _ = position_mode_batch(pos, params.consensus, np.zeros((len(pos), 3)), sigma)
    out[live] += x
    return out


def denoise_point(cloud: PointCloud, index: NeighborIndex, t: int,
                  params: EstimationParams) -> np.ndarray:
    """Move one point to the main mode of its position candidates.

    The block chain on a block of one: gives what `denoise_all` gives for t.
    """
    return _denoise_block(cloud, index, np.array([t]), _denoise_k(cloud, params), params)[0]


def denoise_all(cloud: PointCloud, params: EstimationParams, n_threads: int = 1) -> PointCloud:
    """Denoise every point; positions move, normals (if any) are dropped.

    A point whose nearest neighbors all coincide with it (bandwidth 0)
    keeps its position.  Raises TooFewNeighbors if the cloud has no more
    than 4 points.
    """
    k = _denoise_k(cloud, params)
    index = build_index(cloud)
    block = _block_size(len(cloud), n_threads, params.sampling.n_candidates,
                        cand.POSITION_SUBSET)
    blocks = _run_blocks(len(cloud), block,
                         lambda ts: _denoise_block(cloud, index, ts, k, params), n_threads)
    return PointCloud(points=np.concatenate(blocks))
