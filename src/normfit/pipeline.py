"""Whole-cloud orchestration: normal estimation and denoising.

Points run the three-stage chain (sample hypotheses, score + reject, seek
the main mode) in blocks of P points, P = max(1, 2**18 // (M * k)) so that a
block's (P, k, M) score matrix stays near 2 MB.  The blocks are a fixed
partition of range(N) and threads take whole blocks.  Every random draw is
a pure function of (seed, point index, candidate slot, attempt), so outputs
are identical for any thread count.  `estimate_normal` and `denoise_point`
run the same stages on a single point and give that point's result byte for
byte.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import candidates as cand
from .candidates import point_rng
from .consensus import (ConsensusParams, normal_mode, normal_mode_batch, position_mode,
                        position_mode_batch)
from .geometry import NeighborIndex, PointCloud, build_index, plane_fit
from .noise import AdaptiveConfig, DEFAULT_NOISE_K, adaptive_k, cloud_noise_scale, rejection_enabled

# elements of a block's (P, k, M) score matrix: 2 MB of float64
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
class PointDiagnostics:
    k_hat: int
    n_feasible: int
    solver_iters: int
    converged: bool
    final_loss: float
    fallback: bool = False     # PCA normal: every resampling attempt stayed degenerate


def _block_size(n_candidates: int, k: int) -> int:
    return max(1, _BLOCK_ELEMENTS // (n_candidates * k))


def _neighborhoods(cloud: PointCloud, index: NeighborIndex, ts: np.ndarray, k: int):
    """(neighbors relative to their query point (P, k, 3), distances (P, k))."""
    found = [index.knn(int(t), k) for t in ts]
    idx = np.array([i for i, _ in found])
    dist = np.array([d for _, d in found])
    return cloud.points[idx] - cloud.points[ts, None, :], dist


def _run_blocks(n: int, block: int, work, n_threads: int) -> None:
    """Call work(ts) on every block of the fixed partition of range(n)."""
    blocks = [np.arange(s, min(s + block, n)) for s in range(0, n, block)]
    if n_threads <= 1:
        for ts in blocks:
            work(ts)
        return
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(work, blocks))


def _k_hat(cloud: PointCloud, f_cloud: float, params: EstimationParams) -> int:
    return min(adaptive_k(f_cloud, params.adaptive), len(cloud) - 1)


def estimate_normal(cloud: PointCloud, index: NeighborIndex, t: int, f_cloud: float,
                    params: EstimationParams):
    """Estimate one point's normal; returns (unit normal, diagnostics).

    Runs the single-point stages and gives what `estimate_all` gives for t.
    Raises PersistentDegeneracy where `estimate_all` falls back to PCA.
    """
    k_hat = _k_hat(cloud, f_cloud, params)
    rel, nbr_d = _neighborhoods(cloud, index, np.array([t]), k_hat)
    planes = cand.sample_normal_candidates(rel[0], params.sampling, point_rng(params.seed, t))
    planes.scores = cand.score_candidates(rel[0], planes, cand.rejection_sigma(nbr_d[0]))
    if rejection_enabled(f_cloud, params.adaptive):
        planes = cand.reject_candidates(planes, params.sampling.rejection_fraction_normals)
        init = planes.normals[0]        # survivors are score-sorted
    else:
        # rejection off: scores only pick the solver initialization
        init = planes.normals[int(np.argmax(planes.scores))]
    result = normal_mode(planes.normals, params.consensus, init)
    diag = PointDiagnostics(k_hat=k_hat, n_feasible=len(planes),
                            solver_iters=result.iterations,
                            converged=result.converged, final_loss=result.loss)
    return result.value, diag


def estimate_all(cloud: PointCloud, params: EstimationParams, n_threads: int = 1):
    """Estimate normals for every point.

    Returns (cloud with normals attached, list of PointDiagnostics).
    The noise scale (and hence the neighborhood size) is computed once per
    cloud.  A point whose candidate slots stay degenerate after every
    resampling attempt gets the PCA normal of its neighborhood plus itself
    and is flagged `fallback`.
    """
    index = build_index(cloud)
    profile = cloud_noise_scale(cloud, index, min(params.noise_k, len(cloud) - 1))
    f = profile.cloud_f
    k_hat = _k_hat(cloud, f, params)
    reject = rejection_enabled(f, params.adaptive)
    sp = params.sampling
    normals = np.empty_like(cloud.points)
    diags: list = [None] * len(cloud)

    def work(ts):
        rel, nbr_d = _neighborhoods(cloud, index, ts, k_hat)
        nrm, anc, failed = cand.sample_plane_block(rel, point_rng(params.seed, ts), sp)
        if failed.any():
            # PCA over the neighborhood plus the point itself (the origin)
            fb = ts[failed]
            pts = np.concatenate([rel[failed], np.zeros((len(fb), 1, 3))], axis=1)
            normals[fb] = plane_fit(pts)[0]
            for t in fb:
                diags[t] = PointDiagnostics(k_hat=k_hat, n_feasible=0, solver_iters=0,
                                            converged=False, final_loss=0.0, fallback=True)
            ok = ~failed
            if not ok.any():
                return
            rel, nbr_d, nrm, anc, ts = rel[ok], nbr_d[ok], nrm[ok], anc[ok], ts[ok]
        scores = cand.score_plane_block(rel, nrm, anc, cand.rejection_sigma(nbr_d))
        if reject:
            keep = cand.rejection_order(scores, sp.rejection_fraction_normals)
            nrm = np.take_along_axis(nrm, keep[:, :, None], axis=1)
            init = nrm[:, 0]              # survivors are score-sorted
        else:
            init = nrm[np.arange(len(nrm)), np.argmax(scores, axis=1)]
        n, loss, iters, conv = normal_mode_batch(nrm, params.consensus, init)
        normals[ts] = n
        for j, t in enumerate(ts):
            diags[t] = PointDiagnostics(k_hat=k_hat, n_feasible=nrm.shape[1],
                                        solver_iters=int(iters[j]), converged=bool(conv[j]),
                                        final_loss=float(loss[j]))

    _run_blocks(len(cloud), _block_size(sp.n_candidates, k_hat), work, n_threads)
    return PointCloud(points=cloud.points.copy(), normals=normals), diags


def _denoise_k(cloud: PointCloud, params: EstimationParams) -> int:
    return min(params.denoise_k, len(cloud) - 1)


def denoise_point(cloud: PointCloud, index: NeighborIndex, t: int,
                  params: EstimationParams) -> np.ndarray:
    """Move one point to the main mode of its position candidates.

    Runs the single-point stages and gives what `denoise_all` gives for t.
    """
    k = _denoise_k(cloud, params)
    rel, nbr_d = _neighborhoods(cloud, index, np.array([t]), k)
    sigma = nbr_d[:, :_DENOISE_SIGMA_K].mean(axis=1)[0]
    if sigma == 0.0:
        return cloud.points[t].copy()
    cands = cand.sample_position_candidates(rel[0], params.sampling, point_rng(params.seed, t))
    cands.scores = cand.score_position_candidates(rel[0], cands, sigma)
    cands = cand.reject_position_candidates(cands, params.sampling.rejection_fraction_positions)
    result = position_mode(cands.positions, params.consensus, np.zeros(3), tau=sigma)
    return cloud.points[t] + result.value


def denoise_all(cloud: PointCloud, params: EstimationParams, n_threads: int = 1) -> PointCloud:
    """Denoise every point; positions move, normals (if any) are dropped.

    A point whose nearest neighbors all coincide with it (bandwidth 0)
    keeps its position.
    """
    index = build_index(cloud)
    k = _denoise_k(cloud, params)
    sp = params.sampling
    out = cloud.points.copy()

    def work(ts):
        rel, nbr_d = _neighborhoods(cloud, index, ts, k)
        sigma = nbr_d[:, :_DENOISE_SIGMA_K].mean(axis=1)
        live = sigma > 0.0
        rel, sigma, ts = rel[live], sigma[live], ts[live]
        pos = cand.sample_position_block(rel, point_rng(params.seed, ts), sp.n_candidates)
        scores = cand.score_position_block(rel, pos, sigma)
        keep = cand.rejection_order(scores, sp.rejection_fraction_positions)
        pos = np.take_along_axis(pos, keep[:, :, None], axis=1)
        x, _, _, _ = position_mode_batch(pos, params.consensus, np.zeros((len(ts), 3)), sigma)
        out[ts] = cloud.points[ts] + x

    _run_blocks(len(cloud), _block_size(sp.n_candidates, k), work, n_threads)
    return PointCloud(points=out)
