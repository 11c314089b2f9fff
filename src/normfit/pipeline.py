"""Whole-cloud orchestration: normal estimation and denoising.

Each query point runs the full three-stage chain (sample hypotheses,
score + reject, seek the main mode) with its own deterministic RNG stream
derived from (seed, point index), so outputs are identical for any thread
count or scheduling order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import candidates as cand
from .consensus import ConsensusParams, normal_mode, position_mode
from .geometry import NeighborIndex, PointCloud, build_index
from .noise import AdaptiveConfig, DEFAULT_NOISE_K, adaptive_k, cloud_noise_scale, rejection_enabled


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


def point_rng(seed: int, t: int) -> np.random.Generator:
    """Independent, schedule-free RNG stream for query point t."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, t])))


def estimate_normal(cloud: PointCloud, index: NeighborIndex, t: int, f_cloud: float,
                    params: EstimationParams, rng: np.random.Generator):
    """Estimate one point's normal; returns (unit normal, diagnostics)."""
    k_hat = min(adaptive_k(f_cloud, params.adaptive), len(cloud) - 1)
    nbr_idx, nbr_d = index.knn(t, k_hat)
    neighbors = cloud.points[nbr_idx]
    planes = cand.sample_normal_candidates(neighbors, params.sampling, rng)
    sigma = cand.rejection_sigma(nbr_d)
    planes.scores = cand.score_candidates(neighbors, planes, sigma)
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


def _run_per_point(n: int, worker, n_threads: int):
    if n_threads <= 1:
        for t in range(n):
            worker(t)
        return
    chunks = np.array_split(np.arange(n), n_threads * 4)

    def run_chunk(ts):
        for t in ts:
            worker(int(t))

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(run_chunk, chunks))


def estimate_all(cloud: PointCloud, params: EstimationParams, n_threads: int = 1):
    """Estimate normals for every point.

    Returns (cloud with normals attached, list of PointDiagnostics).
    The noise scale (and hence the neighborhood size) is computed once per
    cloud; per-point work is embarrassingly parallel and deterministic.
    """
    index = build_index(cloud)
    profile = cloud_noise_scale(cloud, index, min(params.noise_k, len(cloud) - 1))
    f = profile.cloud_f
    normals = np.empty_like(cloud.points)
    diags: list = [None] * len(cloud)

    def worker(t):
        rng = point_rng(params.seed, t)
        normals[t], diags[t] = estimate_normal(cloud, index, t, f, params, rng)

    _run_per_point(len(cloud), worker, n_threads)
    return PointCloud(points=cloud.points.copy(), normals=normals), diags


def denoise_point(cloud: PointCloud, index: NeighborIndex, t: int,
                  params: EstimationParams, rng: np.random.Generator) -> np.ndarray:
    """Move one point to the main mode of its position candidates."""
    k = min(params.denoise_k, len(cloud) - 1)
    nbr_idx, nbr_d = index.knn(t, k)
    neighbors = cloud.points[nbr_idx]
    sigma = float(nbr_d[: min(12, k)].mean())
    cands = cand.sample_position_candidates(neighbors, params.sampling, rng)
    cands.scores = cand.score_position_candidates(neighbors, cands, sigma)
    cands = cand.reject_position_candidates(cands, params.sampling.rejection_fraction_positions)
    result = position_mode(cands.positions, params.consensus, cloud.points[t], tau=sigma)
    return result.value


def denoise_all(cloud: PointCloud, params: EstimationParams, n_threads: int = 1) -> PointCloud:
    """Denoise every point; positions move, normals (if any) are dropped."""
    index = build_index(cloud)
    out = np.empty_like(cloud.points)

    def worker(t):
        rng = point_rng(params.seed, t)
        out[t] = denoise_point(cloud, index, t, params, rng)

    _run_per_point(len(cloud), worker, n_threads)
    return PointCloud(points=out)
