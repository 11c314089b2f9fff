"""Whole-cloud orchestration: normal estimation and denoising.

Points run the three-stage chain (sample hypotheses, score + reject, seek the
main mode) in blocks.  range(N) is cut into one equal contiguous share for each
of the w = min(n_threads, usable CPUs, N) workers, and each share into blocks of
P = min(share, 2**18 // (3 * s * M)) points for subsets of s points: one block
per share on small clouds, and on large ones as many points as keep a block's
(P * M, s, 3) subset gather near 2 MB.  A block's neighborhoods, the PCA
fallback's too, are one `NeighborIndex.neighborhoods` gather, and the
neighbours relative to their point one contiguous (P, k, 3) array built by one
2-D subtraction per coordinate (`_relative`); its (P, k, M)
plane and (P, M, k) position scores are computed in row chunks of
2**18 // (M * k) points, so each kernel matrix also stays near 2 MB, and each
point's survivors are one `np.take` of the flattened (P * M, 3) candidates
(`_survivors`).  A block copies its rows out by a boolean mask only when one
of them takes the PCA fallback or has denoising bandwidth 0.  The noise
profile streams in 2 MB row chunks too.  The caller runs the first share and
the forked workers of one persistent pool the others, each over the caller's
index, pickled as its points, whose tree the worker builds.  Every random draw
is a pure function of (seed, point index, candidate slot, attempt), and every
stage computes each point's rows independently of the others, so outputs are
identical for any worker count and block size.  `estimate_normal` and
`denoise_point` take the cloud's index, the one handle on its points, run the
same block function on a block of one and give that point's result byte for
byte.  One rule, `geometry.row_chunks`, cuts the blocks and every chunk.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import candidates as cand
from .candidates import point_rng
from .consensus import ConsensusParams, normal_mode_batch, position_mode_batch
# unused here: perfbench/tracer.py probes these two names on this module
from .consensus import normal_mode, position_mode  # noqa: F401
from .errors import TooFewNeighbors
from .geometry import NeighborIndex, PointCloud, build_index, plane_fit, row_chunks
from .noise import AdaptiveConfig, DEFAULT_NOISE_K, adaptive_k, cloud_noise_scale, rejection_enabled

# neighbors whose mean distance sets the denoising bandwidth
_DENOISE_SIGMA_K = 12
# the worker pool of n_threads >= 2: (executor, workers, pid of the process that made it)
_POOL = None
_POOL_LOCK = threading.Lock()


@dataclass(frozen=True)
class EstimationParams:
    adaptive: AdaptiveConfig = AdaptiveConfig()
    sampling: cand.SamplingParams = cand.SamplingParams()
    consensus: ConsensusParams = ConsensusParams()
    seed: int = 0
    denoise_k: int = 64
    noise_k: int = DEFAULT_NOISE_K

    def __post_init__(self):
        if self.noise_k < 1:
            raise ValueError("noise_k must be >= 1")
        if self.denoise_k < cand.POSITION_SUBSET:
            raise ValueError(f"denoise_k must be >= {cand.POSITION_SUBSET}")


@dataclass
class RunReport:
    """Per-point counters of an `estimate_all` run: one (N,) array per field."""

    k_hat: int                     # neighborhood size, shared by every point
    survivors: np.ndarray          # candidates left after rejection; 0 on fallback
    iterations: np.ndarray         # mode-solver iterations
    converged: np.ndarray          # bool: the mode solver met its tolerance
    loss: np.ndarray               # final consensus loss; 0 on fallback
    fallback: np.ndarray           # bool: PCA normal, every resampling attempt stayed degenerate


def _require_threads(n_threads: int) -> None:
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")


def _require_points(n: int, need: int) -> None:
    """Raise TooFewNeighbors unless each of n points has at least `need` neighbors."""
    if n <= need:
        raise TooFewNeighbors(f"need more than {need} points, got {n}")


def _survivors(score, nbrs: np.ndarray, cands: np.ndarray, fraction: float,
               *per_point) -> np.ndarray:
    """Survivors (P, M', 3) of cands (P, M, 3): each row best first by score(nbrs, cands,
    *per_point) -> (P, M), less its lowest `fraction`.  Scored in the `row_chunks` of a (rows,
    k, M) kernel matrix, 2 MB each; no rows give (0, M', 3)."""
    rows, m = cands.shape[:2]
    scores = np.empty((rows, m))
    for part in row_chunks(rows, m * nbrs.shape[1]):
        scores[part] = score(nbrs[part], cands[part], *(a[part] for a in per_point))
    keep = cand.rejection_order(scores, fraction)
    keep += (m * np.arange(rows))[:, None]     # rows of the flattened (P * M, 3) candidates
    return np.take(cands.reshape(-1, 3), keep, axis=0)


def _relative(pts: np.ndarray) -> np.ndarray:
    """The neighbours of a (P, k + 1, 3) `neighborhoods` gather relative to their point, as
    one contiguous (P, k, 3) array: the bytes of pts[:, :k] - pts[:, k:], one 2-D subtraction
    per coordinate, which numpy runs faster than one over the strided (P, k, 3) view."""
    k = pts.shape[1] - 1
    rel = np.empty((len(pts), k, 3))
    for c in range(3):
        np.subtract(pts[:, :k, c], pts[:, k:, c], out=rel[:, :, c])
    return rel


def _exit_with(parent: int) -> None:
    """Pool initializer: a worker exits once the process that made the pool is gone, also
    when a signal killed it (no exit handler ran).  Not PR_SET_PDEATHSIG: that fires when
    the forking thread exits, and any thread of the caller may be the one that forks."""
    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def _pool(workers: int, broken=None):
    """The pool of at least `workers` processes, replaced when too small, `broken` or inherited
    by a fork.  Workers are forked: spawned ones re-import __main__, killing unguarded scripts."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] is broken or _POOL[1] < workers or _POOL[2] != os.getpid():
            import multiprocessing.util    # here, so that one-thread runs never import it
            from concurrent.futures import ProcessPoolExecutor
            if _POOL is not None and _POOL[2] == os.getpid():
                _POOL[0].shutdown(wait=False)
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_exit_with, initargs=(os.getpid(),))
            # a multiprocessing child's exit runs this before its queues close (priority 10)
            multiprocessing.util.Finalize(pool, pool.shutdown, exitpriority=20)
            _POOL = (pool, workers, os.getpid())
        return _POOL[0]


def _share(block_fn, index: NeighborIndex, rows: np.ndarray, row_elements: int, *args) -> list:
    """block_fn(index, ts, *args) on each `row_chunks(len(rows), row_elements)` block ts."""
    return [block_fn(index, rows[part], *args) for part in row_chunks(len(rows), row_elements)]


def _usable_cpus() -> int:
    """The CPUs this process may run on; all of them where the OS has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # sched_getaffinity exists on Linux only
        return os.cpu_count() or 1


def _run_blocks(block_fn, index: NeighborIndex, row_elements: int, n_threads: int, *args) -> list:
    """block_fn(index, ts, *args) on each block ts, in order, over w = min(n_threads,
    usable CPUs, N) equal contiguous shares of range(N) cut into `_share` blocks: the caller
    runs the first share, the pool the others (rerun once if it breaks)."""
    w = 1 if n_threads == 1 else min(n_threads, _usable_cpus(), index.n_points)
    mine, *theirs = np.array_split(np.arange(index.n_points), w)
    if not theirs:
        return _share(block_fn, index, mine, row_elements, *args)
    from concurrent.futures.process import BrokenProcessPool
    pool = done = None
    for retry in (False, True):
        pool = _pool(w - 1, broken=pool)
        try:
            futures = [pool.submit(_share, block_fn, index, rows, row_elements, *args)
                       for rows in theirs]
            if done is None:
                done = _share(block_fn, index, mine, row_elements, *args)
            return done + [rows for f in futures for rows in f.result()]
        except BrokenProcessPool:
            if retry:
                raise


def _k_hat(n: int, f_cloud: float, params: EstimationParams) -> int:
    return min(adaptive_k(f_cloud, params.adaptive), n - 1)


def _estimate_block(index: NeighborIndex, ts: np.ndarray, k_hat: int, reject: bool,
                    params: EstimationParams):
    """Rows of block ts: (normals (P, 3), then the `RunReport` arrays).

    A point whose candidate slots stay degenerate after every resampling
    attempt gets the PCA normal of its neighborhood plus itself.
    """
    sp = params.sampling
    pts, nbr_d = index.neighborhoods(k_hat, ts)
    rel = _relative(pts)
    nrm, anc, failed = cand.sample_plane_block(rel, point_rng(params.seed, ts), sp)
    normals = np.empty((len(ts), 3))
    survivors = np.zeros(len(ts), dtype=np.int64)
    iterations = np.zeros(len(ts), dtype=np.int64)
    converged = np.zeros(len(ts), dtype=bool)
    loss = np.zeros(len(ts))
    ok = slice(None)        # every row; copied out by the mask only when one failed
    if failed.any():
        normals[failed] = plane_fit(pts[failed])[0]     # pca_baseline's normal at k_hat
        ok = ~failed
        rel, nrm, anc, nbr_d = rel[ok], nrm[ok], anc[ok], nbr_d[ok]
    if len(rel):
        nrm = _survivors(cand.score_plane_block, rel, nrm,
                         sp.rejection_fraction_normals if reject else 0.0, anc,
                         cand.rejection_sigma(nbr_d))
        normals[ok], loss[ok], iterations[ok], converged[ok] = normal_mode_batch(
            nrm, params.consensus, nrm[:, 0])    # the best survivor; rejection off keeps all M
        survivors[ok] = nrm.shape[1]
    return normals, survivors, iterations, converged, loss, failed


def estimate_normal(index: NeighborIndex, t: int, f_cloud: float, params: EstimationParams):
    """Estimate the normal of indexed point t; returns (unit normal, RunReport of that point).

    The block chain on a block of one: gives what `estimate_all` gives for
    t, PCA fallback included.
    """
    _require_points(index.n_points, params.sampling.k_s)
    k_hat = _k_hat(index.n_points, f_cloud, params)
    normals, *cols = _estimate_block(index, np.array([t]), k_hat,
                                     rejection_enabled(f_cloud, params.adaptive), params)
    return normals[0], RunReport(k_hat, *cols)


def estimate_all(cloud: PointCloud, params: EstimationParams, n_threads: int = 1):
    """Estimate normals for every point.

    Returns (cloud with normals attached, RunReport).  The noise scale (and
    hence the neighborhood size) is computed once per cloud.  A point whose
    candidate slots stay degenerate after every resampling attempt gets the
    PCA normal of its neighborhood plus itself and is flagged `fallback`.
    Raises TooFewNeighbors if the cloud has no more than k_s points, and
    ValueError if n_threads is below 1.
    """
    _require_threads(n_threads)
    _require_points(len(cloud), params.sampling.k_s)
    index = build_index(cloud)
    f = cloud_noise_scale(index, params.noise_k).cloud_f
    k_hat = _k_hat(len(cloud), f, params)
    reject = rejection_enabled(f, params.adaptive)
    sp = params.sampling
    rows = _run_blocks(_estimate_block, index, 3 * sp.k_s * sp.n_candidates, n_threads,
                       k_hat, reject, params)
    normals, *cols = (np.concatenate(c) for c in zip(*rows))
    return PointCloud(points=cloud.points.copy(), normals=normals), RunReport(k_hat, *cols)


def _denoise_k(n: int, params: EstimationParams) -> int:
    _require_points(n, cand.POSITION_SUBSET)
    return min(params.denoise_k, n - 1)


def _denoise_block(index: NeighborIndex, ts: np.ndarray, k: int,
                   params: EstimationParams) -> np.ndarray:
    """Denoised positions (P, 3) of block ts.

    A point whose nearest neighbors all coincide with it (bandwidth 0)
    keeps its position.
    """
    sp = params.sampling
    pts, nbr_d = index.neighborhoods(k, ts)
    rel = _relative(pts)
    sigma = nbr_d[:, :_DENOISE_SIGMA_K].mean(axis=1)
    out = pts[:, k].copy()
    live = sigma > 0.0
    if not live.all():      # copied out by the mask only when a row has bandwidth 0
        rel, sigma, ts = rel[live], sigma[live], ts[live]
    pos = cand.sample_position_block(rel, point_rng(params.seed, ts), sp.n_candidates)
    pos = _survivors(cand.score_position_block, rel, pos, sp.rejection_fraction_positions, sigma)
    x, _, _, _ = position_mode_batch(pos, params.consensus, np.zeros((len(pos), 3)), sigma)
    out[live] += x
    return out


def denoise_point(index: NeighborIndex, t: int, params: EstimationParams) -> np.ndarray:
    """Move indexed point t to the main mode of its position candidates.

    The block chain on a block of one: gives what `denoise_all` gives for t.
    """
    return _denoise_block(index, np.array([t]), _denoise_k(index.n_points, params), params)[0]


def denoise_all(cloud: PointCloud, params: EstimationParams, n_threads: int = 1) -> PointCloud:
    """Denoise every point; positions move, normals (if any) are dropped.

    A point whose nearest neighbors all coincide with it (bandwidth 0)
    keeps its position.  Raises TooFewNeighbors if the cloud has no more
    than 4 points, and ValueError if n_threads is below 1.
    """
    _require_threads(n_threads)
    k = _denoise_k(len(cloud), params)
    index = build_index(cloud)
    sp = params.sampling
    blocks = _run_blocks(_denoise_block, index, 3 * cand.POSITION_SUBSET * sp.n_candidates,
                         n_threads, k, params)
    return PointCloud(points=np.concatenate(blocks))
