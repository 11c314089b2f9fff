"""The benchmark's workloads: inputs made from a seed, the timed path, the checks.

Every pass is the path the ``normfit`` CLI takes: read an XYZ file, run one
library call, write an XYZ file.  The library only ever sees the XYZ files;
the analytic ground truth stays in the benchmark for the accuracy checks.

A run has two kinds of input.  The check clouds have the full size of the
workload and run once each; the accuracy metrics and checks come from them.
The timing clouds are small, so that a pass takes well under a second and a
run holds many passes; the throughput metrics come from them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from normfit import io, metrics, pipeline
from normfit.geometry import PointCloud
from normfit.pipeline import EstimationParams
from normfit.synth import NoiseSpec, ShapeSpec, add_noise, gen_shape

PCA_K = 64             # neighbourhood of the sphere-pca-io PCA pass
REFERENCE_PCA_K = 256  # PCA baseline that normfit must beat on the wedges
DENOISE_EVAL_K = 16    # PCA neighbourhood used to judge the flatness of a denoised plane
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    call: str              # "estimate", "denoise" or "pca"
    shape: str
    n_points: int          # size of each timing cloud
    noise_pct: float       # Gaussian noise, percent of the bounding-box diagonal
    seeds: tuple           # (shape, noise, estimation) seeds of the first check cloud at --seed 0
    clouds: int            # distinct timing clouds per run
    check_points: int      # size of a check cloud; the accuracy metrics come from these
    check_clouds: int      # check clouds per run; accuracy is their mean

    def cloud_seeds(self, seed: int, j: int) -> tuple:
        """Seeds of cloud j in a run: the check clouds come first, then the
        timing clouds.  --seed 0, cloud 0 gives `self.seeds`."""
        offset = 10 * (seed * (self.check_clouds + self.clouds) + j)
        return tuple(s + offset for s in self.seeds)


WORKLOADS = {w.name: w for w in (
    Workload("wedge-clean-k32",
             "clean 90-degree wedge, k_hat=32: fixed per-point costs (plane-fit eigen, mode "
             "solve, per-point RNG and k-NN) dominate",
             "estimate", "wedge", 1000, 0.0, (1, 2, 3), 4, 2000, 2),
    Workload("wedge-noisy-k128",
             "wedge with 1% noise, k_hat=128: the subset draw and M x k scoring, which grow "
             "with k_hat, dominate",
             "estimate", "wedge", 200, 1.0, (1, 2, 3), 4, 2000, 2),
    Workload("plane-denoise",
             "noisy plane denoised: the position half of the shared chain (centroid "
             "candidates, mean shift), no plane fits",
             "denoise", "plane", 200, 1.0, (4, 5, 6), 4, 4000, 2),
    Workload("sphere-pca-io",
             "sphere through read, PCA (k=64) and write: whole-cloud k-NN, batched eigen and "
             "the XYZ parsers; the 50k-point check pass puts the neighbour block above L3",
             "pca", "sphere", 5000, 0.5, (7, 8, 9), 2, 50000, 1),
)}


@dataclass
class Cloud:
    """One generated input: the file handed to normfit and the ground truth."""

    path: str
    spec: ShapeSpec
    clean: PointCloud      # analytic positions and normals
    noisy: PointCloud      # what was written to `path`, normals dropped
    est_seed: int


def make_cloud(wl: Workload, seed: int, j: int, n_points: int, workdir: str) -> Cloud:
    """Generate cloud j of a run (see `Workload.cloud_seeds`) and write it as XYZ."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    shape_seed, noise_seed, est_seed = wl.cloud_seeds(seed, j)
    spec = ShapeSpec(kind=wl.shape, n_points=n_points, seed=shape_seed)
    clean = gen_shape(spec)
    noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=wl.noise_pct, seed=noise_seed))
    path = os.path.join(workdir, f"{wl.name}-{j}.xyz")
    io.write_cloud(PointCloud(points=noisy.points), path)
    return Cloud(path, spec, clean, noisy, est_seed)


def make_inputs(wl: Workload, seed: int, workdir: str) -> tuple[list, list]:
    """A run's inputs: (check clouds, timing clouds)."""
    checks = [make_cloud(wl, seed, j, wl.check_points, workdir)
              for j in range(wl.check_clouds)]
    return checks, [make_cloud(wl, seed, wl.check_clouds + j, wl.n_points, workdir)
                    for j in range(wl.clouds)]


def run_path(wl: Workload, src: str, dst: str, n_threads: int, est_seed: int) -> PointCloud:
    """The timed path: read -> one library call -> write.

    Library functions are looked up on their modules at call time so that a
    tracer can wrap them.
    """
    cloud = io.read_cloud(src)
    if wl.call == "estimate":
        out, _ = pipeline.estimate_all(cloud, EstimationParams(seed=est_seed), n_threads)
    elif wl.call == "denoise":
        out = pipeline.denoise_all(cloud, EstimationParams(seed=est_seed), n_threads)
    else:
        out = metrics.pca_baseline(cloud, PCA_K)
    io.write_cloud(out, dst)
    return out


def failed_points(wl: Workload, out: PointCloud) -> int:
    """Points whose output is non-finite or whose normal is not unit length."""
    if wl.call == "denoise":
        bad = ~np.isfinite(out.points).all(axis=1)
    else:
        n = out.normals
        bad = ~np.isfinite(n).all(axis=1)
        bad |= ~(np.abs(np.linalg.norm(n, axis=1) - 1.0) <= UNIT_TOL)
    return int(np.count_nonzero(bad))


def evaluate(wl: Workload, cloud: Cloud, out: PointCloud) -> tuple[dict, dict]:
    """Accuracy of one output against the analytic surface, and its checks.

    Returns (values, checks): values are named as the metrics they feed,
    checks map a description to pass/fail.
    """
    values, checks = {}, {}
    if wl.call == "denoise":
        values["chamfer_ratio"] = (metrics.chamfer(out, cloud.clean)
                                   / metrics.chamfer(cloud.noisy, cloud.clean))
        values["p2s_ratio"] = metrics.p2s(out, cloud.spec) / metrics.p2s(cloud.noisy, cloud.spec)
        gt = np.broadcast_to(cloud.clean.normals[0], out.points.shape)
        values["rms_deg"] = metrics.rms_angle(metrics.pca_baseline(out, DENOISE_EVAL_K).normals, gt)
        noisy_rms = metrics.rms_angle(metrics.pca_baseline(cloud.noisy, DENOISE_EVAL_K).normals, gt)
        checks["chamfer_ratio < 1"] = values["chamfer_ratio"] < 1.0
        checks["p2s_ratio < 1"] = values["p2s_ratio"] < 1.0
        checks["denoised plane is flatter than the input"] = values["rms_deg"] < noisy_rms
        return values, checks
    values["rms_deg"] = metrics.rms_angle(out.normals, cloud.clean.normals)
    checks["output points equal the input points"] = np.array_equal(out.points, cloud.noisy.points)
    if wl.call == "estimate":
        ref = metrics.pca_baseline(cloud.noisy, REFERENCE_PCA_K)
        values["pca256_rms_deg"] = metrics.rms_angle(ref.normals, cloud.clean.normals)
        checks["rms_deg < PCA(k=256) rms_deg"] = values["rms_deg"] < values["pca256_rms_deg"]
    return values, checks
