"""Evaluation metrics for unoriented normals and denoised positions,
plus the classic PCA baseline estimator, which streams the cloud in row
chunks of a 2 MB neighbourhood gather (`geometry.neighborhood_fits`), so its
peak memory is O(N) plus 2 MB whatever k."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, angles_unoriented, build_index, neighborhood_fits
from .synth import ShapeSpec, surface_distance

RMS_TAU_LEVELS = (10.0, 15.0, 20.0)
PGP_LEVELS = (5.0, 10.0, 15.0, 20.0, 25.0)

CSV_HEADER = "rms,rms10,rms15,rms20,pgp5,pgp10,pgp15,pgp20,pgp25,cd,p2s"


@dataclass
class EvalReport:
    rms_deg: float
    rms_tau: dict
    pgp: dict
    cd: Optional[float] = None
    p2s: Optional[float] = None

    def as_text(self) -> str:
        lines = [f"rms = {self.rms_deg:.6g}"]
        for tau, v in sorted(self.rms_tau.items()):
            lines.append(f"rms{tau:g} = {v:.6g}")
        for a, v in sorted(self.pgp.items()):
            lines.append(f"pgp{a:g} = {v:.6g}")
        if self.cd is not None:
            lines.append(f"cd = {self.cd:.6g}")
        if self.p2s is not None:
            lines.append(f"p2s = {self.p2s:.6g}")
        return "\n".join(lines)

    def as_csv_row(self) -> str:
        cells = [f"{self.rms_deg:.6g}"]
        cells += [f"{self.rms_tau[t]:.6g}" for t in RMS_TAU_LEVELS]
        cells += [f"{self.pgp[a]:.6g}" for a in PGP_LEVELS]
        cells.append("" if self.cd is None else f"{self.cd:.6g}")
        cells.append("" if self.p2s is None else f"{self.p2s:.6g}")
        return ",".join(cells)


def _angle_errors(est: np.ndarray, gt: np.ndarray) -> np.ndarray:
    est = np.asarray(est, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if est.shape != gt.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {gt.shape}")
    return angles_unoriented(est, gt)


def rms_angle(est, gt) -> float:
    """Root-mean-square unoriented angle error in degrees."""
    err = _angle_errors(est, gt)
    return float(np.sqrt((err**2).mean()))


def rms_tau(est, gt, tau_deg: float) -> float:
    """RMS where every error above tau is counted as 90 degrees."""
    err = _angle_errors(est, gt)
    capped = np.where(err > tau_deg, 90.0, err)
    return float(np.sqrt((capped**2).mean()))


def pgp(est, gt, alpha_deg: float) -> float:
    """Fraction of points with error strictly below alpha degrees."""
    err = _angle_errors(est, gt)
    return float((err < alpha_deg).mean())


def chamfer(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean of squared nearest-neighbor distances."""
    ta = cKDTree(a.points)
    tb = cKDTree(b.points)
    d_ab, _ = tb.query(a.points, k=1)
    d_ba, _ = ta.query(b.points, k=1)
    return 0.5 * (float((d_ab**2).mean()) + float((d_ba**2).mean()))


def p2s(points: PointCloud, surface: ShapeSpec) -> float:
    """Mean absolute distance from points to the clean analytic surface."""
    return float(surface_distance(points.points, surface).mean())


def evaluate_normals(est: PointCloud, gt: PointCloud,
                     cd: Optional[float] = None, p2s_val: Optional[float] = None) -> EvalReport:
    if est.normals is None or gt.normals is None:
        raise ValueError("both clouds must carry normals")
    return EvalReport(
        rms_deg=rms_angle(est.normals, gt.normals),
        rms_tau={t: rms_tau(est.normals, gt.normals, t) for t in RMS_TAU_LEVELS},
        pgp={a: pgp(est.normals, gt.normals, a) for a in PGP_LEVELS},
        cd=cd,
        p2s=p2s_val,
    )


def pca_baseline(cloud: PointCloud, k: int) -> PointCloud:
    """Per-point smallest-eigenvector normal of the k-NN covariance
    (neighbors plus the point itself), sign-canonicalized."""
    normals, _ = neighborhood_fits(build_index(cloud), k)
    return PointCloud(points=cloud.points.copy(), normals=normals)
