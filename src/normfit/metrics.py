"""Evaluation metrics for unoriented normals and denoised positions,
plus the classic PCA baseline estimator, which streams the cloud in the 2 MB
`geometry.row_chunks` of a neighbourhood gather (`geometry.neighborhood_fits`),
so its peak memory is O(N) plus 2 MB whatever k."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, angles_unoriented, build_index, neighborhood_fits
from .synth import ShapeSpec, surface_distance

RMS_TAU_LEVELS = (10.0, 15.0, 20.0)
PGP_LEVELS = (5.0, 10.0, 15.0, 20.0, 25.0)

# (CSV column, EvalReport attribute, level) of every value; unmeasured ones are None
FIELDS = (("rms", "rms_deg", None),
          *((f"rms{t:g}", "rms_tau", t) for t in RMS_TAU_LEVELS),
          *((f"pgp{a:g}", "pgp", a) for a in PGP_LEVELS),
          ("cd", "cd", None), ("p2s", "p2s", None))
CSV_HEADER = ",".join(name for name, _, _ in FIELDS)


@dataclass
class EvalReport:
    rms_deg: Optional[float] = None
    rms_tau: dict = field(default_factory=dict)
    pgp: dict = field(default_factory=dict)
    cd: Optional[float] = None
    p2s: Optional[float] = None

    def _values(self):
        for name, attr, level in FIELDS:
            value = getattr(self, attr)
            yield name, value if level is None else value.get(level)

    def as_text(self) -> str:
        return "\n".join(f"{name} = {v:.6g}" for name, v in self._values() if v is not None)

    def as_csv_row(self) -> str:
        return ",".join("" if v is None else f"{v:.6g}" for _, v in self._values())


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
