"""Noise-scale estimation and the adaptive neighborhood size lookup.

The per-point noise level is the surface variation of a small covariance
neighborhood: lam1 / (lam1 + lam2 + lam3), which is 0 on an exact plane and
1/3 for isotropic scatter.  The cloud-level mean selects one of four
neighborhood sizes and decides whether low-score candidates get rejected.
The profile takes the cloud's k-NN index, which holds its points, and streams
them in the 2 MB `geometry.row_chunks` of a neighbourhood gather
(`geometry.neighborhood_fits`), so its peak memory is O(N) plus 2 MB.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .geometry import NeighborIndex, neighborhood_fits

# size of the covariance neighborhood used for noise estimation; fixed and
# independent of the adaptive size to avoid circularity
DEFAULT_NOISE_K = 64


def _strictly_increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class AdaptiveConfig:
    """Thresholds on the cloud noise level and the sizes they select.

    `config_key` names the config-file key of each element: (pattern, first index).
    """

    thresholds: tuple[float, ...] = field(default=(0.0, 0.02, 0.14, 0.16, 0.3),
                                          metadata={"config_key": ("adaptive_l{}", 0)})
    sizes: tuple[int, ...] = field(default=(32, 128, 256, 450),
                                   metadata={"config_key": ("adaptive_k{}", 1)})
    rejection_interval_max: int = 2

    def __post_init__(self):
        if not _strictly_increasing(self.thresholds):
            raise ValueError("thresholds must be strictly increasing")
        if not _strictly_increasing(self.sizes):
            raise ValueError("sizes must be strictly increasing")
        if len(self.thresholds) != len(self.sizes) + 1:
            raise ValueError("need one more threshold than sizes")
        if not 0 <= self.rejection_interval_max < len(self.thresholds):
            raise ValueError("rejection_interval_max must index a threshold")


@dataclass
class NoiseProfile:
    per_point_f: np.ndarray
    cloud_f: float


def cloud_noise_scale(index: NeighborIndex, k_f: int = DEFAULT_NOISE_K) -> NoiseProfile:
    """Per-point noise levels of the indexed points and their mean.

    Each point's level is the surface variation of its k_f neighbors plus
    the point itself; a set whose eigenvalues all vanish (coincident points)
    gets 0.
    """
    _, w = neighborhood_fits(index, min(k_f, index.n_points - 1))
    total = w.sum(axis=1)
    f = np.where(total > 0.0, w[:, 0] / np.where(total > 0.0, total, 1.0), 0.0)
    return NoiseProfile(per_point_f=f, cloud_f=float(f.mean()))


def adaptive_k(f: float, cfg: AdaptiveConfig = AdaptiveConfig()) -> int:
    """Neighborhood size for a cloud noise level f (half-open intervals).

    f below the first threshold clamps to the smallest size, and f at or above
    the last (NaN too) to the largest, so the size never falls as f grows.
    """
    if f < 0:
        raise ValueError("noise level must be nonnegative")
    return cfg.sizes[min(max(bisect_right(cfg.thresholds, f) - 1, 0), len(cfg.sizes) - 1)]


def rejection_enabled(f: float, cfg: AdaptiveConfig = AdaptiveConfig()) -> bool:
    """Candidate rejection only helps at low noise: first two intervals."""
    if f < 0:
        raise ValueError("noise level must be nonnegative")
    return f < cfg.thresholds[cfg.rejection_interval_max]
