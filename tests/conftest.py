"""Shared fixtures and oracles.

The oracles are small reference functions only the tests need: thin
single-item views of the library's batched kernels (`fit_plane`,
`score_candidate`, `mean_mode_normal`, `point_noise_level`) and
independent brute-force references (`grid_min_normal`, `brute_force_knn`).
"""

from dataclasses import dataclass

import numpy as np
import pytest

from normfit.candidates import CandidatePlanes, score_candidates
from normfit.consensus import _weighted_principal
from normfit.errors import EmptyCandidates, NormfitError
from normfit.geometry import as_points, fit_planes_batch
from normfit.noise import DEFAULT_NOISE_K, _noise_levels


def random_units(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sphere_grid(step_deg):
    """Directions covering the sphere on a (theta, phi) lattice."""
    thetas = np.radians(np.arange(0.0, 180.0 + step_deg / 2, step_deg))
    dirs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for th in thetas[1:-1]:
        phis = np.radians(np.arange(0.0, 360.0, step_deg))
        st, ct = np.sin(th), np.cos(th)
        dirs.append(np.stack([st * np.cos(phis), st * np.sin(phis),
                              np.full(len(phis), ct)], axis=1))
    return np.vstack([np.atleast_2d(d) for d in dirs])


def grid_min_normal(candidates, tau, step_deg):
    """Brute-force ccn_loss minimizer over a sphere grid (independent oracle)."""
    grid = sphere_grid(step_deg)
    sin2 = 1.0 - (grid @ candidates.T) ** 2
    losses = -np.exp(-sin2 / tau**2).sum(axis=1)
    return grid[int(np.argmin(losses))], float(losses.min())


def brute_force_knn(points, query_idx, k):
    """O(N) reference k-NN with the (distance, index) tie rule."""
    d = np.linalg.norm(points - points[query_idx], axis=1)
    idx = np.arange(len(points))
    keep = idx != query_idx
    d, idx = d[keep], idx[keep]
    order = np.lexsort((idx, d))
    return idx[order][:k], d[order][:k]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@dataclass(frozen=True)
class Plane:
    """A plane given by a unit normal and a point on the plane."""

    normal: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=np.float64))
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=np.float64))
        if abs(np.linalg.norm(self.normal) - 1.0) > 1e-9:
            raise ValueError("plane normal must be unit length")


class DegenerateSample(NormfitError):
    """Sampled points are collinear or coincident; no plane can be fit."""


def fit_plane(points) -> Plane:
    """Total-least-squares plane through >= 3 points: `fit_planes_batch` on
    one set.  Raises DegenerateSample on collinear or coincident points."""
    pts = as_points(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a plane")
    normals, anchors, degenerate = fit_planes_batch(pts[None])
    if degenerate[0]:
        raise DegenerateSample("points are collinear or coincident")
    return Plane(normal=normals[0], anchor=anchors[0])


def point_plane_distance(p, plane: Plane) -> float:
    p = np.asarray(p, dtype=np.float64).reshape(3)
    return float(abs((p - plane.anchor) @ plane.normal))


def score_candidate(neighbors, plane: Plane, sigma: float) -> float:
    """Score of a single plane hypothesis through `score_candidates`."""
    single = CandidatePlanes(normals=plane.normal[None, :], anchors=plane.anchor[None, :])
    return float(score_candidates(neighbors, single, sigma)[0])


def mean_mode_normal(candidates) -> np.ndarray:
    """Sign-invariant least-squares direction: the exact minimizer of
    sum ||z x m||^2 on the unit sphere (principal eigenvector of sum m m^T)."""
    m = as_points(candidates)
    if len(m) == 0:
        raise EmptyCandidates("mean_mode_normal needs at least one candidate")
    return _weighted_principal(m[None], np.ones((1, len(m))))[0]


def point_noise_level(cloud, index, t: int, k_f: int = DEFAULT_NOISE_K) -> float:
    """Surface variation of point t's k_f neighbors plus the point itself."""
    idx, _ = index.knn(t, k_f)
    return float(_noise_levels(cloud.points, idx[None], np.array([t]))[0])
