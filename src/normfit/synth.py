"""Synthetic benchmark shapes with analytic ground-truth normals.

All shapes are centered at the origin.  `extent` sets the characteristic
size: plane side length, sphere diameter, cylinder height (radius is half),
cube side length, wedge face width.  Points on sharp edges carry the normal
of the face they were sampled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud

SHAPE_KINDS = ("plane", "sphere", "cylinder", "cube", "wedge")


@dataclass(frozen=True)
class ShapeSpec:
    kind: str
    n_points: int = 1000
    extent: float = 1.0
    seed: int = 0
    dihedral_deg: float = 90.0     # wedge only

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.n_points < 10:
            raise ValueError("n_points must be >= 10")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        if not 0.0 < self.dihedral_deg < 180.0:
            raise ValueError("dihedral_deg must lie in (0, 180)")


@dataclass(frozen=True)
class NoiseSpec:
    std_pct_bbox_diag: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.std_pct_bbox_diag < 0:
            raise ValueError("noise std must be nonnegative")


def _gen_plane(n, e, rng):
    pts = np.zeros((n, 3))
    pts[:, :2] = rng.uniform(-e / 2, e / 2, (n, 2))
    normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    return pts, normals


def _gen_sphere(n, e, rng):
    r = e / 2
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return r * dirs, dirs


def _gen_cylinder(n, e, rng):
    # lateral surface only, axis = z, radius = extent / 2, height = extent
    r = e / 2
    theta = rng.uniform(0, 2 * np.pi, n)
    z = rng.uniform(-e / 2, e / 2, n)
    normals = np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    return pts, normals


def _gen_cube(n, e, rng):
    h = e / 2
    face_axis = rng.integers(0, 3, n)
    face_sign = np.where(rng.integers(0, 2, n) == 0, -1.0, 1.0)
    uv = rng.uniform(-h, h, (n, 2))
    pts = np.empty((n, 3))
    normals = np.zeros((n, 3))
    for axis in range(3):
        mask = face_axis == axis
        others = [a for a in range(3) if a != axis]
        pts[mask, axis] = face_sign[mask] * h
        pts[np.ix_(mask, others)] = uv[mask]
        normals[mask, axis] = face_sign[mask]
    return pts, normals


def _gen_wedge(n, e, rng, dihedral_deg):
    # two half-planes sharing the x-axis; face A spans +y at z=0, face B is
    # face A rotated about x by the dihedral angle
    beta = math.radians(dihedral_deg)
    n_a = n // 2
    n_b = n - n_a
    x = rng.uniform(-e / 2, e / 2, n)
    s = rng.uniform(0, e / 2, n)
    pts = np.empty((n, 3))
    normals = np.empty((n, 3))
    pts[:n_a] = np.stack([x[:n_a], s[:n_a], np.zeros(n_a)], axis=1)
    normals[:n_a] = [0.0, 0.0, 1.0]
    pts[n_a:] = np.stack([x[n_a:], s[n_a:] * math.cos(beta), s[n_a:] * math.sin(beta)], axis=1)
    normals[n_a:] = [0.0, -math.sin(beta), math.cos(beta)]
    return pts, normals


def gen_shape(spec: ShapeSpec) -> PointCloud:
    """Sample a shape uniformly and attach analytic unit normals."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, 0x5AFE])))
    n, e = spec.n_points, spec.extent
    if spec.kind == "plane":
        pts, normals = _gen_plane(n, e, rng)
    elif spec.kind == "sphere":
        pts, normals = _gen_sphere(n, e, rng)
    elif spec.kind == "cylinder":
        pts, normals = _gen_cylinder(n, e, rng)
    elif spec.kind == "cube":
        pts, normals = _gen_cube(n, e, rng)
    else:
        pts, normals = _gen_wedge(n, e, rng, spec.dihedral_deg)
    return PointCloud(points=pts, normals=normals)


def add_noise(cloud: PointCloud, spec: NoiseSpec) -> PointCloud:
    """Perturb positions with isotropic Gaussian noise scaled by the
    bounding-box diagonal; ground-truth normals carry over unchanged."""
    if spec.std_pct_bbox_diag == 0.0:
        return PointCloud(points=cloud.points.copy(),
                          normals=None if cloud.normals is None else cloud.normals.copy())
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, 0x4015E])))
    std = spec.std_pct_bbox_diag / 100.0 * cloud.bbox_diagonal()
    pts = cloud.points + rng.normal(0.0, std, cloud.points.shape)
    return PointCloud(points=pts,
                      normals=None if cloud.normals is None else cloud.normals.copy())


def surface_distance(points: np.ndarray, spec: ShapeSpec) -> np.ndarray:
    """Exact distance from each point to the clean analytic surface."""
    p = np.asarray(points, dtype=np.float64)
    e = spec.extent
    if spec.kind == "plane":
        return np.abs(p[:, 2])
    if spec.kind == "sphere":
        return np.abs(np.linalg.norm(p, axis=1) - e / 2)
    if spec.kind == "cylinder":
        return np.abs(np.hypot(p[:, 0], p[:, 1]) - e / 2)
    if spec.kind == "cube":
        q = np.abs(p) - e / 2
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(q.max(axis=1), 0.0)
        return outside - inside
    # wedge: min distance over the two half-planes (s >= 0, x unbounded)
    beta = math.radians(spec.dihedral_deg)
    d = np.empty((2, len(p)))
    for i, (u, nrm) in enumerate([
        (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
        (np.array([0.0, math.cos(beta), math.sin(beta)]),
         np.array([0.0, -math.sin(beta), math.cos(beta)])),
    ]):
        s = np.clip(p @ u, 0.0, None)
        off = p[:, 1:] - s[:, None] * u[1:]
        d[i] = np.linalg.norm(off, axis=1)
    return d.min(axis=0)
