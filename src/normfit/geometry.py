"""Core geometry: point containers, exact k-NN index, plane fitting, angles.

Conventions used throughout the library:

* points are float64 arrays of shape (N, 3)
* normals are unit vectors, sign-canonicalized so the component of largest
  absolute value is positive (normals are unoriented, the sign is only a
  deterministic representative)
* k-NN results are sorted by ascending distance, ties broken by ascending
  point index, and never include the query point when querying by index
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

# relative eigenvalue gap below which a point set is treated as collinear
DEGENERACY_RTOL = 1e-12
# query rows per chunk of NeighborIndex.knn_batch
_KNN_BATCH_ROWS = 2048


def as_points(a) -> np.ndarray:
    """Coerce input to a float64 (N, 3) array, validating finiteness."""
    pts = np.asarray(a, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude component is positive.

    Works on a single vector (3,) or a batch (M, 3).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        i = int(np.argmax(np.abs(v)))
        return -v if v[i] < 0 else v
    i = np.argmax(np.abs(v), axis=1)
    lead = v[np.arange(len(v)), i]
    return np.where((lead < 0)[:, None], -v, v)


@dataclass
class PointCloud:
    """Positions plus optional per-point unit normals."""

    points: np.ndarray
    normals: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = as_points(self.points)
        if len(self.points) < 1:
            raise ValueError("point cloud must contain at least one point")
        if self.normals is not None:
            self.normals = as_points(self.normals)
            if len(self.normals) != len(self.points):
                raise ValueError("normals length must match points length")
            norms = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("normals must be unit length")

    def __len__(self):
        return len(self.points)

    def bbox_diagonal(self) -> float:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))


class NeighborIndex:
    """Immutable exact k-NN index over one PointCloud.

    Queries are exact under the Euclidean metric; equal distances are
    resolved by ascending point index so results are fully deterministic.
    Safe for concurrent read-only use.
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) < 1:
            raise ValueError("cannot index an empty cloud")
        self._points = cloud.points
        self._tree = cKDTree(self._points)

    @property
    def n_points(self) -> int:
        return len(self._points)

    def knn(self, query_idx: int, k: int):
        """k nearest neighbors of point `query_idx`, excluding itself.

        Returns (indices, distances) sorted by (distance, index).
        """
        n = self.n_points
        if not 1 <= k <= n - 1:
            raise ValueError(f"k={k} out of range for {n} points")
        kq = min(n, k + 3)
        while True:
            d, idx = self._tree.query(self._points[query_idx], k=kq)
            d, idx = np.atleast_1d(d), np.atleast_1d(idx)
            keep = idx != query_idx
            dk, ik = d[keep], idx[keep]
            order = np.lexsort((ik, dk))
            dk, ik = dk[order], ik[order]
            # safe to cut at k only if every point at the k-th distance was
            # returned by the tree; otherwise widen the query
            if kq == n or dk[k - 1] < d[-1]:
                return ik[:k].copy(), dk[:k].copy()
            kq = min(n, kq * 2)

    def knn_batch(self, k: int, rows=None):
        """k-NN of points `rows` (default: every point) at once, self excluded.

        Returns (indices, distances) arrays of shape (len(rows), k) obeying
        the same (distance, index) ordering as `knn`.
        """
        n = self.n_points
        if not 1 <= k <= n - 1:
            raise ValueError(f"k={k} out of range for {n} points")
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        kq = min(n, k + 3)
        out_i = np.empty((len(rows), k), dtype=np.intp)
        out_d = np.empty((len(rows), k), dtype=np.float64)
        # row chunks bound the (rows, kq) temporaries on large clouds
        for start in range(0, len(rows), _KNN_BATCH_ROWS):
            part = slice(start, start + _KNN_BATCH_ROWS)
            ts = rows[part]
            d, idx = self._tree.query(self._points[ts], k=kq)
            # the query point sorts last; the others by (distance, index)
            dk = np.where(idx == ts[:, None], np.inf, d)
            order = np.lexsort((idx, dk), axis=1)
            dk = np.take_along_axis(dk, order, axis=1)[:, :k]
            out_i[part] = np.take_along_axis(idx, order, axis=1)[:, :k]
            out_d[part] = dk
            if kq < n:
                # boundary tie: fall back to the widening single query
                for r in np.flatnonzero(~(dk[:, k - 1] < d[:, -1])):
                    out_i[start + r], out_d[start + r] = self.knn(int(ts[r]), k)
        return out_i, out_d


def build_index(cloud: PointCloud) -> NeighborIndex:
    return NeighborIndex(cloud)


def plane_fit(pts: np.ndarray):
    """Total-least-squares planes through a batch of point sets.

    `pts` has shape (M, k, 3).  Solves each set's centred covariance
    sum((p-c)(p-c)^T)/k and returns (normals (M, 3), centroids (M, 3),
    eigenvalues (M, 3)).  Normals are the smallest-eigenvalue directions,
    sign-canonicalized; eigenvalues are ascending and clamped at 0, since
    round-off can push a vanishing one slightly negative.
    """
    c = pts.mean(axis=1)
    q = pts - c[:, None, :]
    cov = np.einsum("mki,mkj->mij", q, q) / pts.shape[1]
    w, v = np.linalg.eigh(cov)
    return canonical_sign(v[:, :, 0]), c, np.maximum(w, 0.0)


def fit_planes_batch(pts: np.ndarray):
    """Vectorized plane fits for a batch of small point sets.

    `pts` has shape (M, k, 3).  Returns (normals (M,3), anchors (M,3),
    degenerate mask (M,)).  Degenerate rows carry an arbitrary normal and
    must be discarded by the caller.
    """
    normals, c, w = plane_fit(pts)
    degenerate = (w[:, 1] <= DEGENERACY_RTOL * w[:, 2]) | (w[:, 2] <= 0.0)
    return normals, c, degenerate


def angle_unoriented(u, v) -> float:
    """Unoriented angle between two unit vectors, in degrees within [0, 90]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    c = min(1.0, abs(float(u @ v)))
    return float(np.degrees(np.arccos(c)))


def angles_unoriented(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise unoriented angles in degrees between two (N, 3) arrays."""
    c = np.minimum(1.0, np.abs(np.einsum("ij,ij->i", u, v)))
    return np.degrees(np.arccos(c))
