"""Core geometry: point containers, exact k-NN index, plane fitting, angles.

Conventions used throughout the library:

* points are float64 arrays of shape (N, 3)
* normals are unit vectors, sign-canonicalized so the component of largest
  absolute value is positive (normals are unoriented, the sign is only a
  deterministic representative)
* k-NN is exact: rows sorted by ascending distance, ties by ascending point
  index, the query point left out; `knn` is a batch of one of `knn_batch`, and
  every neighbourhood is its gather in `neighborhoods`, each point last
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import TooFewNeighbors

# relative eigenvalue gap below which a point set is treated as collinear
DEGENERACY_RTOL = 1e-12
# relative eigen-gap at or below which plane_fit uses eigh, not its closed form
_CLOSED_FORM_RTOL = 1e-6
# smallest normal float64
_TINY = np.finfo(np.float64).tiny
# float64 elements of one working array (a neighbourhood or subset gather, a
# kernel matrix): 2 MB
_BLOCK_ELEMENTS = 2**18


def row_chunks(n: int, row_elements: int) -> list:
    """Consecutive slices of range(n), each max(1, _BLOCK_ELEMENTS // row_elements) rows
    long but the last: the one rule that turns the 2 MB budget into rows."""
    step = max(1, _BLOCK_ELEMENTS // row_elements)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def as_points(a) -> np.ndarray:
    """Coerce input to a float64 (N, 3) array, validating finiteness."""
    pts = np.asarray(a, dtype=np.float64)
    if pts.shape == (3,):
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
    # the first component of largest magnitude, as argmax picks it
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    lead = np.where((ax >= ay) & (ax >= az), x, np.where(ay >= az, y, z))
    # times a +-1 row sign: the bytes of np.where(lead < 0, -v, v) without building -v
    return v * np.where(lead < 0, -1.0, 1.0)[..., None]


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
            # row norms in place: 9 bytes a point, not linalg.norm's 40
            norms = np.einsum("ij,ij->i", self.normals, self.normals)
            np.sqrt(norms, out=norms)
            norms -= 1.0
            if np.any(np.abs(norms, out=norms) > 1e-9):
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

    def __reduce__(self):
        # pickled as its points: loading builds the tree anew, which a worker does
        # faster than it receives a pickled one
        return build_index, (PointCloud(points=self._points),)

    @property
    def n_points(self) -> int:
        return len(self._points)

    def knn(self, query_idx: int, k: int):
        """k nearest neighbors of point `query_idx`, excluding itself: row 0
        of the (indices, distances) of `knn_batch(k, [query_idx])`."""
        ids, dists = self.knn_batch(k, [query_idx])
        return ids[0], dists[0]

    def knn_batch(self, k: int, rows=None):
        """k-NN of points `rows` (default: every point) at once, self excluded.

        Returns (indices, distances) arrays of shape (len(rows), k), each row sorted by
        (distance, index).  Raises TooFewNeighbors if k > N - 1 or N = 1, and ValueError
        if k < 1, `rows` is not a 1-D sequence of integers, a row lies outside [0, N), or a
        distance overflows (points 1.3e154 apart).
        """
        n = self.n_points
        _require_k(n, k)
        rows = np.arange(n) if rows is None else _point_rows(rows)
        if len(rows) and not (0 <= rows.min() and rows.max() < n):
            raise ValueError(f"point indices out of range: must lie in [0, {n})")
        kq = min(n, k + 3)
        out_i = np.empty((len(rows), k), dtype=np.intp)
        out_d = np.empty((len(rows), k), dtype=np.float64)
        left = np.arange(len(rows))     # the rows not answered yet
        while len(left):
            # the tie path holds about five (rows, kq) arrays: 1 MB each per slice
            wider = [left[:0]]
            for part in (left[chunk] for chunk in row_chunks(len(left), 2 * kq)):
                ts = rows[part]
                d, idx = self._tree.query(self._points[ts], k=kq)
                if not np.isfinite(d[:, k]).all():      # columns ascend: all k + 1 finite
                    raise ValueError("k-NN distances overflow: points lie 1.3e154 or more apart")
                # a row with no tie starts at its query point, in (distance, index) order
                tied = np.flatnonzero((idx[:, 0] != ts) | (d[:, 1:] <= d[:, :-1]).any(axis=1))
                out_i[part], out_d[part] = idx[:, 1:k + 1], d[:, 1:k + 1]
                if len(tied) == 0:
                    continue
                d, idx, ts, part = d[tied], idx[tied], ts[tied], part[tied]
                # the query point sorts last; the others by (distance, index)
                dk = np.where(idx == ts[:, None], np.inf, d)
                order = np.lexsort((idx, dk), axis=1)[:, :k]
                out_i[part] = np.take_along_axis(idx, order, axis=1)
                out_d[part] = dk = np.take_along_axis(dk, order, axis=1)
                # a k-th distance that reaches the query's last one may tie points the
                # tree left out, unless it returned every point: ask again twice as wide
                wider.append(part[~(dk[:, k - 1] < d[:, -1]) & (kq < n)])
            left, kq = np.concatenate(wider), min(n, 2 * kq)
        return out_i, out_d

    def neighborhoods(self, k: int, rows, out=None):
        """The `knn_batch` neighbours of points `rows`, each followed by the point: (P, k + 1, 3),
        written into `out` when given, and their (P, k) distances.  Raises as `knn_batch` does."""
        rows = _point_rows(rows)
        idx, dist = self.knn_batch(k, rows)
        sets = np.concatenate([idx, rows[:, None]], axis=1)
        # "clip": mode "raise" copies through a temporary, and knn_batch never gives index N
        return np.take(self._points, sets, axis=0, out=out, mode="clip"), dist


def _point_rows(rows) -> np.ndarray:
    """`rows` as an intp array; ValueError unless a 1-D sequence of integers (or empty)."""
    a = np.asarray(rows)
    if a.ndim != 1 or (a.dtype.kind not in "iu" and len(a)):
        raise ValueError("point indices must be a 1-D sequence of integers, "
                         f"got dtype {a.dtype} and shape {a.shape}")
    return a.astype(np.intp, copy=False)


def _require_k(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:    # a lone point has no neighbors for any k
        raise (TooFewNeighbors if n <= max(k, 1) else ValueError)(
            f"k={k} out of range for {n} points")


def build_index(cloud: PointCloud) -> NeighborIndex:
    return NeighborIndex(cloud)


def neighborhood_fits(index: NeighborIndex, k: int):
    """`plane_fit` of every indexed point's k nearest neighbours followed by
    the point itself: (normals (N, 3), eigenvalues (N, 3)).

    Walks range(N) in the 2 MB `row_chunks` of its (rows, k + 1, 3) `neighborhoods` gather,
    so the peak is the O(N) outputs plus one chunk.  Each row is computed independently of
    the others, so the chunk size changes no byte.  Raises as `knn_batch` does for k.
    """
    n = index.n_points
    _require_k(n, k)
    chunks = row_chunks(n, 3 * (k + 1))
    normals, eigenvalues = np.empty((n, 3)), np.empty((n, 3))
    # one gather buffer for every chunk: allocating it per chunk makes the
    # allocator hand the pages back and fault them in again
    gather = np.empty((chunks[0].stop, k + 1, 3))
    for part in chunks:
        pts, _ = index.neighborhoods(k, np.arange(part.start, part.stop),
                                     out=gather[:part.stop - part.start])
        normals[part], _, eigenvalues[part] = plane_fit(pts)
    return normals, eigenvalues


def plane_fit(pts: np.ndarray):
    """Total-least-squares planes through a batch of point sets.

    `pts` has shape (M, k, 3).  Solves each set's centred covariance
    A = sum((p-c)(p-c)^T)/k and returns (normals (M, 3), centroids (M, 3),
    eigenvalues (M, 3)).  Normals are the smallest-eigenvalue directions,
    sign-canonicalized; eigenvalues are ascending and clamped at 0, since
    round-off can push a vanishing one slightly negative.

    Each row is solved in closed form: the eigenvalues come from Smith's
    trigonometric formula for the roots of the characteristic cubic (Smith
    1961; Kopp, arXiv physics/0610206), and the normal is the largest cross
    product of two rows of A - lam0 I.  Near a repeated eigenvalue the
    formula's arccos loses digits, so a row whose smaller eigen-gap is at
    most 1e-6 of its largest eigenvalue (a collinear, coincident, isotropic
    or rotationally symmetric set), whose cross products all vanish, or
    whose p^2 = |A - (tr A / 3) I|^2 / 6 underflows, is solved by
    `np.linalg.eigh` instead, with the same bytes as an `eigh` of the
    stacked covariance.  Every row's result is independent of the other
    rows in the batch.
    """
    k = pts.shape[1]
    c = np.einsum("mkc->mc", pts) / k       # the bytes of pts.mean(axis=1), faster
    q = pts - c[:, None, :]
    x, y, z = q[..., 0], q[..., 1], q[..., 2]
    cov = [np.einsum("mk,mk->m", u, v) / k
           for u, v in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))]
    del q, x, y, z              # free the centred copy before the solve
    w, v, ill = _closed_form_eig(*cov)
    if ill.any():
        # re-centre the ill-conditioned rows and eigh their stacked covariance
        qi = pts[ill] - c[ill, None, :]
        wi, vi = np.linalg.eigh(np.einsum("mki,mkj->mij", qi, qi) / k)
        w[ill], v[ill] = wi, vi[:, :, 0]
    return canonical_sign(v), c, np.maximum(w, 0.0)


def _closed_form_eig(a00, a11, a22, a01, a02, a12):
    """Closed-form eigen solve of symmetric 3x3 matrices given as six (M,)
    component arrays, which it overwrites.

    Returns (eigenvalues (M, 3) ascending, unit smallest-eigenvalue vectors
    (M, 3), ill (M,)); the rows flagged ill are meaningless and need eigh.
    """
    with np.errstate(all="ignore"):
        mean = (a00 + a11 + a22) / 3.0
        a00 -= mean
        a11 -= mean
        a22 -= mean
        p2 = (a00 * a00 + a11 * a11 + a22 * a22
              + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0
        p = np.sqrt(p2)
        # B = (A - mean I) / p has trace 0 and eigenvalues
        # 2 cos(phi + 2 pi j / 3), j = 0, 1, 2, where cos(3 phi) = det(B) / 2
        for a in (a00, a11, a22, a01, a02, a12):
            a /= p
        det = (a00 * (a11 * a22 - a12 * a12) - a01 * (a01 * a22 - a12 * a02)
               + a02 * (a01 * a12 - a11 * a02))
        phi = np.arccos(np.clip(det / 2.0, -1.0, 1.0)) / 3.0
        beta0 = 2.0 * np.cos(phi + 2.0 * np.pi / 3.0)
        lam0 = mean + p * beta0
        lam2 = mean + p * (2.0 * np.cos(phi))
        lam1 = 3.0 * mean - lam0 - lam2
        # B - beta0 I shares its null direction with A - lam0 I; take the
        # largest of the cross products of its rows (the first on a tie)
        a00 -= beta0
        a11 -= beta0
        a22 -= beta0
        rows = ((a00, a01, a02), (a01, a11, a12), (a02, a12, a22))
        v = best = None
        for (ax, ay, az), (bx, by, bz) in combinations(rows, 2):
            cross = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
            norm2 = cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]
            if v is None:
                v, best = cross, norm2
            else:
                take = norm2 > best
                v = tuple(np.where(take, new, old) for new, old in zip(cross, v))
                best = np.where(take, norm2, best)
        v = np.stack(v, axis=1) / np.sqrt(best)[:, None]
        # negated tests, so a NaN from overflow also goes to eigh; a p2
        # below the normal range has lost digits to underflow
        ill = ~(np.minimum(lam1 - lam0, lam2 - lam1) > _CLOSED_FORM_RTOL * lam2) \
            | ~(best > 0.0) | ~(p2 >= _TINY)
    return np.stack([lam0, lam1, lam2], axis=1), v, ill


def fit_planes_batch(pts: np.ndarray):
    """Vectorized plane fits for a batch of small point sets.

    `pts` has shape (M, k, 3).  Returns (normals (M,3), anchors (M,3),
    degenerate mask (M,)).  Degenerate rows carry an arbitrary normal and
    must be discarded by the caller.
    """
    normals, c, w = plane_fit(pts)
    degenerate = (w[:, 1] <= DEGENERACY_RTOL * w[:, 2]) | (w[:, 2] <= 0.0)
    return normals, c, degenerate


def lift(p: np.ndarray, s2=None) -> np.ndarray:
    """Homogeneous lifts (..., 5) of points (..., 3): lift(q) is [q, 1, |q|^2]
    and lift(p, s2) is [2p, -|p|^2, -1] / s2 (s2 broadcast over p's leading
    axes), so lift(q).lift(p, s2) = -|p - q|^2 / s2 and one stacked matmul
    gives a block's Gaussian exponents."""
    p = np.ascontiguousarray(p)     # so that |p|^2 rounds the same for any memory order
    sq = np.einsum("...c,...c->...", p, p)
    out = np.empty(p.shape[:-1] + (5,))
    if s2 is None:
        out[..., :3], out[..., 3], out[..., 4] = p, 1.0, sq
    else:
        out[..., :3], out[..., 3], out[..., 4] = 2.0 * p, -sq, -1.0
        out /= np.asarray(s2)[..., None]
    return out


def angles_unoriented(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise unoriented angles in degrees between two (N, 3) arrays."""
    c = np.minimum(1.0, np.abs(np.einsum("ij,ij->i", u, v)))
    return np.degrees(np.arccos(c))
