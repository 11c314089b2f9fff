"""Shared fixtures and oracles.

The oracles are small reference functions only the tests need: thin
single-item views of the library's batched kernels (`fit_plane`,
`score_candidate`, `mean_mode_normal`, `point_noise_level`), independent
brute-force references (`grid_min_normal`, `brute_force_knn`), the
`eigh` update that the normal solver's power step replaces (`eigen_step`), the
single-point widening k-NN query that `knn_batch` must match and the rows
it widens (`knn_widening`, `widened_rows`), the
`eigh` solve of every row that `plane_fit`'s closed form replaces
(`plane_fit_eigh`), line-by-line XYZ/PLY text I/O that the array
readers and writers must match (`read_xyz_lines`, `read_ply_lines`,
`write_xyz_rows`, `write_ply_rows`), and the loop forms of the mode solvers, the subset draw
and the sign rule that the compacted kernels must match byte for byte
(`normal_mode_batch_loop`, `position_mode_batch_loop`,
`draw_index_sets_sorted`, `canonical_sign_argmax`), and the whole-cloud
forms of the PCA baseline and the noise profile that the row-chunked
`geometry.neighborhood_fits` must match byte for byte
(`pca_baseline_whole`, `cloud_noise_scale_whole`), and the config writer
whose text `config.parse` must read back to the same `RunConfig` (`serialize`).
"""

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from normfit import consensus
from normfit.candidates import _GOLDEN, CandidatePlanes, _mix64, score_candidates
from normfit.config import _leaves
from normfit.consensus import _ccp_exponent, _power_step
from normfit.errors import EmptyCandidates, NormalNotUnit, NormfitError, ParseError
from normfit.geometry import (PointCloud, angles_unoriented, as_points, build_index,
                              canonical_sign, fit_planes_batch, lift, plane_fit)
from normfit.noise import DEFAULT_NOISE_K, NoiseProfile


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


def plane_fit_eigh(pts):
    """`plane_fit` with `np.linalg.eigh` on every row's stacked covariance:
    (normals (M, 3), centroids (M, 3), eigenvalues (M, 3)).  `plane_fit`
    must match it byte for byte on the rows it sends to eigh."""
    c = pts.mean(axis=1)
    q = pts - c[:, None, :]
    cov = np.einsum("mki,mkj->mij", q, q) / pts.shape[1]
    w, v = np.linalg.eigh(cov)
    return canonical_sign(v[:, :, 0]), c, np.maximum(w, 0.0)


def serialize(cfg) -> str:
    """A `RunConfig` as the `key = value` text `config.parse` reads back, one
    line per leaf: strings by repr, everything else by str."""
    lines = [f"{k} = {v!r}" if isinstance(v, str) else f"{k} = {v}" for k, _, v in _leaves(cfg)]
    return "\n".join(lines) + "\n"


def brute_force_knn(points, query_idx, k):
    """O(N) reference k-NN with the (distance, index) tie rule."""
    d = np.linalg.norm(points - points[query_idx], axis=1)
    idx = np.arange(len(points))
    keep = idx != query_idx
    d, idx = d[keep], idx[keep]
    order = np.lexsort((idx, d))
    return idx[order][:k], d[order][:k]


def knn_widening(index, query_idx, k):
    """One point's k-NN by its own widening tree query: k + 3 points, then
    twice as many until every point at the k-th distance is in, with the
    (distance, index) tie rule.  `NeighborIndex.knn_batch` must match it
    byte for byte."""
    n = index.n_points
    kq = min(n, k + 3)
    while True:
        d, idx = index._tree.query(index._points[query_idx], k=kq)
        keep = idx != query_idx
        dk, ik = d[keep], idx[keep]
        order = np.lexsort((ik, dk))
        dk, ik = dk[order], ik[order]
        # safe to cut at k only if every point at the k-th distance was
        # returned by the tree; otherwise widen the query
        if kq == n or dk[k - 1] < d[-1]:
            return ik[:k].copy(), dk[:k].copy()
        kq = min(n, kq * 2)


def widened_rows(points, k):
    """The points whose k-NN query `knn_batch` widens past k + 3 points, in
    ascending order: those whose sorted distances to every point, their own
    0 first, hold near[k] == near[k + 2] (a tie at the k-th neighbour reaching
    the query's last point)."""
    n = len(points)
    if k + 3 >= n:
        return []
    rows = []
    for start in range(0, n, 256):
        block = points[start:start + 256]
        near = np.sort(np.linalg.norm(block[:, None] - points[None], axis=2), axis=1)
        rows += (start + np.flatnonzero(near[:, k] == near[:, k + 2])).tolist()
    return rows


def read_xyz_lines(path) -> PointCloud:
    """Line-by-line XYZ reader: one float() per token, errors in file order."""
    points, normals = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (3, 6):
                raise ParseError(f"expected 3 or 6 values, got {len(parts)}", line=lineno)
            try:
                vals = [float(x) for x in parts]
            except ValueError:
                raise ParseError(f"non-numeric value in {line!r}", line=lineno)
            points.append(vals[:3])
            if len(vals) == 6:
                normals.append(vals[3:])
            elif normals:
                raise ParseError("line without normal after lines with normals", line=lineno)
    if not points:
        raise ParseError(f"{path}: no points found")
    nrm = None
    if normals:
        if len(normals) != len(points):
            raise ParseError(f"{path}: some lines have normals and some do not")
        nrm = np.asarray(normals, dtype=np.float64)
        lens = np.linalg.norm(nrm, axis=1)
        if np.any(np.abs(lens - 1.0) > 1e-3):
            raise NormalNotUnit(f"{path}: a normal is not unit length")
        nrm = nrm / lens[:, None]
    return PointCloud(points=np.asarray(points, dtype=np.float64), normals=nrm)


def read_ply_lines(path) -> PointCloud:
    """Whole-text ASCII PLY reader: the text, its lines and every vertex line's
    fields held at once, one float() per kept field, errors in the same order
    as `normfit.io.read_ply` (too few vertex lines first)."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0].strip() != "ply":
        raise ParseError(f"{path}: missing 'ply' magic", line=1)
    n_vertex = None
    props = []
    body_start = None
    in_vertex_element = False
    for i, line in enumerate(lines[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        try:
            if tok[0] == "format":
                if tok[1] != "ascii":
                    raise ParseError(f"unsupported PLY format {tok[1]!r} (ASCII only)", line=i)
            elif tok[0] == "element":
                in_vertex_element = tok[1] == "vertex"
                if in_vertex_element:
                    n_vertex = int(tok[2])
            elif tok[0] == "property" and in_vertex_element:
                props.append(tok[2])
            elif tok[0] == "end_header":
                body_start = i
                break
        except (IndexError, ValueError):
            raise ParseError(f"malformed header line {line.strip()!r}", line=i) from None
    if n_vertex is None or body_start is None:
        raise ParseError(f"{path}: incomplete PLY header")
    for name in ("x", "y", "z"):
        if name not in props:
            raise ParseError(f"{path}: vertex property {name!r} missing")
    names = ("x", "y", "z", "nx", "ny", "nz") if {"nx", "ny", "nz"} <= set(props) else ("x", "y", "z")
    cols = [props.index(name) for name in names]
    rows = [r for r in range(body_start, len(lines)) if lines[r].strip()]
    if len(rows) < n_vertex:
        raise ParseError(f"{path}: header declares {n_vertex} vertices, found {len(rows)}")
    vals = []
    for r in rows[:max(n_vertex, 0)]:
        fields = lines[r].split()
        if len(fields) < len(props):
            raise ParseError("vertex line too short", line=r + 1)
        try:
            vals.append([float(fields[c]) for c in cols])
        except ValueError:
            raise ParseError(f"non-numeric value in {lines[r]!r}", line=r + 1) from None
    if not vals:
        raise ParseError(f"{path}: no points found")
    vals = np.array(vals)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise ParseError("value is not finite", line=rows[int(np.argmin(finite))] + 1)
    nrm = None
    if len(cols) == 6:
        nrm = vals[:, 3:]
        lens = np.linalg.norm(nrm, axis=1)
        if np.any(np.abs(lens - 1.0) > 1e-3):
            raise NormalNotUnit(f"{path}: a normal is not unit length")
        nrm = nrm / lens[:, None]
    return PointCloud(points=np.ascontiguousarray(vals[:, :3]), normals=nrm)


def _text_rows(fh, cloud, colors=None):
    for i in range(len(cloud)):
        row = ["%.17g" % v for v in cloud.points[i]]
        if cloud.normals is not None:
            row += ["%.17g" % v for v in cloud.normals[i]]
        if colors is not None:
            row += [str(int(c)) for c in colors[i]]
        fh.write(" ".join(row) + "\n")


def write_xyz_rows(cloud, path) -> None:
    """Per-row XYZ writer: one "%.17g" per value."""
    with open(path, "w") as fh:
        _text_rows(fh, cloud)


def write_ply_rows(cloud, path, reference_normals=None) -> None:
    """Per-row ASCII PLY writer with optional error colours."""
    colors = None
    if reference_normals is not None:
        frac = np.clip(angles_unoriented(cloud.normals, np.asarray(reference_normals)) / 90, 0, 1)
        colors = np.stack([np.rint(255 * frac), 0 * frac, np.rint(255 * (1 - frac))], axis=1)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(cloud)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if cloud.normals is not None:
            fh.write("property float nx\nproperty float ny\nproperty float nz\n")
        if colors is not None:
            fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        _text_rows(fh, cloud, colors)


def pytest_collection_modifyitems(items):
    """Make every warning an error in the items under tests/, so a new one
    (a 0/0 in a solver step, say) fails the test that meets it.  The mark
    goes first, so a test's own filterwarnings marks still take precedence."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


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
    return canonical_sign(np.linalg.eigh(m.T @ m)[1][:, 2])


def eigen_step(m, w, n):
    """The exact reweighted update that `consensus._power_step` approximates:
    the principal eigenvector, of either sign, of sum_i w_i m_i m_i^T per
    row, by `np.linalg.eigh`.  (A, M, 3), (A, M), (A, 3) -> (A, 3); ignores
    the iterate n."""
    _, v = np.linalg.eigh(np.matmul((m * w[:, :, None]).transpose(0, 2, 1), m))
    return v[:, :, 2]


def gather_with_self(points, nbr_idx, query_idx):
    """Each query point's neighbours followed by the point itself, in one
    gather: (len(query_idx), k + 1, 3) from the (len(query_idx), k) `nbr_idx`."""
    full = np.empty((len(nbr_idx), nbr_idx.shape[1] + 1), dtype=np.intp)
    full[:, :-1] = nbr_idx
    full[:, -1] = query_idx
    return np.take(points, full, axis=0)


def surface_variation(points, nbr_idx, query_idx):
    """lam1 / (lam1 + lam2 + lam3) of each query point with its neighbours;
    0 where every eigenvalue vanishes."""
    _, _, w = plane_fit(gather_with_self(points, nbr_idx, query_idx))
    total = w.sum(axis=1)
    return np.where(total > 0.0, w[:, 0] / np.where(total > 0.0, total, 1.0), 0.0)


def point_noise_level(cloud, index, t: int, k_f: int = DEFAULT_NOISE_K) -> float:
    """Surface variation of point t's k_f neighbors plus the point itself."""
    idx, _ = index.knn(t, k_f)
    return float(surface_variation(cloud.points, idx[None], np.array([t]))[0])


def pca_baseline_whole(cloud, k):
    """`metrics.pca_baseline` with one k-NN query and one (N, k + 1, 3)
    gather for the whole cloud."""
    idx, _ = build_index(cloud).knn_batch(k)
    normals, _, _ = plane_fit(gather_with_self(cloud.points, idx, np.arange(len(cloud))))
    return PointCloud(points=cloud.points.copy(), normals=normals)


def cloud_noise_scale_whole(cloud, index, k_f=DEFAULT_NOISE_K):
    """`noise.cloud_noise_scale` with one k-NN query and one (N, k_f + 1, 3)
    gather for the whole cloud."""
    n = len(cloud)
    idx, _ = index.knn_batch(min(k_f, n - 1))
    f = surface_variation(cloud.points, idx, np.arange(n))
    return NoiseProfile(per_point_f=f, cloud_f=float(f.mean()))


def canonical_sign_argmax(v):
    """Rows of (M, 3) `v` flipped so that the first of their largest-magnitude
    components is positive, picked by argmax and a fancy index."""
    v = np.asarray(v, dtype=np.float64)
    i = np.argmax(np.abs(v), axis=1)
    lead = v[np.arange(len(v)), i]
    return np.where((lead < 0)[:, None], -v, v)


def draw_index_sets_sorted(keys, counters, pool, k):
    """`_draw_index_sets` with one np.sort of the picked columns per draw."""
    j = np.arange(k, dtype=np.uint64)
    words = _mix64(keys[:, None] + _GOLDEN * (counters.astype(np.uint64)[:, None] * np.uint64(k) + j))
    out = (((words >> np.uint64(32)) * (np.uint64(pool) - j)) >> np.uint64(32)).astype(np.intp)
    for col in range(1, k):
        picked = np.sort(out[:, :col], axis=1)
        v = out[:, col]
        for i in range(col):
            v += v >= picked[:, i]
    return out


def normal_mode_batch_loop(m, params, init, hits=None):
    """`normal_mode_batch` gathering the active rows from full-size arrays
    and scattering them back on every iteration, and sign-canonicalizing
    every iterate; zero components of the returned normals are +0.  Reads
    `consensus._LOSS_SLACK` and `consensus._ccn_kernel` at call time, so a
    test can patch them for both implementations; takes the library's step,
    `_power_step`.  Counts the points that take each branch in the Counter
    `hits`: "underflow" (all weights zero, stopped at the candidate of
    largest |n.m|), "gave_up" (a step raised the loss), "converged" and
    "max_iters"."""
    hits = Counter() if hits is None else hits
    tau = params.tau_normal
    n = canonical_sign_argmax(np.array(init, dtype=np.float64))
    kern = consensus._ccn_kernel(m, n, tau)
    loss = -kern.sum(axis=1)
    iterations = np.zeros(len(m), dtype=np.int64)
    converged = np.zeros(len(m), dtype=bool)
    act = np.arange(len(m))
    for _ in range(params.max_iters):
        if len(act) == 0:
            break
        iterations[act] += 1
        empty = kern[act].sum(axis=1) == 0.0
        if empty.any():
            hits["underflow"] += int(np.count_nonzero(empty))
            e = act[empty]
            dots = np.abs(np.einsum("amc,ac->am", m[e], n[e]))
            n[e] = canonical_sign_argmax(m[e, np.argmax(dots, axis=1)])
            loss[e] = -consensus._ccn_kernel(m[e], n[e], tau).sum(axis=1)
            act = act[~empty]
        ma, na, la = m[act], n[act], loss[act]
        n_new = _power_step(ma, kern[act], na)
        new_kern = consensus._ccn_kernel(ma, n_new, tau)
        new_loss = -new_kern.sum(axis=1)
        up = new_loss > la + consensus._LOSS_SLACK
        hits["gave_up"] += int(np.count_nonzero(up))
        moved = ~up
        n[act[moved]] = canonical_sign_argmax(n_new[moved])
        loss[act[moved]] = new_loss[moved]
        kern[act[moved]] = new_kern[moved]
        done = moved & (angles_unoriented(n_new, na) < params.tol_deg)
        converged[act[done]] = True
        act = act[moved & ~done]
    hits["converged"] += int(np.count_nonzero(converged))
    hits["max_iters"] += len(act)
    return n + 0.0, loss, iterations, converged


def position_mode_batch_loop(q, params, init, tau, hits=None):
    """`position_mode_batch` gathering the active rows from full-size arrays
    and scattering them back on every iteration.  Reads
    `consensus._LOSS_SLACK` and `consensus._ccp_kernel` at call time, on
    the candidates lifted once (`geometry.lift`), and takes the library's
    matmul step; counts its branches in `hits` as `normal_mode_batch_loop`
    does, an "underflow" point stopping at its nearest candidate (largest
    `_ccp_exponent`)."""
    hits = Counter() if hits is None else hits
    tau2 = tau**2
    x = np.array(init, dtype=np.float64)
    ql = lift(q)
    kern = consensus._ccp_kernel(ql, x, tau2)
    loss = -kern.sum(axis=1)
    iterations = np.zeros(len(q), dtype=np.int64)
    converged = np.zeros(len(q), dtype=bool)
    act = np.arange(len(q))
    for _ in range(params.max_iters):
        if len(act) == 0:
            break
        iterations[act] += 1
        qa, xa, w = ql[act], x[act], kern[act]
        total = w.sum(axis=1)
        empty = total == 0.0
        if empty.any():
            hits["underflow"] += int(np.count_nonzero(empty))
            e = np.flatnonzero(empty)
            x[act[e]] = q[act[e], np.argmax(_ccp_exponent(qa[e], xa[e], np.ones(len(e))), axis=1)]
            loss[act[e]] = -consensus._ccp_kernel(qa[e], x[act[e]], tau2[act[e]]).sum(axis=1)
            live = ~empty
            act, qa, xa, w, total = act[live], qa[live], xa[live], w[live], total[live]
        la, t2 = loss[act], tau2[act]
        x_new = np.matmul(w[:, None, :], qa[..., :3])[:, 0] / total[:, None]
        new_kern = consensus._ccp_kernel(qa, x_new, t2)
        new_loss = -new_kern.sum(axis=1)
        up = new_loss > la + consensus._LOSS_SLACK
        hits["gave_up"] += int(np.count_nonzero(up))
        moved = ~up
        x[act[moved]] = x_new[moved]
        loss[act[moved]] = new_loss[moved]
        kern[act[moved]] = new_kern[moved]
        done = moved & (np.linalg.norm(x_new - xa, axis=1) < params.tol_pos * tau[act])
        converged[act[done]] = True
        act = act[moved & ~done]
    hits["converged"] += int(np.count_nonzero(converged))
    hits["max_iters"] += len(act)
    return x, loss, iterations, converged
