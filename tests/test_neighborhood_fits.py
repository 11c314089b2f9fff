"""The row-chunked whole-cloud plane fits (`geometry.neighborhood_fits`)
behind the PCA baseline and the noise profile: byte equality with the
whole-cloud forms in conftest, on clouds that end on both sides of a chunk
edge, and the memory bound that the chunking buys.

At k = 200 a chunk holds 2**18 // (3 * 201) = 434 rows, so clouds of 433,
434, 435, 869 and 1303 points end just before, on and just after a chunk
edge; at k = 64 a chunk holds 1344 rows.  The lattice clouds have exact
distance ties everywhere and duplicated points, so the tie path and the
widened queries of `knn_batch` run on the rows at the chunk edges.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normfit import (NoiseSpec, PointCloud, ShapeSpec, add_noise, build_index, cloud_noise_scale,
                     gen_shape, pca_baseline)
from normfit import geometry
from normfit.synth import SHAPE_KINDS

from conftest import cloud_noise_scale_whole, pca_baseline_whole, widened_rows

EDGE_SIZES = (202, 433, 434, 435, 869, 1303)


def chunk_rows(k):
    return max(1, geometry._BLOCK_ELEMENTS // (3 * (k + 1)))


def lattice_cloud(n, seed, k=200):
    """n points of a 12 x 12 x 12 integer lattice, about one in twenty
    replaced by a copy of another point, ordered so that the rows on both
    sides of every chunk edge at k are queried again wider by `knn_batch`
    (a boundary tie at the k-th distance, which depends on distances only,
    not on the order)."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(12.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = grid[rng.choice(len(grid), size=n, replace=False)]
    dup = rng.choice(n, size=max(1, n // 20), replace=False)
    pts[dup] = pts[rng.choice(n, size=len(dup))]
    tied = widened_rows(pts, k)
    edges = [r for e in range(chunk_rows(k), n, chunk_rows(k)) for r in (e - 1, e)]
    assert len(tied) >= len(edges)
    order = [r for r in range(n) if r not in set(tied[:len(edges)])]
    for at, r in zip(edges, tied):
        order.insert(at, r)
    return PointCloud(points=pts[order])


def shape_cloud(kind, n, noise_pct, seed):
    clean = gen_shape(ShapeSpec(kind=kind, n_points=n, seed=seed))
    return add_noise(clean, NoiseSpec(std_pct_bbox_diag=noise_pct, seed=seed + 1))


def assert_matches_whole(cloud, k):
    est = pca_baseline(cloud, k)
    assert est.normals.tobytes() == pca_baseline_whole(cloud, k).normals.tobytes()
    assert est.points.tobytes() == cloud.points.tobytes()
    index = build_index(cloud)
    got, want = cloud_noise_scale(index, k), cloud_noise_scale_whole(cloud, index, k)
    assert got.per_point_f.tobytes() == want.per_point_f.tobytes()
    assert np.float64(got.cloud_f).tobytes() == np.float64(want.cloud_f).tobytes()


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(SHAPE_KINDS), n=st.sampled_from(EDGE_SIZES),
       noise_pct=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
@example(kind="wedge", n=435, noise_pct=0.0, seed=0)
@example(kind="sphere", n=1303, noise_pct=1.0, seed=1)
def test_shapes_match_whole_cloud_at_chunk_edges(kind, n, noise_pct, seed):
    assert chunk_rows(200) == 434
    assert_matches_whole(shape_cloud(kind, n, noise_pct, seed), 200)


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_lattice_ties_and_fallbacks_match_whole_cloud(n, monkeypatch):
    wide = []

    class Logged(geometry.cKDTree):
        # keeps the points of every query wider than k + 3
        def query(self, x, k):
            if k > 203:
                wide.append(x.copy())
            return super().query(x, k=k)

    monkeypatch.setattr(geometry, "cKDTree", Logged)
    cloud = lattice_cloud(n, n)
    assert_matches_whole(cloud, 200)
    edges = range(chunk_rows(200), n, chunk_rows(200))
    for r in (r for e in edges for r in (e - 1, e)):
        assert any((x == cloud.points[r]).all(axis=1).any() for x in wide), r
    if n > 203:
        # below that the tree query already returns every point
        assert wide


@pytest.mark.parametrize("cloud", [shape_cloud("sphere", 3000, 0.5, 7), lattice_cloud(1700, 3, k=64)],
                         ids=["sphere", "lattice"])
def test_default_noise_k_matches_whole_cloud(cloud):
    # k = 64: chunks of 1344 rows, so the cloud ends inside its second or third chunk
    assert chunk_rows(64) == 1344
    assert_matches_whole(cloud, 64)


@pytest.mark.parametrize("elements", [1, 200, 2**40])
def test_any_chunk_size_matches_whole_cloud(elements, monkeypatch):
    # one row per chunk, three rows, and the whole cloud in one chunk
    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
    assert_matches_whole(shape_cloud("cube", 300, 0.5, 5), 20)


@pytest.mark.parametrize("k", [-3, -1, 0, 30])
def test_k_out_of_range_raises(k):
    # k = -1 used to divide by zero when sizing the chunk and k = -3 to ask
    # for a buffer of negative size; every k outside [1, N - 1] gets the
    # error knn_batch gives
    cloud = shape_cloud("cube", 30, 0.5, 5)
    with pytest.raises(ValueError, match=f"k={k} out of range for 30 points"):
        geometry.neighborhood_fits(build_index(cloud), k)
    with pytest.raises(ValueError, match=f"k={k} out of range for 30 points"):
        pca_baseline(cloud, k)


class TestMemory:
    # the whole-cloud forms peak at about 85 MB here, in their (N, 65, 3)
    # gather and its centred copy; the chunks hold about 6 MB
    CLOUD = shape_cloud("sphere", 20000, 0.5, 9)

    def peak(self, call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pca_baseline_peak_within_budget(self):
        peak = self.peak(lambda: pca_baseline(self.CLOUD, 64))
        assert peak < 16e6, peak

    def test_noise_profile_peak_within_budget(self):
        index = build_index(self.CLOUD)
        peak = self.peak(lambda: cloud_noise_scale(index, 64))
        assert peak < 16e6, peak

    def test_coincident_points_peak_within_budget(self):
        # 2000 copies of one point tie at distance 0 on every row that holds
        # one, so knn_batch widens those rows to 2144 points; each round
        # queries them in slices of 1 MB per (rows, width) array
        pts = self.CLOUD.points.copy()
        pts[:2000] = pts[0]
        cloud = PointCloud(points=pts)
        index = build_index(cloud)
        assert self.peak(lambda: geometry.neighborhood_fits(index, 64)) < 16e6
        assert self.peak(lambda: cloud_noise_scale(index, 64)) < 16e6
