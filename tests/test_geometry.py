import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from normfit import (
    PointCloud,
    angle_unoriented,
    build_index,
)
from normfit.geometry import canonical_sign, plane_fit

from conftest import (DegenerateSample, Plane, brute_force_knn, fit_plane, point_plane_distance,
                      random_units)


def tie_grid():
    """A 5x5x5 integer grid (many equal distances) plus 50 duplicated points."""
    g = np.arange(5.0)
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    return np.vstack([grid, grid[::2][:50]])


class TestNeighborIndex:
    def test_two_point_cloud(self):
        idx = build_index(PointCloud(points=[[0, 0, 0], [1, 0, 0]]))
        ids, dists = idx.knn(0, 1)
        assert list(ids) == [1]
        assert dists[0] == pytest.approx(1.0)

    def test_matches_brute_force_all_k(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 60))
            pts = rng.normal(size=(n, 3))
            idx = build_index(PointCloud(points=pts))
            for t in range(n):
                got_i, got_d = idx.knn(t, n - 1)
                want_i, want_d = brute_force_knn(pts, t, n - 1)
                assert np.array_equal(got_i, want_i)
                assert np.allclose(got_d, want_d)

    def test_matches_brute_force_many_random_clouds(self, rng):
        # spot checks across a wide range of sizes
        for trial in range(200):
            n = int(rng.integers(4, 500))
            pts = rng.normal(size=(n, 3))
            idx = build_index(PointCloud(points=pts))
            t = int(rng.integers(0, n))
            k = int(rng.integers(1, n))
            got_i, got_d = idx.knn(t, k)
            want_i, want_d = brute_force_knn(pts, t, k)
            assert np.array_equal(got_i, want_i), f"trial {trial}"
            assert np.allclose(got_d, want_d)

    def test_lattice_center_axis_neighbors(self):
        grid = np.array([[x, y, z] for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)],
                        dtype=float)
        idx = build_index(PointCloud(points=grid))
        center = int(np.flatnonzero((grid == 0).all(axis=1))[0])
        ids, dists = idx.knn(center, 6)
        assert np.allclose(dists, 1.0)
        assert np.allclose(np.abs(grid[ids]).sum(axis=1), 1.0)

    def test_k_equals_n_minus_1(self, rng):
        pts = rng.normal(size=(5, 3))
        idx = build_index(PointCloud(points=pts))
        ids, _ = idx.knn(2, 4)
        assert sorted(ids) == [0, 1, 3, 4]

    def test_duplicate_points_tie_by_index(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=float)
        idx = build_index(PointCloud(points=pts))
        ids, dists = idx.knn(0, 3)
        assert list(ids) == [1, 2, 3]
        assert np.allclose(dists, 1.0)
        # tie crossing the cut boundary must still pick the lowest index
        ids, _ = idx.knn(0, 2)
        assert list(ids) == [1, 2]

    def test_knn_batch_matches_single(self, rng):
        pts = rng.normal(size=(40, 3))
        idx = build_index(PointCloud(points=pts))
        bi, bd = idx.knn_batch(7)
        for t in range(40):
            si, sd = idx.knn(t, 7)
            assert np.array_equal(bi[t], si)
            assert np.allclose(bd[t], sd)

    @pytest.mark.parametrize("k", [1, 6, 26, 60])
    def test_knn_batch_matches_single_on_ties(self, k):
        pts = tie_grid()
        idx = build_index(PointCloud(points=pts))
        bi, bd = idx.knn_batch(k)
        for t in range(len(pts)):
            si, sd = idx.knn(t, k)
            assert np.array_equal(bi[t], si), t
            assert np.array_equal(bd[t], sd), t

    @pytest.mark.parametrize("k", [1, 6, 26, 60])
    def test_knn_batch_rows_match_single_on_ties(self, k, rng):
        idx = build_index(PointCloud(points=tie_grid()))
        # rows whose tie crosses the tree query's cut take the widening knn
        single, ties = idx.knn, []
        idx.knn = lambda t, kk: ties.append(t) or single(t, kk)
        idx.knn_batch(k)
        del idx.knn
        assert ties
        for _ in range(5):
            rows = np.concatenate([rng.choice(idx.n_points, 30, replace=False),
                                   rng.choice(ties, 3)])
            rng.shuffle(rows)
            bi, bd = idx.knn_batch(k, rows)
            assert bi.shape == bd.shape == (len(rows), k)
            for r, t in enumerate(rows):
                si, sd = idx.knn(int(t), k)
                assert np.array_equal(bi[r], si), t
                assert np.array_equal(bd[r], sd), t

    def test_k_out_of_range(self, rng):
        idx = build_index(PointCloud(points=rng.normal(size=(5, 3))))
        with pytest.raises(ValueError):
            idx.knn(0, 5)
        with pytest.raises(ValueError):
            idx.knn(0, 0)

    @pytest.mark.parametrize("t", [-1, -10, 10, 11])
    def test_point_index_out_of_range(self, t, rng):
        # -1 used to return the last point as its own neighbour at distance 0,
        # and N a bare IndexError
        idx = build_index(PointCloud(points=rng.normal(size=(10, 3))))
        with pytest.raises(ValueError, match="out of range"):
            idx.knn(t, 3)
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            idx.knn_batch(3, [0, t, 5])
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            idx.knn_batch(3, np.array([t]))

    def test_knn_batch_of_no_rows(self, rng):
        idx = build_index(PointCloud(points=rng.normal(size=(10, 3))))
        ids, dists = idx.knn_batch(3, np.array([], dtype=np.intp))
        assert ids.shape == dists.shape == (0, 3)


@st.composite
def mixed_clouds(draw):
    """Random points, a small integer lattice and exact duplicates of both:
    the lattice and the copies tie distances, the random points do not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = np.arange(float(draw(st.integers(2, 4))))
    lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    spread = draw(st.sampled_from([0.5, 3.0, 30.0]))
    pts = np.vstack([rng.normal(scale=spread, size=(draw(st.integers(4, 40)), 3)), lattice])
    copies = rng.integers(0, len(pts), draw(st.integers(1, 20)))
    pts = np.vstack([pts, pts[copies]])[rng.permutation(len(pts) + len(copies))]
    k = draw(st.integers(1, len(pts) // 2))
    return pts, k, rng


class TestKnnBatchProperty:
    @settings(max_examples=150, deadline=None)
    @given(mixed_clouds())
    def test_knn_batch_matches_brute_force_on_both_row_paths(self, case):
        pts, k, rng = case
        n = len(pts)
        # a row is tied when the k + 3 points nearest its query point, the
        # point itself included, hold an equal distance
        near = np.sort(np.linalg.norm(pts[:, None] - pts[None], axis=2), axis=1)
        tied = (np.diff(near[:, :min(n, k + 3)], axis=1) == 0).any(axis=1)
        assume(tied.any() and not tied.all())
        rows = np.concatenate([[np.argmax(tied), np.argmin(tied)],
                               rng.choice(n, int(rng.integers(0, n)), replace=False)])
        rng.shuffle(rows)
        assert 0 < np.count_nonzero(tied[rows]) < len(rows)
        got_i, got_d = build_index(PointCloud(points=pts)).knn_batch(k, rows)
        assert got_i.shape == got_d.shape == (len(rows), k)
        for r, t in enumerate(rows):
            want_i, want_d = brute_force_knn(pts, int(t), k)
            assert np.array_equal(got_i[r], want_i), (r, t)
            assert np.allclose(got_d[r], want_d)


class TestCovarianceEigen:
    def test_single_point(self):
        _, c, w = plane_fit(np.array([[[2.0, 3.0, 4.0]]]))
        assert np.allclose(w, 0.0)
        assert np.allclose(c, [[2, 3, 4]])

    def test_two_symmetric_points(self):
        _, c, w = plane_fit(np.array([[[1.0, 0, 0], [-1, 0, 0]]]))
        assert np.allclose(w, [[0.0, 0.0, 1.0]])
        assert np.allclose(c, 0.0)

    def test_matches_direct_summation(self, rng):
        pts = rng.normal(size=(20, 3))
        normals, c, w = plane_fit(pts[None])
        c_ref = pts.sum(axis=0) / len(pts)
        cov_ref = np.zeros((3, 3))
        for p in pts:
            q = p - c_ref
            cov_ref += np.outer(q, q)
        cov_ref /= len(pts)
        assert np.allclose(c[0], c_ref, atol=1e-12)
        assert np.allclose(w[0], np.linalg.eigvalsh(cov_ref), atol=1e-12)
        # the normal is the smallest-eigenvalue eigenvector of the reference
        assert np.allclose(cov_ref @ normals[0], w[0, 0] * normals[0], atol=1e-12)


class TestFitPlane:
    def test_right_triangle(self):
        plane = fit_plane([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert np.allclose(plane.normal, [0, 0, 1])

    def test_square_at_z5(self):
        plane = fit_plane([[0, 0, 5], [1, 0, 5], [1, 1, 5], [0, 1, 5]])
        assert np.allclose(plane.normal, [0, 0, 1])
        assert plane.anchor[2] == pytest.approx(5.0)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateSample):
            fit_plane([[0, 0, 0], [1, 0, 0], [2, 0, 0]])

    def test_coincident_raises(self):
        with pytest.raises(DegenerateSample):
            fit_plane([[1, 2, 3]] * 4)

    def test_total_least_squares_optimality(self, rng):
        pts = rng.normal(size=(12, 3)) * [1.0, 1.0, 0.1]
        plane = fit_plane(pts)
        best = sum(point_plane_distance(p, plane) ** 2 for p in pts)
        c = pts.mean(axis=0)
        for n in random_units(rng, 1000):
            other = Plane(normal=n, anchor=c)
            trial = sum(point_plane_distance(p, other) ** 2 for p in pts)
            assert best <= trial + 1e-12

    def test_sign_canonicalization(self, rng):
        for v in random_units(rng, 50):
            c = canonical_sign(v)
            i = np.argmax(np.abs(c))
            assert c[i] > 0
            assert np.allclose(canonical_sign(-v), c)


class TestDistancesAngles:
    def test_point_plane_distance(self):
        z0 = Plane(normal=[0, 0, 1], anchor=[0, 0, 0])
        assert point_plane_distance([0, 0, 2], z0) == pytest.approx(2.0)
        assert point_plane_distance([3, -1, 0], z0) == pytest.approx(0.0)
        x0 = Plane(normal=[1, 0, 0], anchor=[0, 0, 0])
        assert point_plane_distance([1, 1, 1], x0) == pytest.approx(1.0)

    def test_angle_basics(self):
        assert angle_unoriented([0, 0, 1], [0, 0, 1]) == pytest.approx(0.0)
        assert angle_unoriented([0, 0, 1], [0, 0, -1]) == pytest.approx(0.0)
        assert angle_unoriented([0, 0, 1], [1, 0, 0]) == pytest.approx(90.0)

    def test_angle_antipodal_invariance(self, rng):
        us = random_units(rng, 40)
        vs = random_units(rng, 40)
        for u, v in zip(us, vs):
            assert angle_unoriented(u, v) == pytest.approx(angle_unoriented(-u, v))
