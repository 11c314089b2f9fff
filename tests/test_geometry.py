import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from normfit import (
    PointCloud,
    build_index,
)
from normfit import geometry
from normfit.geometry import angles_unoriented, canonical_sign, plane_fit

from conftest import (DegenerateSample, Plane, brute_force_knn, fit_plane, knn_widening,
                      point_plane_distance, random_units, widened_rows)


def tie_grid():
    """A 5x5x5 integer grid (many equal distances) plus 50 duplicated points."""
    g = np.arange(5.0)
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    return np.vstack([grid, grid[::2][:50]])


class TestPointCloud:
    def test_normals_more_than_1e_9_off_unit_length_are_rejected(self, rng):
        pts, normals = rng.normal(size=(50, 3)), random_units(rng, 50)
        for scale, unit in ((1 + 5e-10, True), (1 - 5e-10, True), (1 + 2e-9, False),
                            (1 - 2e-9, False)):
            off = normals.copy()
            off[17] *= scale
            if unit:
                assert PointCloud(points=pts, normals=off).normals.tobytes() == off.tobytes()
            else:
                with pytest.raises(ValueError, match="normals must be unit length"):
                    PointCloud(points=pts, normals=off)

    def test_unit_normal_check_peak(self, rng):
        # np.linalg.norm of the normals held 40 bytes a point: 1.60 MB here
        pts, normals = rng.normal(size=(40_000, 3)), random_units(rng, 40_000)
        tracemalloc.start()
        try:
            PointCloud(points=pts, normals=normals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6, peak


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
            si, sd = knn_widening(idx, t, 7)
            assert np.array_equal(bi[t], si)
            assert np.allclose(bd[t], sd)

    @pytest.mark.parametrize("k", [1, 6, 26, 60])
    def test_knn_batch_matches_single_on_ties(self, k):
        pts = tie_grid()
        idx = build_index(PointCloud(points=pts))
        bi, bd = idx.knn_batch(k)
        for t in range(len(pts)):
            si, sd = knn_widening(idx, t, k)
            assert np.array_equal(bi[t], si), t
            assert np.array_equal(bd[t], sd), t

    @pytest.mark.parametrize("k", [1, 6, 26, 60])
    def test_knn_batch_rows_match_single_on_ties(self, k, rng):
        pts = tie_grid()
        idx = build_index(PointCloud(points=pts))
        # rows whose tie crosses the tree query's cut are queried again wider
        ties = widened_rows(pts, k)
        assert ties
        for _ in range(5):
            rows = np.concatenate([rng.choice(idx.n_points, 30, replace=False),
                                   rng.choice(ties, 3)])
            rng.shuffle(rows)
            bi, bd = idx.knn_batch(k, rows)
            assert bi.shape == bd.shape == (len(rows), k)
            for r, t in enumerate(rows):
                si, sd = knn_widening(idx, int(t), k)
                assert np.array_equal(bi[r], si), t
                assert np.array_equal(bd[r], sd), t

    def test_tie_free_query_skips_the_tie_path(self, monkeypatch, rng):
        # a slice with no tied row makes no lexsort call and keeps the bytes;
        # the tied grid shows the patched lexsort is the one knn_batch calls
        pts = np.vstack([rng.normal(size=(300, 3)), tie_grid() + 50])
        idx = build_index(PointCloud(points=pts))
        want = {k: [knn_widening(idx, t, k) for t in range(300)] for k in (1, 8, 40)}
        calls, lexsort = [], np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda *a, **kw: calls.append(1) or lexsort(*a, **kw))
        for k, rows in want.items():
            got_i, got_d = idx.knn_batch(k, np.arange(300))
            one_i, one_d = idx.knn(7, k)
            assert calls == [], k
            for t, (want_i, want_d) in enumerate(rows):
                assert got_i[t].tobytes() == want_i.tobytes()
                assert got_d[t].tobytes() == want_d.tobytes()
            assert one_i.tobytes() == rows[7][0].tobytes() and one_d.tobytes() == rows[7][1].tobytes()
        idx.knn_batch(8, [300])
        assert calls

    @pytest.mark.parametrize("elements", [1, 100, 1000])
    def test_knn_batch_slices_change_no_byte(self, elements, monkeypatch, rng):
        # one row per tree query, and slices that split the first round and
        # the widened ones into several queries each; tied and untied rows
        idx = build_index(PointCloud(points=np.vstack([tie_grid(), rng.normal(size=(60, 3)) + 20])))
        for k in (1, 6, 26):
            want_i, want_d = idx.knn_batch(k)
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
            got_i, got_d = idx.knn_batch(k)
            monkeypatch.undo()
            assert got_i.tobytes() == want_i.tobytes() and got_d.tobytes() == want_d.tobytes(), k

    def test_knn_batch_widens_rows_over_several_rounds_in_one_call(self, rng):
        # the origin and the 30 integer points at distance exactly 3 from it,
        # an octahedron (a centre and its 6 points at distance 1) and 40
        # untied random points, all far apart
        shell = {q for base in ((3, 0, 0), (2, 2, 1)) for p in permutations(base)
                 for q in product(*[(c, -c) for c in p])}
        assert len(shell) == 30
        octahedron = np.vstack([np.zeros(3), np.eye(3), -np.eye(3)]) + [0, 0, 20]
        pts = np.vstack([np.zeros(3), sorted(shell), octahedron, rng.normal(size=(40, 3)) + 50])
        idx = build_index(PointCloud(points=pts))
        # at k = 1 the queries hold 4, 8, 16 and 32 points: the origin needs
        # all four, a shell point on an axis three, the octahedron's centre
        # two, the other shell points and the random ones one
        rounds = {0: 4, 1: 3, 30: 3, 31: 2, 2: 1, 21: 1, 32: 1}
        rows = np.concatenate([list(rounds), rng.choice(np.arange(38, 78), 12, replace=False)])
        rng.shuffle(rows)
        tree, queries = idx._tree, []

        class Logged:
            def query(self, x, k):
                queries.append((x.copy(), k))
                return tree.query(x, k=k)

        idx._tree = Logged()
        got_i, got_d = idx.knn_batch(1, rows)
        idx._tree = tree
        assert [k for _, k in queries] == [4, 8, 16, 32]
        for r, t in enumerate(rows):
            asked = sum((x == pts[t]).all(axis=1).any() for x, _ in queries)
            assert asked == rounds.get(t, 1), t
            want_i, want_d = brute_force_knn(pts, int(t), 1)
            assert np.array_equal(got_i[r], want_i), t
            assert np.allclose(got_d[r], want_d)
            si, sd = idx.knn(int(t), 1)
            assert np.array_equal(si, got_i[r]) and np.array_equal(sd, got_d[r]), t

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


class TestNeighborhoods:
    """`NeighborIndex.neighborhoods`, the library's one neighbourhood gather:
    each row's `knn_batch` neighbours, then the point itself."""

    @pytest.mark.parametrize("tied", [False, True], ids=["random", "tied-lattice"])
    @pytest.mark.parametrize("k", [1, 6, 40])
    def test_equals_the_knn_batch_gather_with_the_point_last(self, tied, k, rng):
        pts = tie_grid() if tied else rng.normal(size=(175, 3))
        index = build_index(PointCloud(points=pts))
        rows = np.array([0, 17, 3, len(pts) - 1, 17, 60])
        ids, want_d = index.knn_batch(k, rows)
        want = np.concatenate([pts[ids], pts[rows][:, None]], axis=1)
        got, dist = index.neighborhoods(k, rows)
        assert got.shape == (len(rows), k + 1, 3)
        assert got.tobytes() == want.tobytes() and dist.tobytes() == want_d.tobytes()
        buf = np.full_like(want, np.nan)
        into, dist = index.neighborhoods(k, rows, out=buf)
        assert into is buf and buf.tobytes() == want.tobytes()
        assert dist.tobytes() == want_d.tobytes()

    def test_no_rows(self, rng):
        index = build_index(PointCloud(points=rng.normal(size=(10, 3))))
        pts, dist = index.neighborhoods(3, [])
        assert pts.shape == (0, 4, 3) and dist.shape == (0, 3)

    @pytest.mark.parametrize("k", [-2, -1, 0, 10, 11])
    def test_a_bad_k_raises_what_knn_batch_raises(self, k, rng):
        index = build_index(PointCloud(points=rng.normal(size=(10, 3))))
        with pytest.raises(ValueError) as want:
            index.knn_batch(k, [0, 1])
        with pytest.raises(ValueError) as got:
            index.neighborhoods(k, [0, 1])
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


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
        got = angles_unoriented(np.array([[0.0, 0, 1]] * 3),
                                np.array([[0.0, 0, 1], [0, 0, -1], [1, 0, 0]]))
        assert got == pytest.approx([0.0, 0.0, 90.0])

    def test_angle_antipodal_invariance(self, rng):
        us = random_units(rng, 40)
        vs = random_units(rng, 40)
        assert angles_unoriented(us, vs) == pytest.approx(angles_unoriented(-us, vs))
