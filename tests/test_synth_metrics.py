import numpy as np
import pytest
from scipy.spatial import cKDTree

from normfit import (
    EvalReport,
    NoiseSpec,
    PointCloud,
    ShapeSpec,
    add_noise,
    chamfer,
    evaluate_normals,
    gen_shape,
    p2s,
    pca_baseline,
    pgp,
    rms_angle,
    rms_tau,
)
from normfit.metrics import CSV_HEADER
from normfit.synth import surface_distance


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def tilted(angle_deg):
    """Unit vector at the given angle from e_z, tilted in the x-z plane."""
    a = np.radians(angle_deg)
    return np.array([np.sin(a), 0.0, np.cos(a)])


class TestGenShape:
    def test_plane_flat_and_inside(self):
        cloud = gen_shape(ShapeSpec(kind="plane", n_points=500, extent=2.0, seed=0))
        assert np.all(cloud.points[:, 2] == 0.0)
        assert np.all(np.abs(cloud.points[:, :2]) <= 1.0)
        assert np.allclose(cloud.normals, [0, 0, 1])

    def test_sphere_radius_and_outward_normals(self):
        cloud = gen_shape(ShapeSpec(kind="sphere", n_points=500, extent=2.0, seed=1))
        r = np.linalg.norm(cloud.points, axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)
        assert np.allclose(cloud.normals, cloud.points, atol=1e-12)

    def test_cylinder_radius_and_radial_normals(self):
        cloud = gen_shape(ShapeSpec(kind="cylinder", n_points=400, extent=1.0, seed=2))
        rho = np.hypot(cloud.points[:, 0], cloud.points[:, 1])
        assert np.allclose(rho, 0.5, atol=1e-12)
        assert np.all(np.abs(cloud.points[:, 2]) <= 0.5)
        radial = cloud.points[:, :2] / rho[:, None]
        assert np.allclose(cloud.normals[:, :2], radial, atol=1e-12)
        assert np.allclose(cloud.normals[:, 2], 0.0)

    def test_cube_on_faces_with_axis_normals(self):
        cloud = gen_shape(ShapeSpec(kind="cube", n_points=600, extent=1.0, seed=3))
        on_face = np.isclose(np.abs(cloud.points), 0.5).any(axis=1)
        assert np.all(on_face)
        assert np.all(np.abs(cloud.points) <= 0.5 + 1e-12)
        # every normal is a signed coordinate axis pointing out of its face
        hits = np.isclose(np.abs(cloud.normals), 1.0)
        assert np.all(hits.sum(axis=1) == 1)
        axis = np.argmax(hits, axis=1)
        picked = cloud.normals[np.arange(len(cloud)), axis]
        assert np.allclose(cloud.points[np.arange(len(cloud)), axis], 0.5 * picked)

    def test_wedge_right_angle_faces(self):
        cloud = gen_shape(ShapeSpec(kind="wedge", n_points=400, seed=4))
        pts, nrm = cloud.points, cloud.normals
        face_a = np.isclose(pts[:, 2], 0.0)
        face_b = ~face_a
        assert np.allclose(nrm[face_a], [0, 0, 1])
        # 90-degree dihedral folds face B onto the x-z plane
        assert np.allclose(pts[face_b][:, 1], 0.0, atol=1e-12)
        assert np.allclose(nrm[face_b], [0, -1, 0], atol=1e-12)

    def test_wedge_dihedral_angle(self):
        cloud = gen_shape(ShapeSpec(kind="wedge", n_points=400, seed=5,
                                    dihedral_deg=60.0))
        face_b = ~np.isclose(cloud.points[:, 2], 0.0)
        nb = cloud.normals[face_b][0]
        assert np.degrees(np.arccos(np.clip(nb @ [0, 0, 1], -1, 1))) == pytest.approx(60.0)

    def test_deterministic_per_seed(self):
        a = gen_shape(ShapeSpec(kind="sphere", n_points=100, seed=9))
        b = gen_shape(ShapeSpec(kind="sphere", n_points=100, seed=9))
        c = gen_shape(ShapeSpec(kind="sphere", n_points=100, seed=10))
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_unit_normals_all_kinds(self):
        for kind in ("plane", "sphere", "cylinder", "cube", "wedge"):
            cloud = gen_shape(ShapeSpec(kind=kind, n_points=200, seed=6))
            assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-12)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            ShapeSpec(kind="torus")
        with pytest.raises(ValueError):
            ShapeSpec(kind="plane", n_points=5)
        with pytest.raises(ValueError):
            ShapeSpec(kind="plane", extent=0.0)


class TestAddNoise:
    def test_zero_noise_is_copy(self):
        clean = gen_shape(ShapeSpec(kind="plane", n_points=100, seed=0))
        out = add_noise(clean, NoiseSpec(std_pct_bbox_diag=0.0, seed=1))
        assert np.array_equal(out.points, clean.points)
        assert out.points is not clean.points

    def test_std_matches_requested_fraction(self):
        # Monte Carlo: the empirical std of the displacement must match
        # pct/100 of the bounding-box diagonal
        clean = gen_shape(ShapeSpec(kind="plane", n_points=20000, seed=2))
        pct = 1.0
        noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=pct, seed=3))
        disp = noisy.points - clean.points
        want = pct / 100.0 * clean.bbox_diagonal()
        got = disp.std()
        assert abs(got - want) / want < 0.02
        # isotropic: per-axis stds agree with each other
        per_axis = disp.std(axis=0)
        assert per_axis.max() / per_axis.min() < 1.05

    def test_normals_carried_over(self):
        clean = gen_shape(ShapeSpec(kind="sphere", n_points=100, seed=4))
        noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=0.5, seed=5))
        assert np.array_equal(noisy.normals, clean.normals)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(std_pct_bbox_diag=-1.0)


class TestSurfaceDistance:
    def test_plane(self):
        spec = ShapeSpec(kind="plane", n_points=10, extent=2.0)
        d = surface_distance(np.array([[0.3, -0.1, 0.25], [0, 0, 0]]), spec)
        assert np.allclose(d, [0.25, 0.0])

    def test_sphere_inside_and_outside(self):
        spec = ShapeSpec(kind="sphere", n_points=10, extent=2.0)
        d = surface_distance(np.array([[0.5, 0, 0], [2.0, 0, 0], [0, 0, 0]]), spec)
        assert np.allclose(d, [0.5, 1.0, 1.0])

    def test_cylinder(self):
        spec = ShapeSpec(kind="cylinder", n_points=10, extent=2.0)
        d = surface_distance(np.array([[1.5, 0, 0.3], [0, 0.5, -5.0]]), spec)
        assert np.allclose(d, [0.5, 0.5])

    def test_cube_face_and_corner(self):
        spec = ShapeSpec(kind="cube", n_points=10, extent=2.0)
        pts = np.array([
            [1.5, 0.0, 0.0],     # 0.5 past the +x face
            [0.0, 0.0, 0.0],     # center: 1 from every face
            [2.0, 2.0, 2.0],     # beyond the (1,1,1) corner
        ])
        d = surface_distance(pts, spec)
        assert np.allclose(d, [0.5, 1.0, np.sqrt(3.0)])

    def test_wedge_zero_on_surface(self):
        spec = ShapeSpec(kind="wedge", n_points=400, seed=7)
        cloud = gen_shape(spec)
        assert np.allclose(surface_distance(cloud.points, spec), 0.0, atol=1e-12)

    def test_wedge_off_face_and_past_edge(self):
        spec = ShapeSpec(kind="wedge", n_points=10)
        pts = np.array([
            [0.0, 0.2, 0.1],       # 0.1 above face A
            [0.0, -0.3, -0.4],     # behind the fold: nearest point is the edge
        ])
        d = surface_distance(pts, spec)
        assert np.allclose(d, [0.1, 0.5])


class TestAngleMetrics:
    def test_rms_hand_values(self):
        est = np.array([tilted(0), tilted(90)])
        gt = np.tile([0.0, 0.0, 1.0], (2, 1))
        assert rms_angle(est, gt) == pytest.approx(np.sqrt(4050.0), abs=1e-9)

    def test_rms_zero(self, rng):
        from conftest import random_units
        v = random_units(rng, 20)
        assert rms_angle(v, v) == pytest.approx(0.0, abs=1e-5)
        assert rms_angle(v, -v) == pytest.approx(0.0, abs=1e-5)

    def test_rms_tau_caps_outliers(self):
        gt = np.tile([0.0, 0.0, 1.0], (1, 1))
        assert rms_tau([tilted(11)], gt, tau_deg=10.0) == pytest.approx(90.0)
        est = np.array([tilted(5), tilted(85)])
        gt2 = np.tile([0.0, 0.0, 1.0], (2, 1))
        assert rms_tau(est, gt2, tau_deg=10.0) == pytest.approx(np.sqrt(4062.5), abs=1e-6)
        # below the cap it coincides with plain rms
        assert rms_tau(est, gt2, tau_deg=89.0) == pytest.approx(rms_angle(est, gt2), abs=1e-9)

    def test_pgp_strict_threshold(self):
        gt = np.tile([0.0, 0.0, 1.0], (4, 1))
        est = np.array([tilted(0), tilted(4), tilted(12), tilted(20)])
        assert pgp(est, gt, 5.0) == pytest.approx(0.5)
        assert pgp(est, gt, 25.0) == pytest.approx(1.0)
        assert pgp(est, gt, 0.5) == pytest.approx(0.25)
        # the threshold itself is excluded: orthogonal axes give an exact
        # 90-degree error, which must not count as "below 90"
        ex = np.array([[1.0, 0.0, 0.0]])
        ez = np.array([[0.0, 0.0, 1.0]])
        assert pgp(ex, ez, 90.0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rms_angle(np.zeros((3, 3)), np.zeros((4, 3)))


class TestChamfer:
    def test_identical_clouds(self, rng):
        pts = rng.normal(size=(50, 3))
        c = PointCloud(points=pts)
        assert chamfer(c, c) == pytest.approx(0.0)

    def test_hand_value(self):
        a = PointCloud(points=[[0, 0, 0], [1, 0, 0]])
        b = PointCloud(points=[[0, 0, 0.1], [1, 0, 0], [2, 0, 0]])
        # a->b: 0.1^2 and 0; b->a: 0.1^2, 0, 1
        want = 0.5 * ((0.01 + 0) / 2 + (0.01 + 0 + 1.0) / 3)
        assert chamfer(a, b) == pytest.approx(want, abs=1e-12)

    def test_symmetric(self, rng):
        a = PointCloud(points=rng.normal(size=(40, 3)))
        b = PointCloud(points=rng.normal(size=(60, 3)))
        assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-15)

    def test_matches_brute_force(self, rng):
        a = rng.normal(size=(25, 3))
        b = rng.normal(size=(30, 3))
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        want = 0.5 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())
        got = chamfer(PointCloud(points=a), PointCloud(points=b))
        assert got == pytest.approx(want, abs=1e-12)

    def test_grows_with_noise(self):
        clean = gen_shape(ShapeSpec(kind="sphere", n_points=2000, seed=8))
        small = add_noise(clean, NoiseSpec(std_pct_bbox_diag=0.5, seed=9))
        large = add_noise(clean, NoiseSpec(std_pct_bbox_diag=2.0, seed=9))
        assert chamfer(clean, small) < chamfer(clean, large)


class TestP2S:
    def test_clean_shape_zero(self):
        for kind in ("plane", "sphere", "cylinder", "cube", "wedge"):
            spec = ShapeSpec(kind=kind, n_points=300, seed=10)
            assert p2s(gen_shape(spec), spec) == pytest.approx(0.0, abs=1e-12)

    def test_offset_plane(self):
        spec = ShapeSpec(kind="plane", n_points=100, seed=11)
        cloud = gen_shape(spec)
        shifted = PointCloud(points=cloud.points + [0, 0, 0.07])
        assert p2s(shifted, spec) == pytest.approx(0.07)


class TestEvaluateReport:
    def test_report_roundtrip(self):
        gt = gen_shape(ShapeSpec(kind="sphere", n_points=300, seed=12))
        est = PointCloud(points=gt.points, normals=gt.normals)
        rep = evaluate_normals(est, gt, cd=0.5, p2s_val=0.25)
        assert rep.rms_deg == pytest.approx(0.0, abs=1e-5)
        assert rep.pgp[5.0] == pytest.approx(1.0)
        row = rep.as_csv_row()
        assert len(row.split(",")) == 11
        assert "cd = 0.5" in rep.as_text()
        # text lines, CSV cells and header columns come from one field list
        columns = CSV_HEADER.split(",")
        assert [ln.split(" = ")[0] for ln in rep.as_text().splitlines()] == columns
        assert len(row.split(",")) == len(columns)
        position_only = EvalReport(cd=0.5)
        assert position_only.as_text() == "cd = 0.5"
        assert position_only.as_csv_row() == "," * 9 + "0.5,"

    def test_missing_normals(self):
        a = PointCloud(points=np.zeros((5, 3)))
        with pytest.raises(ValueError):
            evaluate_normals(a, a)

    def test_optional_fields_blank_in_csv(self):
        rep = EvalReport(rms_deg=1.0,
                         rms_tau={t: 1.0 for t in (10.0, 15.0, 20.0)},
                         pgp={a: 1.0 for a in (5.0, 10.0, 15.0, 20.0, 25.0)})
        assert rep.as_csv_row().endswith(",,")


class TestPcaBaseline:
    def test_exact_plane(self):
        cloud = gen_shape(ShapeSpec(kind="plane", n_points=500, seed=13))
        est = pca_baseline(cloud, k=10)
        assert rms_angle(est.normals, cloud.normals) < 1e-5

    def test_matches_per_point_eigendecomposition(self, rng):
        pts = rng.normal(size=(40, 3))
        cloud = PointCloud(points=pts)
        est = pca_baseline(cloud, k=8)
        tree = cKDTree(pts)
        for t in range(40):
            d, i = tree.query(pts[t], k=9)
            nb = pts[i]
            q = nb - nb.mean(axis=0)
            _, v = np.linalg.eigh(q.T @ q / len(nb))
            want = v[:, 0]
            dot = abs(float(est.normals[t] @ want))
            assert dot == pytest.approx(1.0, abs=1e-9)

    def test_sphere_reasonable(self):
        cloud = gen_shape(ShapeSpec(kind="sphere", n_points=3000, seed=14))
        est = pca_baseline(cloud, k=16)
        assert rms_angle(est.normals, cloud.normals) < 3.0
