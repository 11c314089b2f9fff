from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normfit import (
    EstimationParams,
    NoiseSpec,
    PointCloud,
    RunReport,
    ShapeSpec,
    add_noise,
    build_index,
    chamfer,
    denoise_all,
    denoise_point,
    estimate_all,
    gen_shape,
    rms_angle,
)
from normfit.geometry import angles_unoriented
from normfit.pipeline import point_rng
from normfit.synth import SHAPE_KINDS, surface_distance


def wedge_cloud(n=3000, noise=0.0, seed=0):
    clean = gen_shape(ShapeSpec(kind="wedge", n_points=n, seed=seed))
    noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=noise, seed=seed + 1))
    return clean, noisy


class TestEstimate:
    def test_exact_plane(self):
        cloud = gen_shape(ShapeSpec(kind="plane", n_points=400, seed=1))
        est, report = estimate_all(cloud, EstimationParams(seed=2))
        up = np.tile([0.0, 0, 1], (len(est.normals), 1))
        assert (angles_unoriented(est.normals, up) < 0.1).all()
        assert (report.survivors <= 100).all()

    def test_all_normals_equal_on_plane(self):
        cloud = gen_shape(ShapeSpec(kind="plane", n_points=300, seed=3))
        est, _ = estimate_all(cloud, EstimationParams(seed=4))
        assert np.allclose(est.normals, est.normals[0], atol=1e-6)

    def test_wedge_near_edge_snaps_to_face(self):
        clean, _ = wedge_cloud(n=4000, noise=0.0, seed=5)
        pts = clean.points
        # sampling spacing: each face has unit area, so sqrt(area / n)
        spacing = np.sqrt(1.0 / 4000)
        # face-A points roughly 3 spacings from the fold (y ~ 3*spacing)
        on_a = np.flatnonzero((pts[:, 2] == 0)
                              & (np.abs(pts[:, 1] - 3 * spacing) < 0.2 * spacing))
        assert len(on_a) > 0
        est, _ = estimate_all(clean, EstimationParams(seed=6))
        blur = np.array([0, -1, 1]) / np.sqrt(2)   # average of the two faces
        ang_face = angles_unoriented(est.normals[on_a], np.tile([0.0, 0, 1], (len(on_a), 1)))
        ang_blur = angles_unoriented(est.normals[on_a], np.tile(blur, (len(on_a), 1)))
        assert (ang_face < 5.0).all()
        assert (ang_blur > 30.0).all()

    def test_mode_matches_grid_oracle_right_at_edge(self):
        # So close to the fold that half the neighborhood lies on the other
        # face, the kept candidates form a genuinely blurred set.  The solver
        # must still land on the global mode of that set: compare its loss
        # against an exhaustive 1-degree grid search over the sphere.
        from conftest import grid_min_normal
        from normfit import rejection_sigma
        from normfit.candidates import (reject_candidates, sample_normal_candidates,
                                        score_candidates)
        from normfit.consensus import ccn_loss
        from normfit.pipeline import estimate_normal

        clean, _ = wedge_cloud(n=4000, noise=0.0, seed=5)
        index = build_index(clean)
        pts = clean.points
        nn_spacing = np.median(index.knn_batch(1)[1])
        on_a = np.flatnonzero((pts[:, 2] == 0)
                              & (np.abs(pts[:, 1] - 3 * nn_spacing) < nn_spacing))
        t = int(on_a[0])
        params = EstimationParams(seed=6)
        ids, _ = index.knn(t, 32)
        nbrs = pts[ids] - pts[t]       # estimate_normal works relative to the query point
        cands = sample_normal_candidates(nbrs, params.sampling, point_rng(6, t))
        cands.scores = score_candidates(nbrs, cands, rejection_sigma(
            np.linalg.norm(nbrs, axis=1)))
        kept = reject_candidates(cands, params.sampling.rejection_fraction_normals)
        _, oracle_loss = grid_min_normal(kept.normals, params.consensus.tau_normal,
                                         step_deg=1.0)
        n_hat, _ = estimate_normal(index, t, 0.0, params)
        solver_loss = ccn_loss(n_hat, kept.normals, params.consensus.tau_normal)
        assert solver_loss <= oracle_loss + 1e-9

    def test_deterministic_across_threads_and_runs(self):
        _, noisy = wedge_cloud(n=300, noise=0.5, seed=7)
        params = EstimationParams(seed=8)
        ref, _ = estimate_all(noisy, params, n_threads=1)
        for n_threads in (4, 8):
            out, _ = estimate_all(noisy, params, n_threads=n_threads)
            assert out.normals.tobytes() == ref.normals.tobytes()
        again, _ = estimate_all(noisy, params, n_threads=1)
        assert again.normals.tobytes() == ref.normals.tobytes()

    def test_seed_changes_output_but_not_quality(self):
        # quality is compared as a mean over several clouds; a single small
        # cloud has too much per-point variance for a 0.5-degree band
        rms = {1: [], 2: []}
        for cloud_seed in (9, 29, 49):
            clean, noisy = wedge_cloud(n=800, noise=0.5, seed=cloud_seed)
            a, _ = estimate_all(noisy, EstimationParams(seed=1))
            b, _ = estimate_all(noisy, EstimationParams(seed=2))
            assert not np.array_equal(a.normals, b.normals)
            rms[1].append(rms_angle(a.normals, clean.normals))
            rms[2].append(rms_angle(b.normals, clean.normals))
        assert abs(np.mean(rms[1]) - np.mean(rms[2])) < 0.5

    def test_small_cloud_clamps_k_hat(self):
        cloud = gen_shape(ShapeSpec(kind="sphere", n_points=20, seed=10))
        est, report = estimate_all(cloud, EstimationParams(seed=11))
        assert report.k_hat == 19
        assert est.normals.shape == (20, 3)

    def test_point_rng_streams_independent(self):
        a = point_rng(42, 0)
        b = point_rng(42, 1)
        c = point_rng(42, 0)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestDenoise:
    def test_clean_plane_identity(self):
        cloud = gen_shape(ShapeSpec(kind="plane", n_points=2000, seed=12))
        out = denoise_all(cloud, EstimationParams(seed=13))
        # stays on the plane to solver tolerance; tangential drift allowed
        assert np.abs(out.points[:, 2]).max() < 1e-6 * cloud.bbox_diagonal()

    def test_noisy_plane_moves_toward_plane(self):
        spec = ShapeSpec(kind="plane", n_points=5000, seed=14)
        clean = gen_shape(spec)
        noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=1.0, seed=15))
        out = denoise_all(noisy, EstimationParams(seed=16))
        before = np.abs(noisy.points[:, 2]).mean()
        after = np.abs(out.points[:, 2]).mean()
        assert after < 0.5 * before

    def test_outlier_pulled_to_plane(self):
        cloud = gen_shape(ShapeSpec(kind="plane", n_points=2000, seed=17))
        pts = cloud.points.copy()
        pts[0] = [0.0, 0.0, 0.3]       # isolated far outlier
        noisy = PointCloud(points=pts)
        index = build_index(noisy)
        _, d = index.knn(0, 12)
        sigma = float(d.mean())
        moved = denoise_point(index, 0, EstimationParams(seed=18))
        assert abs(moved[2]) < 3 * sigma

    def test_chamfer_decreases(self):
        spec = ShapeSpec(kind="plane", n_points=5000, seed=19)
        clean = gen_shape(spec)
        noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=1.0, seed=20))
        out = denoise_all(noisy, EstimationParams(seed=21))
        assert chamfer(out, clean) < chamfer(noisy, clean)

    @pytest.mark.parametrize("scale", [1e-6, 1e3])
    def test_scale_invariant(self, scale):
        # the position solver's step tolerance is relative to each point's
        # bandwidth; an absolute one stopped after the first step at scale 1e-6
        clean = gen_shape(ShapeSpec(kind="plane", n_points=300, seed=31))
        noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=1.0, seed=32))
        params = EstimationParams(seed=33)
        ref = denoise_all(noisy, params).points
        out = denoise_all(PointCloud(points=noisy.points * scale), params).points / scale
        noise_sigma = 0.01 * clean.bbox_diagonal()
        assert np.abs(out - ref).max() < 1e-3 * noise_sigma

    def test_deterministic_across_threads(self):
        spec = ShapeSpec(kind="plane", n_points=300, seed=22)
        noisy = add_noise(gen_shape(spec), NoiseSpec(std_pct_bbox_diag=1.0, seed=23))
        params = EstimationParams(seed=24)
        ref = denoise_all(noisy, params, n_threads=1)
        out = denoise_all(noisy, params, n_threads=8)
        assert out.points.tobytes() == ref.points.tobytes()


class TestEquivariance:
    def test_rigid_rotation_of_normals(self, rng):
        clean, noisy = wedge_cloud(n=600, noise=0.3, seed=25)
        params = EstimationParams(seed=26)
        base, _ = estimate_all(noisy, params)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = PointCloud(points=noisy.points @ q.T)
        rot, _ = estimate_all(rotated, params)
        errs = angles_unoriented(rot.normals, base.normals @ q.T)
        assert float(np.sqrt(np.mean(np.square(errs)))) < 0.5

    @settings(max_examples=10, deadline=None)
    @given(kind=st.sampled_from(SHAPE_KINDS), noise=st.sampled_from([0.0, 1.0]),
           seed=st.integers(0, 2**16), j=st.integers(-40, 60))
    def test_power_of_two_scale_is_byte_exact(self, kind, noise, seed, j):
        # scaling by 2**j is exact in floating point and every stage is
        # scale-free (bandwidths, tol_pos * sigma, the closed-form eigen
        # ratios), so the scaled cloud gives the same bytes
        cloud = add_noise(gen_shape(ShapeSpec(kind=kind, n_points=300, seed=seed)),
                          NoiseSpec(std_pct_bbox_diag=noise, seed=seed + 1))
        scaled = PointCloud(points=cloud.points * 2.0 ** j)
        params = EstimationParams(seed=seed)
        (base, base_report), (out, report) = (estimate_all(c, params) for c in (cloud, scaled))
        assert out.normals.tobytes() == base.normals.tobytes()
        assert report.k_hat == base_report.k_hat
        for f in fields(RunReport)[1:]:
            assert getattr(report, f.name).tobytes() == getattr(base_report, f.name).tobytes(), f.name
        moved = denoise_all(cloud, params).points * 2.0 ** j
        assert denoise_all(scaled, params).points.tobytes() == moved.tobytes()
