import numpy as np
import pytest

from normfit import (
    AdaptiveConfig,
    EstimationParams,
    PointCloud,
    ShapeSpec,
    adaptive_k,
    build_index,
    cloud_noise_scale,
    estimate_all,
    gen_shape,
    rejection_enabled,
    rms_angle,
)

from conftest import point_noise_level

CFG = AdaptiveConfig()


def make_cloud(pts):
    return PointCloud(points=pts)


def rotated_clean_planes(n_rotations=20):
    """A clean 600-point plane in random general orientations: (cloud, true normals)."""
    clean = gen_shape(ShapeSpec(kind="plane", n_points=600, seed=0))
    rng = np.random.default_rng(2304)
    for _ in range(n_rotations):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        yield make_cloud(clean.points @ q.T), clean.normals @ q.T


class TestPointNoiseLevel:
    def test_exact_plane_is_zero(self, rng):
        pts = np.zeros((80, 3))
        pts[:, :2] = rng.uniform(-1, 1, (80, 2))
        cloud = make_cloud(pts)
        f = point_noise_level(cloud, build_index(cloud), 0, k_f=40)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_blob_is_one_third(self):
        # the smallest-eigenvalue share is biased slightly below 1/3 at small
        # sample sizes; 500 samples sit right at the 0.02 band
        pts = np.random.default_rng(7).normal(size=(500, 3))
        cloud = make_cloud(pts)
        f = point_noise_level(cloud, build_index(cloud), 0, k_f=499)
        assert abs(f - 1 / 3) < 0.02

    def test_isotropic_blob_converges_with_more_samples(self):
        pts = np.random.default_rng(7).normal(size=(5000, 3))
        cloud = make_cloud(pts)
        f = point_noise_level(cloud, build_index(cloud), 0, k_f=4999)
        assert abs(f - 1 / 3) < 0.01

    def test_noisy_plane_strictly_between(self, rng):
        pts = np.zeros((300, 3))
        pts[:, :2] = rng.uniform(-0.5, 0.5, (300, 2))
        pts[:, 2] = rng.normal(0, 0.05, 300)
        cloud = make_cloud(pts)
        f = point_noise_level(cloud, build_index(cloud), 0, k_f=64)
        assert 0.0 < f < 1 / 3

    def test_rigid_invariance(self, rng):
        pts = rng.normal(size=(100, 3)) * [1, 0.5, 0.05]
        cloud = make_cloud(pts)
        f0 = point_noise_level(cloud, build_index(cloud), 3, k_f=30)
        # random rotation via QR
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = make_cloud(pts @ q.T + [5.0, -2.0, 1.0])
        f1 = point_noise_level(moved, build_index(moved), 3, k_f=30)
        assert abs(f0 - f1) < 1e-9

    def test_scale_invariance(self, rng):
        pts = rng.normal(size=(100, 3)) * [1, 0.5, 0.05]
        cloud = make_cloud(pts)
        f0 = point_noise_level(cloud, build_index(cloud), 7, k_f=30)
        scaled = make_cloud(pts * 37.5)
        f1 = point_noise_level(scaled, build_index(scaled), 7, k_f=30)
        assert abs(f0 - f1) < 1e-9


class TestCloudNoiseScale:
    def test_mean_matches_per_point(self, rng):
        pts = rng.normal(size=(60, 3))
        cloud = make_cloud(pts)
        index = build_index(cloud)
        profile = cloud_noise_scale(index, k_f=20)
        per_point = [point_noise_level(cloud, index, t, k_f=20) for t in range(60)]
        assert np.allclose(profile.per_point_f, per_point, atol=1e-10)
        assert profile.cloud_f == pytest.approx(np.mean(per_point))

    def test_bounded(self, rng):
        pts = rng.normal(size=(100, 3))
        cloud = make_cloud(pts)
        profile = cloud_noise_scale(build_index(cloud), k_f=30)
        assert np.all(profile.per_point_f >= 0)
        assert np.all(profile.per_point_f <= 1 / 3 + 1e-9)


class TestRotatedCleanPlane:
    # eigenvalue round-off on a tilted exact plane must not give a negative
    # noise level, which made adaptive_k reject the cloud
    def test_noise_levels_nonnegative(self):
        for cloud, _ in rotated_clean_planes():
            profile = cloud_noise_scale(build_index(cloud))
            assert np.all(profile.per_point_f >= 0.0)

    def test_estimate_completes(self):
        for cloud, normals in rotated_clean_planes():
            est, _ = estimate_all(cloud, EstimationParams(seed=0))
            assert rms_angle(est.normals, normals) < 1e-3


class TestAdaptiveK:
    @pytest.mark.parametrize("f,expected", [
        (0.01, 32),
        (0.15, 256),
        (0.02, 128),     # half-open boundary: l1 <= f < l2
        (0.0, 32),
        (0.14, 256),
        (0.16, 450),
        (0.3, 450),      # clamp at and above the last threshold
        (5.0, 450),
        (float("nan"), 450),
    ])
    def test_lookup(self, f, expected):
        assert adaptive_k(f, CFG) == expected

    def test_monotone(self):
        # a table whose first threshold is above 0: f below it takes the smallest size
        raised = AdaptiveConfig(thresholds=(0.01, 0.02, 0.14, 0.16, 0.3))
        fs = np.linspace(0, 0.5, 400)
        for cfg in (CFG, raised):
            ks = [adaptive_k(float(f), cfg) for f in fs]
            assert all(a <= b for a, b in zip(ks, ks[1:])), cfg
        assert [adaptive_k(f, raised) for f in (0.0, 0.005, 0.01)] == [32, 32, 32]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            adaptive_k(-0.1, CFG)


class TestRejectionEnabled:
    def test_examples(self):
        assert rejection_enabled(0.0, CFG) is True
        assert rejection_enabled(0.1, CFG) is True
        assert rejection_enabled(0.14, CFG) is False
        assert rejection_enabled(0.25, CFG) is False


class TestAdaptiveConfigValidation:
    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(thresholds=(0.0, 0.5, 0.1, 0.6, 0.9))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(sizes=(128, 32, 256, 450))

    def test_equal_thresholds(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(thresholds=(0.0, 0.02, 0.02, 0.16, 0.3))

    def test_equal_sizes(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(sizes=(32, 128, 128, 450))

    def test_rejection_interval_out_of_range(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(rejection_interval_max=5)
