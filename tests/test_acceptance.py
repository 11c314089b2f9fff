"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `criterion N ... : PASS` line on success (visible
with pytest -v -s, or implicitly via the test's PASSED/FAILED status) and
enforces the stated runtime budget where one applies.
"""

import time

import numpy as np
import pytest

from normfit import (
    EstimationParams,
    NoiseSpec,
    PointCloud,
    SamplingParams,
    ShapeSpec,
    add_noise,
    adaptive_k,
    build_index,
    chamfer,
    denoise_all,
    estimate_all,
    gen_shape,
    p2s,
    pca_baseline,
    pgp,
    rejection_sigma,
    rms_angle,
    rms_tau,
)
from normfit.candidates import (CandidatePlanes, reject_candidates, sample_normal_candidates,
                                score_candidates)
from normfit.consensus import ConsensusParams, ccn_loss, normal_mode
from normfit.noise import AdaptiveConfig, cloud_noise_scale
from normfit.pipeline import point_rng

from conftest import fit_plane, grid_min_normal

EZ = np.array([0.0, 0.0, 1.0])


def _report(name, ok, detail):
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _principal(normals):
    _, v = np.linalg.eigh(normals.T @ normals)
    return v[:, 2]


def _angle(u, v):
    return float(np.degrees(np.arccos(min(1.0, abs(float(np.dot(u, v)))))))


class TestAcceptance:
    def test_criterion_1_candidate_expectation_monte_carlo(self):
        # principal direction of 10k random plane candidates on a noisy disk
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        n = 400
        r = np.sqrt(rng.uniform(0, 1, n))
        phi = rng.uniform(0, 2 * np.pi, n)
        nbrs = np.stack([r * np.cos(phi), r * np.sin(phi), np.zeros(n)], axis=1)
        params = SamplingParams(n_candidates=10000)

        clean = sample_normal_candidates(nbrs, params, point_rng(1, 0))
        ang_clean = _angle(_principal(clean.normals), EZ)

        noisy = nbrs.copy()
        noisy[:, 2] = rng.normal(0, 0.01, n)      # std = 1% of patch radius
        cands = sample_normal_candidates(noisy, params, point_rng(2, 0))
        ang_noisy = _angle(_principal(cands.normals), EZ)
        dt = time.perf_counter() - t0
        ok = ang_clean < 1e-6 and ang_noisy < 2.0 and dt < 5.0
        _report("1 candidate expectation",
                ok, f"clean {ang_clean:.2e} deg, noisy {ang_noisy:.3f} deg, {dt:.2f}s")

    def test_criterion_2_mode_matches_grid_search(self):
        # 100 bimodal candidate sets: solver vs exhaustive 1-degree sphere grid
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        params = ConsensusParams()
        worst = 0.0
        for _ in range(100):
            d1 = rng.normal(size=3)
            d1 /= np.linalg.norm(d1)
            # second mode 80-90 degrees away
            perp = np.cross(d1, rng.normal(size=3))
            perp /= np.linalg.norm(perp)
            gap = np.radians(rng.uniform(80, 90))
            d2 = np.cos(gap) * d1 + np.sin(gap) * perp
            n1 = int(rng.integers(60, 91))
            cands = np.empty((100, 3))
            for i, (count, d) in enumerate(((n1, d1), (100 - n1, d2))):
                block = d + rng.normal(0, 0.03, (count, 3))
                block /= np.linalg.norm(block, axis=1, keepdims=True)
                cands[(0 if i == 0 else n1):(n1 if i == 0 else 100)] = block
            losses = [ccn_loss(c, cands, params.tau_normal) for c in cands]
            init = cands[int(np.argmin(losses))]
            res = normal_mode(cands, params, init=init)
            oracle, _ = grid_min_normal(cands, params.tau_normal, step_deg=1.0)
            worst = max(worst, _angle(res.value, oracle))
        dt = time.perf_counter() - t0
        ok = worst < 2.0 and dt < 30.0
        _report("2 mode vs grid oracle", ok, f"worst gap {worst:.3f} deg, {dt:.2f}s")

    def test_criterion_3_sharp_feature_preservation(self):
        t0 = time.perf_counter()
        clean = gen_shape(ShapeSpec(kind="wedge", n_points=10000, seed=303))
        noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=0.5, seed=304))
        est, _ = estimate_all(noisy, EstimationParams(seed=305), n_threads=8)

        index = build_index(noisy)
        profile = cloud_noise_scale(index, 64)
        k_hat = adaptive_k(profile.cloud_f, AdaptiveConfig())
        base = pca_baseline(noisy, k_hat)

        spacing = float(np.median(index.knn_batch(1)[1]))
        edge_dist = np.linalg.norm(clean.points[:, 1:], axis=1)
        near = edge_dist < 5 * spacing
        assert near.sum() > 50
        pgp_ours = pgp(est.normals[near], clean.normals[near], 10.0)
        pgp_pca = pgp(base.normals[near], clean.normals[near], 10.0)
        dt = time.perf_counter() - t0
        ok = pgp_ours >= pgp_pca + 0.10 and dt < 60.0
        _report("3 sharp features", ok,
                f"near-edge pgp10 ours {pgp_ours:.3f} vs pca {pgp_pca:.3f}, "
                f"k_hat {k_hat}, {dt:.1f}s")

    def test_criterion_4_smooth_surface_accuracy(self):
        cloud = gen_shape(ShapeSpec(kind="sphere", n_points=10000, seed=404))
        est, _ = estimate_all(cloud, EstimationParams(seed=405), n_threads=8)
        index = build_index(cloud)
        profile = cloud_noise_scale(index, 64)
        k_hat = adaptive_k(profile.cloud_f, AdaptiveConfig())
        base = pca_baseline(cloud, k_hat)
        rms_ours = rms_angle(est.normals, cloud.normals)
        rms_pca = rms_angle(base.normals, cloud.normals)
        ok = rms_ours < 3.0 and rms_ours <= rms_pca + 0.5
        _report("4 smooth surfaces", ok,
                f"rms ours {rms_ours:.3f} vs pca {rms_pca:.3f} deg, k_hat {k_hat}")

    def test_criterion_5_candidate_count_trend(self):
        from normfit.bench import run_suite
        t0 = time.perf_counter()
        results = run_suite(points_per_cloud=600, candidate_counts=(20, 100, 400),
                            seeds=(0, 1, 2), n_threads=8)
        dt = time.perf_counter() - t0
        r20, r100, r400 = results[20], results[100], results[400]
        ok = r100 <= r20 + 0.3 and r400 <= r100 + 0.3 and dt < 600.0
        _report("5 candidate-count trend", ok,
                f"mean rms {r20:.3f} -> {r100:.3f} -> {r400:.3f} deg, {dt:.0f}s")

    def test_criterion_6_rejection_removes_cross_face_planes(self):
        # constructed zero-noise wedge neighborhood: 32 points on each face
        rng = np.random.default_rng(606)
        def face_points(m, face, lo=0.0):
            x = rng.uniform(-0.5, 0.5, m)
            s = rng.uniform(lo, 0.5, m)
            if face == "a":
                return np.stack([x, s, np.zeros(m)], axis=1)
            return np.stack([x, np.zeros(m), s], axis=1)

        nbrs = np.vstack([face_points(32, "a"), face_points(32, "b")])
        sigma = rejection_sigma(np.linalg.norm(nbrs, axis=1))

        normals, anchors, cross = [], [], []
        while len(normals) < 100:
            want_cross = len(normals) >= 80
            if want_cross:
                # 2 points per face, away from the fold, so the fit is blurry
                sample = np.vstack([face_points(2, "a", lo=0.1),
                                    face_points(2, "b", lo=0.1)])
            else:
                sample = face_points(4, "a" if len(normals) % 2 == 0 else "b")
            try:
                plane = fit_plane(sample)
            except Exception:
                continue
            normals.append(plane.normal)
            anchors.append(plane.anchor)
            cross.append(want_cross)
        cands = CandidatePlanes(normals=np.array(normals), anchors=np.array(anchors))
        cross = np.array(cross)
        cands.scores = score_candidates(nbrs, cands, sigma)

        worst_single = cands.scores[~cross].min()
        best_cross = cands.scores[cross].max()
        kept = reject_candidates(cands, 0.2)
        removed = 100 - len(kept)
        # every cross-face score is strictly below every single-face score, so
        # any kept score at or below the best cross score is a survivor
        kept_cross = int((kept.scores <= best_cross).sum())
        ok = best_cross < worst_single and removed == 20 and kept_cross == 0
        _report("6 rejection efficacy", ok,
                f"best cross score {best_cross:.3f} < worst single {worst_single:.3f}, "
                f"removed {removed}, cross-face survivors {kept_cross}")

    def test_criterion_7_denoising_improvement(self):
        t0 = time.perf_counter()
        spec = ShapeSpec(kind="plane", n_points=10000, seed=707)
        clean = gen_shape(spec)
        noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=1.0, seed=708))
        out = denoise_all(noisy, EstimationParams(seed=709), n_threads=8)
        cd0, cd1 = chamfer(noisy, clean), chamfer(out, clean)
        p0, p1 = p2s(noisy, spec), p2s(out, spec)
        dt = time.perf_counter() - t0
        ok = cd1 <= 0.5 * cd0 and p1 <= 0.5 * p0 and dt < 60.0
        _report("7 denoising", ok,
                f"cd {cd0:.3g} -> {cd1:.3g} ({cd1 / cd0:.0%}), "
                f"p2s {p0:.3g} -> {p1:.3g} ({p1 / p0:.0%}), {dt:.1f}s")

    def test_criterion_8_metric_examples(self):
        def tilted(deg):
            a = np.radians(deg)
            return np.array([np.sin(a), 0.0, np.cos(a)])

        gt1 = np.array([EZ])
        checks = []
        # errors above tau count as 90 degrees
        checks.append(abs(rms_tau([tilted(11)], gt1, 10.0) - 90.0) < 1e-9)
        gt2 = np.array([EZ, EZ])
        got = rms_tau(np.array([tilted(5), tilted(85)]), gt2, 10.0)
        checks.append(abs(got - np.sqrt(4062.5)) < 1e-6)
        # strict pgp: an exact 90-degree error is not "below 90"
        checks.append(pgp(np.array([[1.0, 0, 0]]), gt1, 90.0) == 0.0)
        # chamfer equals the brute-force double minimum
        rng = np.random.default_rng(808)
        a, b = rng.normal(size=(25, 3)), rng.normal(size=(30, 3))
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        want = 0.5 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())
        got_cd = chamfer(PointCloud(points=a), PointCloud(points=b))
        checks.append(abs(got_cd - want) < 1e-12)
        # rms on a known pair
        got_rms = rms_angle(np.array([tilted(0), tilted(90)]), gt2)
        checks.append(abs(got_rms - np.sqrt(4050.0)) < 1e-9)
        ok = all(checks)
        _report("8 metric examples", ok, f"{sum(checks)}/{len(checks)} exact checks")

    def test_criterion_9_determinism_across_threads(self):
        spec = ShapeSpec(kind="wedge", n_points=300, seed=909)
        noisy = add_noise(gen_shape(spec), NoiseSpec(std_pct_bbox_diag=1.0, seed=910))
        ok = True
        for seed in (1, 2, 3):
            params = EstimationParams(seed=seed)
            est_ref, _ = estimate_all(noisy, params, n_threads=1)
            den_ref = denoise_all(noisy, params, n_threads=1)
            for n_threads in (4, 8):
                est, _ = estimate_all(noisy, params, n_threads=n_threads)
                den = denoise_all(noisy, params, n_threads=n_threads)
                ok = ok and est.normals.tobytes() == est_ref.normals.tobytes()
                ok = ok and den.points.tobytes() == den_ref.points.tobytes()
        _report("9 determinism", ok, "3 seeds x threads {1,4,8}, byte-compared")
