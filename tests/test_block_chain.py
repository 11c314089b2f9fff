"""The block-batched chain: single-point calls, block size, the index sampler,
degenerate neighbourhoods and tiny clouds."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from normfit import (
    EstimationParams,
    NoiseSpec,
    PointCloud,
    RunReport,
    ShapeSpec,
    TooFewNeighbors,
    add_noise,
    build_index,
    cloud_noise_scale,
    denoise_all,
    denoise_point,
    estimate_all,
    estimate_normal,
    gen_shape,
)
from normfit import pipeline
from normfit.candidates import POSITION_SUBSET, _draw_index_sets
from normfit.cli import cli_main
from normfit.io import write_cloud
from normfit.pipeline import point_rng


THREADS = 4


def noisy(kind, n, seed):
    return add_noise(gen_shape(ShapeSpec(kind=kind, n_points=n, seed=seed)),
                     NoiseSpec(std_pct_bbox_diag=1.0, seed=seed + 1))


def blob(n, seed):
    """Isotropic scatter: noise level high enough that rejection is off."""
    return PointCloud(points=np.random.default_rng(seed).uniform(-1, 1, (n, 3)))


def sampled_points(n, block):
    """First and last points of the first two blocks, a middle point and
    the whole last, partial block."""
    last = (n // block) * block
    assert last < n, "the cloud must end in a partial block"
    return sorted({0, block - 1, block, n // 2, *range(last, n)})


def assert_report_row(one: RunReport, report: RunReport, t: int):
    """The one-point report `one` equals row t of `report`, field by field."""
    assert one.k_hat == report.k_hat
    for f in fields(RunReport)[1:]:
        col, row = getattr(report, f.name), getattr(one, f.name)
        assert row.shape == (1,) and row.dtype == col.dtype, f.name
        assert row.tobytes() == col[t:t + 1].tobytes(), (f.name, t)


class TestBatchOfOne:
    # one block per thread on these small clouds: four threads make the
    # clouds end in a partial block
    @pytest.mark.parametrize("cloud", [noisy("wedge", 333, 1), noisy("plane", 301, 3),
                                       blob(150, 5)], ids=["wedge", "plane", "blob"])
    def test_estimate_normal_equals_estimate_all(self, cloud):
        params = EstimationParams(seed=7)
        est, report = estimate_all(cloud, params, n_threads=THREADS)
        index = build_index(cloud)
        f = cloud_noise_scale(cloud, index, min(params.noise_k, len(cloud) - 1)).cloud_f
        sp = params.sampling
        block = pipeline._block_size(len(cloud), THREADS, sp.n_candidates, sp.k_s)
        for t in sampled_points(len(cloud), block):
            normal, one = estimate_normal(cloud, index, t, f, params)
            assert normal.tobytes() == est.normals[t].tobytes(), t
            assert_report_row(one, report, t)

    @pytest.mark.parametrize("cloud", [noisy("wedge", 333, 1), noisy("plane", 301, 3)],
                             ids=["wedge", "plane"])
    def test_denoise_point_equals_denoise_all(self, cloud):
        params = EstimationParams(seed=8)
        out = denoise_all(cloud, params, n_threads=THREADS)
        index = build_index(cloud)
        block = pipeline._block_size(len(cloud), THREADS, params.sampling.n_candidates,
                                     POSITION_SUBSET)
        for t in sampled_points(len(cloud), block):
            assert denoise_point(cloud, index, t, params).tobytes() == out.points[t].tobytes(), t

    def test_rejection_is_off_on_the_blob(self):
        _, report = estimate_all(blob(150, 5), EstimationParams(seed=7))
        assert (report.survivors == 100).all()


class TestBlockSize:
    @pytest.mark.parametrize("call", ["estimate", "denoise"])
    def test_output_independent_of_block_size(self, call, monkeypatch):
        cloud = noisy("wedge", 150, 11)
        params = EstimationParams(seed=12)

        def run(n_threads):
            if call == "estimate":
                return estimate_all(cloud, params, n_threads)[0].normals.tobytes()
            return denoise_all(cloud, params, n_threads).points.tobytes()

        ref = run(1)
        # blocks from one point to one share per thread (150, 75 or 50
        # points), and scoring chunks from one row to the whole block
        for elements in (1, 7 * 1200, 7 * 12800, 32 * 12800, 2**40):
            monkeypatch.setattr(pipeline, "_BLOCK_ELEMENTS", elements)
            for n_threads in (1, 2, 3):
                assert run(n_threads) == ref, (elements, n_threads)

    def test_block_size(self):
        # at the defaults (M = 100, subsets of 4) the cap is 2**18 // 1200
        for n, n_threads, block in ((200, 1, 200), (200, 2, 100), (200, 3, 67),
                                    (2000, 1, 218), (2000, 3, 218), (1, 2, 1)):
            assert pipeline._block_size(n, n_threads, 100, 4) == block, (n, n_threads)


class TestMemory:
    def test_estimate_peak_within_budget(self):
        # 218-point blocks at k_hat = 128: the neighbourhoods, the subset
        # gather of the plane fits and one 2 MB scoring chunk at a time
        cloud = noisy("wedge", 2000, 41)
        tracemalloc.start()
        try:
            _, report = estimate_all(cloud, EstimationParams(seed=42))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.k_hat == 128
        assert peak < 16e6, peak


class TestIndexSampler:
    @settings(max_examples=60, deadline=None)
    @given(k_pool=st.integers(3, 6).flatmap(
               lambda k: st.tuples(st.just(k), st.integers(max(4, k), 500))),
           seed=st.integers(0, 2**64 - 1), t=st.integers(0, 10**6))
    def test_distinct_in_range_and_repeatable(self, k_pool, seed, t):
        k, pool = k_pool
        rows = 64
        keys = np.full(rows, point_rng(seed, t), dtype=np.uint64)
        counters = np.arange(rows)
        sets = _draw_index_sets(keys, counters, pool, k)
        assert sets.shape == (rows, k)
        assert sets.min() >= 0 and sets.max() < pool
        assert all(len(set(row)) == k for row in sets.tolist())
        assert np.array_equal(_draw_index_sets(keys, counters, pool, k), sets)
        other_key = point_rng(seed, t + 1)
        other_seed = point_rng(seed ^ 1, t)
        for key in (other_key, other_seed):
            assert key != keys[0]
            other = _draw_index_sets(np.full(rows, key, dtype=np.uint64), counters, pool, k)
            assert not np.array_equal(other, sets)

    def test_keys_of_an_array_match_single_keys(self):
        ts = np.arange(50)
        keys = point_rng(3, ts)
        assert keys.dtype == np.uint64
        assert [point_rng(3, int(t)) for t in ts] == list(keys)
        assert len(set(keys.tolist())) == 50

    def test_marginals_uniform(self):
        pool, k, draws = 32, 4, 100_000
        keys = np.full(draws, point_rng(2024, 0), dtype=np.uint64)
        sets = _draw_index_sets(keys, np.arange(draws), pool, k)
        for col in range(k):
            counts = np.bincount(sets[:, col], minlength=pool)
            assert chisquare(counts).pvalue > 1e-3, col


def spike_cloud():
    """A 600-point plane with a 60-point collinear spike standing on it."""
    plane = gen_shape(ShapeSpec(kind="plane", n_points=600, seed=0)).points
    spike = np.zeros((60, 3))
    spike[:, 2] = 0.01 * np.arange(1, 61)
    return PointCloud(points=np.vstack([plane, spike]))


def copies_cloud():
    return PointCloud(points=np.tile([0.3, -0.2, 0.7], (200, 1)))


class TestDegenerateNeighborhoods:
    @pytest.mark.parametrize("make", [spike_cloud, copies_cloud], ids=["spike", "copies"])
    def test_estimate_falls_back_per_point(self, make):
        cloud = make()
        est, report = estimate_all(cloud, EstimationParams(), n_threads=2)
        assert np.isfinite(est.normals).all()
        assert np.allclose(np.linalg.norm(est.normals, axis=1), 1.0)
        fallback = report.fallback
        assert fallback.any()
        if make is spike_cloud:
            # the top of the spike only sees collinear neighbours; the plane is fine
            assert fallback[-1] and not fallback[:600].any()
            far = np.linalg.norm(cloud.points[:600, :2], axis=1) > 0.2
            assert np.allclose(np.abs(est.normals[:600][far, 2]), 1.0)

    def test_estimate_normal_equals_the_fallback(self):
        # the top of the spike: a single-point call gives the PCA fallback
        # of the whole-cloud run, not an error
        cloud = spike_cloud()
        params = EstimationParams()
        est, report = estimate_all(cloud, params)
        index = build_index(cloud)
        f = cloud_noise_scale(cloud, index, min(params.noise_k, len(cloud) - 1)).cloud_f
        t = len(cloud) - 1
        normal, one = estimate_normal(cloud, index, t, f, params)
        assert one.fallback[0] and report.fallback[t]
        assert normal.tobytes() == est.normals[t].tobytes()
        assert_report_row(one, report, t)

    def test_denoise_keeps_coincident_points(self):
        cloud = copies_cloud()
        out = denoise_all(cloud, EstimationParams())
        assert np.array_equal(out.points, cloud.points)
        index = build_index(cloud)
        assert np.array_equal(denoise_point(cloud, index, 0, EstimationParams()), cloud.points[0])

    def test_denoise_spike_finite(self):
        out = denoise_all(spike_cloud(), EstimationParams())
        assert np.isfinite(out.points).all()

    def test_cli_reports_fallbacks(self, tmp_path, capsys):
        src, dst = tmp_path / "spike.xyz", tmp_path / "out.xyz"
        write_cloud(spike_cloud(), src)
        assert cli_main(["estimate", "--in", str(src), "--out", str(dst)]) == 0
        out = capsys.readouterr().out
        count = int(out.split("PCA fallbacks = ")[1].split()[0])
        assert count > 0


class TestTinyClouds:
    """A cloud of N points gives each point N - 1 neighbours: estimation
    needs more than k_s = 4 of them, denoising more than 4."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_estimate(self, n):
        cloud = blob(n, n)
        index = build_index(cloud)
        params = EstimationParams()
        if n <= params.sampling.k_s:
            with pytest.raises(TooFewNeighbors):
                estimate_all(cloud, params)
            with pytest.raises(TooFewNeighbors):
                estimate_normal(cloud, index, 0, 0.0, params)
            return
        est, report = estimate_all(cloud, params)
        assert np.allclose(np.linalg.norm(est.normals, axis=1), 1.0)
        assert report.k_hat == n - 1
        f = cloud_noise_scale(cloud, index, n - 1).cloud_f
        for t in range(n):
            normal, one = estimate_normal(cloud, index, t, f, params)
            assert normal.tobytes() == est.normals[t].tobytes(), t
            assert_report_row(one, report, t)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_denoise(self, n):
        cloud = blob(n, n)
        index = build_index(cloud)
        params = EstimationParams()
        if n <= 4:
            with pytest.raises(TooFewNeighbors):
                denoise_all(cloud, params)
            with pytest.raises(TooFewNeighbors):
                denoise_point(cloud, index, 0, params)
            return
        out = denoise_all(cloud, params)
        assert np.isfinite(out.points).all()
        for t in range(n):
            assert denoise_point(cloud, index, t, params).tobytes() == out.points[t].tobytes()

    @pytest.mark.parametrize("command", ["estimate", "denoise"])
    def test_cli_one_point(self, command, tmp_path, capsys):
        src, dst = tmp_path / "one.xyz", tmp_path / "out.xyz"
        write_cloud(blob(1, 0), src)
        assert cli_main([command, "--in", str(src), "--out", str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "need more than 4 points, got 1" in err
        assert not dst.exists()

