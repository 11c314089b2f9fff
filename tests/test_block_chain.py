"""The block-batched chain: single-point calls, block size, the worker pool,
the index sampler, degenerate neighbourhoods and tiny clouds."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
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
    pca_baseline,
)
from normfit.bench import run_suite
from normfit import candidates as cand, geometry, pipeline
from normfit.candidates import POSITION_SUBSET, _draw_index_sets
from normfit.cli import cli_main
from normfit.consensus import normal_mode_batch
from normfit.io import write_cloud
from normfit.pipeline import point_rng

from conftest import relative_sliced, survivors_along_axis


THREADS = 4
SRC = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))

# with one usable CPU every n_threads runs in the caller and no pool is made
needs_two_cpus = pytest.mark.skipif(pipeline._usable_cpus() < 2,
                                    reason="one usable CPU: no worker processes")


def noisy(kind, n, seed):
    return add_noise(gen_shape(ShapeSpec(kind=kind, n_points=n, seed=seed)),
                     NoiseSpec(std_pct_bbox_diag=1.0, seed=seed + 1))


def blob(n, seed):
    """Isotropic scatter: noise level high enough that rejection is off."""
    return PointCloud(points=np.random.default_rng(seed).uniform(-1, 1, (n, 3)))


def sampled_points(blocks):
    """First and last points of every block, a middle point and the whole
    last block."""
    n = int(blocks[-1][-1]) + 1
    ends = {int(t) for ts in blocks for t in (ts[0], ts[-1])}
    return sorted({*ends, n // 2, *blocks[-1].tolist()})


def assert_report_row(one: RunReport, report: RunReport, t: int):
    """The one-point report `one` equals row t of `report`, field by field."""
    assert one.k_hat == report.k_hat
    for f in fields(RunReport)[1:]:
        col, row = getattr(report, f.name), getattr(one, f.name)
        assert row.shape == (1,) and row.dtype == col.dtype, f.name
        assert row.tobytes() == col[t:t + 1].tobytes(), (f.name, t)


class TestBatchOfOne:
    # one block per worker on these small clouds; the sampled points come
    # from the blocks the run cuts, for the workers that run at THREADS
    @pytest.mark.parametrize("cloud", [noisy("wedge", 333, 1), noisy("plane", 301, 3),
                                       blob(150, 5)], ids=["wedge", "plane", "blob"])
    def test_estimate_normal_equals_estimate_all(self, cloud):
        params = EstimationParams(seed=7)
        est, report = estimate_all(cloud, params, n_threads=THREADS)
        index = build_index(cloud)
        f = cloud_noise_scale(index, min(params.noise_k, len(cloud) - 1)).cloud_f
        sp = params.sampling
        blocks = pipeline._run_blocks(block_rows, index, 3 * sp.k_s * sp.n_candidates, THREADS)
        for t in sampled_points(blocks):
            normal, one = estimate_normal(index, t, f, params)
            assert normal.tobytes() == est.normals[t].tobytes(), t
            assert_report_row(one, report, t)

    @pytest.mark.parametrize("cloud", [noisy("wedge", 333, 1), noisy("plane", 301, 3)],
                             ids=["wedge", "plane"])
    def test_denoise_point_equals_denoise_all(self, cloud):
        params = EstimationParams(seed=8)
        out = denoise_all(cloud, params, n_threads=THREADS)
        index = build_index(cloud)
        blocks = pipeline._run_blocks(block_rows, index,
                                      3 * POSITION_SUBSET * params.sampling.n_candidates, THREADS)
        for t in sampled_points(blocks):
            assert denoise_point(index, t, params).tobytes() == out.points[t].tobytes(), t

    def test_rejection_is_off_on_the_blob(self):
        _, report = estimate_all(blob(150, 5), EstimationParams(seed=7))
        assert (report.survivors == 100).all()

    def test_rejection_off_rejects_nothing(self):
        # rejection off is rejection_order(scores, 0.0): every row keeps all M
        # candidates sorted best first, and the solver starts at the first
        cloud, params = blob(150, 5), EstimationParams(seed=7)
        est, report = estimate_all(cloud, params)
        ts = np.arange(len(cloud))              # one block: the whole cloud on one thread
        blocks = pipeline._run_blocks(block_rows, build_index(cloud),
                                      3 * params.sampling.k_s * params.sampling.n_candidates, 1)
        assert [block.tolist() for block in blocks] == [ts.tolist()]
        pts, nbr_d = build_index(cloud).neighborhoods(report.k_hat, ts)
        rel = pts[:, :-1] - pts[:, -1:]
        nrm, anc, failed = cand.sample_plane_block(rel, point_rng(params.seed, ts),
                                                   params.sampling)
        ok = ~failed
        nrm = pipeline._survivors(cand.score_plane_block, rel[ok], nrm[ok], 0.0, anc[ok],
                                  cand.rejection_sigma(nbr_d[ok]))
        normals, loss, iterations, _ = normal_mode_batch(nrm, params.consensus, nrm[:, 0])
        assert ok.any() and (report.fallback == failed).all()
        assert (report.survivors[ok] == params.sampling.n_candidates).all()
        assert normals.tobytes() == est.normals[ok].tobytes()
        assert loss.tobytes() == report.loss[ok].tobytes()
        assert iterations.tobytes() == report.iterations[ok].tobytes()


def drop_pool():
    """Shut the caller's worker pool down and forget it: the next call with
    n_threads >= 2 forks a new one, which inherits the module state of now."""
    if pipeline._POOL is not None:
        pipeline._POOL[0].shutdown()
        pipeline._POOL = None


def worker_budgets():
    """The block budget a worker process sees."""
    return geometry._BLOCK_ELEMENTS


def worker_pids():
    return sorted(pipeline._POOL[0]._processes)


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
        try:
            # blocks from one point to one share per thread (150, 75 or 50
            # points), scoring chunks from one row to the whole block, and
            # noise profile chunks from one row to the whole cloud
            for elements in (1, 7 * 1200, 7 * 12800, 32 * 12800, 2**40):
                monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
                # workers forked before the patch keep the old budget, so
                # drop the pool: the 2- and 3-thread calls fork a new one
                # whose worker runs its share at the patched budget
                drop_pool()
                for n_threads in (1, 2, 3):
                    assert run(n_threads) == ref, (elements, n_threads)
                if pipeline._POOL is not None:
                    assert pipeline._POOL[0].submit(worker_budgets).result() == elements
        finally:
            drop_pool()     # later tests fork workers at the default budget

    @pytest.mark.parametrize("n_threads", [0, -3])
    def test_thread_counts_below_one_rejected(self, n_threads):
        # these used to run as one thread; they are rejected before any
        # worker process is made
        cloud = noisy("plane", 60, 3)
        pool = pipeline._POOL
        for call in (estimate_all, denoise_all):
            with pytest.raises(ValueError, match="n_threads"):
                call(cloud, EstimationParams(), n_threads)
        assert pipeline._POOL is pool

    def test_block_size(self, monkeypatch):
        # range(n) is cut into one equal share per worker, at most n, and each
        # share into blocks of at most 2**18 // 1200 = 218 points at the
        # defaults (M = 100, subsets of 4); the usable CPUs are patched to the
        # worker count, so the 3-worker cases fork two workers on any box
        try:
            for n, workers, block in ((200, 1, 200), (200, 2, 100), (200, 3, 67),
                                      (2000, 1, 218), (2000, 3, 218), (1, 2, 1)):
                monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
                cloud = PointCloud(points=np.zeros((n, 3)))
                blocks = pipeline._run_blocks(block_rows, build_index(cloud), 3 * 4 * 100, workers)
                assert len(blocks[0]) == block, (n, workers)
                assert np.concatenate(blocks).tolist() == list(range(n))
        finally:
            drop_pool()     # later tests fork their workers at the real CPU count

    def test_blocks_sized_by_the_workers_that_run(self):
        # n_threads above the usable CPU count runs on one worker per CPU, so
        # it cuts the shares of that count (150 points each on two CPUs), not
        # of the count asked for (5 points each at 64); no more processes
        # start than there are usable CPUs
        cpus = pipeline._usable_cpus()
        cloud = noisy("plane", 300, 17)
        index = build_index(cloud)
        params = EstimationParams(seed=18)
        blocks, normals, reports, points = [], [], [], []
        for n_threads in (cpus, cpus + 62):
            rows = pipeline._run_blocks(block_rows, index, 3 * 4 * 100, n_threads)
            blocks.append([ts.tolist() for ts in rows])
            est, report = estimate_all(cloud, params, n_threads)
            normals.append(est.normals.tobytes())
            reports.append([getattr(report, f.name).tobytes() for f in fields(RunReport)[1:]])
            points.append(denoise_all(cloud, params, n_threads).points.tobytes())
        assert blocks[0] == blocks[1]
        assert normals[0] == normals[1] and reports[0] == reports[1]
        assert points[0] == points[1]


class TestWithoutAffinityCall:
    # os.sched_getaffinity exists on Linux only: one thread never asks for
    # the usable CPUs, and more threads count them with os.cpu_count there
    def test_runs_where_the_call_is_missing(self, monkeypatch):
        cloud = noisy("wedge", 120, 31)
        params = EstimationParams(seed=32)

        def outputs(n_threads):
            est, report = estimate_all(cloud, params, n_threads)
            return ([est.normals.tobytes()]
                    + [getattr(report, f.name).tobytes() for f in fields(RunReport)[1:]]
                    + [denoise_all(cloud, params, n_threads).points.tobytes()])

        want = outputs(1)
        suite = run_suite(points_per_cloud=40, candidate_counts=(10,), seeds=(0,))
        monkeypatch.delattr(os, "sched_getaffinity")
        asked, pool = [], pipeline._pool
        monkeypatch.setattr(pipeline, "_pool",
                            lambda workers, broken=None: asked.append(workers) or pool(workers,
                                                                                       broken))
        assert outputs(1) == want and asked == []
        assert run_suite(points_per_cloud=40, candidate_counts=(10,), seeds=(0,)) == suite
        for cpus, workers in ((None, []), (1, []), (2, [1, 1])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            asked.clear()
            assert outputs(2) == want, cpus
            assert asked == workers, cpus      # one pool call per estimate_all and denoise_all


def block_rows(index, ts):
    """A block function that returns the rows of its block."""
    return ts


def fail_in_a_worker(index, ts):
    """A block function that fails on every block but the first, naming the
    process it ran in."""
    if ts[0] > 0:
        raise TooFewNeighbors(f"block {ts[0]} in process {os.getpid()}")
    return ts


def estimate_in_child(cloud, params, conn):
    """Child process body: a 2-thread estimate, sent back with the pool's
    maker and workers."""
    out, _ = estimate_all(cloud, params, 2)
    conn.send((out.normals.tobytes(), pipeline._POOL[2], worker_pids()))
    conn.close()


def pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def estimate_then_wait(cloud, params, conn):
    """Child process body: a 2-thread estimate, then its worker pids sent, then a wait
    that only a signal ends."""
    estimate_all(cloud, params, 2)
    conn.send(worker_pids())
    conn.close()
    time.sleep(600)


def running(pid):
    """The process exists and has not exited: an orphan's zombie, which waits for
    whoever adopted it to reap it, does not count."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@needs_two_cpus
class TestWorkerPool:
    # n_threads = 2 on a two-CPU box: the caller plus one worker process.
    # No test starts more than two processes of its own.

    def test_worker_exception_reaches_the_caller(self):
        cloud = noisy("plane", 100, 13)
        with pytest.raises(TooFewNeighbors) as info:
            # M = 100 and subsets of 4 on two workers: two 50-point blocks
            pipeline._run_blocks(fail_in_a_worker, build_index(cloud), 3 * 4 * 100, 2)
        assert type(info.value) is TooFewNeighbors
        message = str(info.value)
        assert message.startswith("block 50 in process ")
        assert int(message.split()[-1]) in worker_pids()

    def test_killed_worker_is_replaced(self):
        cloud = noisy("wedge", 200, 21)
        params = EstimationParams(seed=22)
        ref = estimate_all(cloud, params, 1)[0].normals.tobytes()
        estimate_all(cloud, params, 2)
        pool, killed = pipeline._POOL[0], worker_pids()
        for pid in killed:
            os.kill(pid, signal.SIGKILL)
        assert estimate_all(cloud, params, 2)[0].normals.tobytes() == ref
        assert pipeline._POOL[0] is not pool
        assert not set(killed) & set(worker_pids())

    def test_forked_child_makes_its_own_pool(self):
        cloud = noisy("wedge", 200, 23)
        params = EstimationParams(seed=24)
        ref = estimate_all(cloud, params, 1)[0].normals.tobytes()
        estimate_all(cloud, params, 2)          # the caller's pool has a live worker
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=estimate_in_child, args=(cloud, params, writer))
        child.start()
        writer.close()
        try:
            # an inherited pool would take the work and never answer
            assert reader.poll(60), "the forked child sent no result"
            normals, maker, child_workers = reader.recv()
            child.join(60)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join(10)
        assert normals == ref
        assert maker == child.pid
        assert child_workers and not set(child_workers) & set(worker_pids())
        assert not any(pid_exists(pid) for pid in child_workers)

    def test_worker_of_a_killed_caller_exits(self):
        # SIGKILL runs no exit handler, so nothing shuts the pool down
        cloud = noisy("wedge", 200, 25)
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=estimate_then_wait,
                            args=(cloud, EstimationParams(seed=26), writer))
        child.start()
        writer.close()
        try:
            assert reader.poll(60), "the forked child sent no worker pids"
            workers = reader.recv()
            os.kill(child.pid, signal.SIGKILL)
            child.join(10)
            deadline = time.monotonic() + 10
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            left = [pid for pid in workers if running(pid)]
        finally:
            if child.is_alive():
                child.kill()
                child.join(10)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert workers and not left, f"workers {left} outlived their killed caller"

    def test_no_worker_outlives_its_caller(self):
        # a plain script, no __main__ guard: what the CLI and the benchmark run
        script = (
            "from normfit import EstimationParams, NoiseSpec, ShapeSpec, add_noise, "
            "denoise_all, estimate_all, gen_shape, pipeline\n"
            "cloud = add_noise(gen_shape(ShapeSpec(kind='wedge', n_points=120, seed=5)), "
            "NoiseSpec(std_pct_bbox_diag=1.0, seed=6))\n"
            "estimate_all(cloud, EstimationParams(seed=7), 2)\n"
            "denoise_all(cloud, EstimationParams(seed=7), 2)\n"
            "print(*pipeline._POOL[0]._processes)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        pids = [int(p) for p in done.stdout.split()]
        assert pids
        assert not any(pid_exists(pid) for pid in pids)


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


def copies_cloud(n=200):
    return PointCloud(points=np.tile([0.3, -0.2, 0.7], (n, 1)))


def collinear_cloud(n=200):
    pts = np.zeros((n, 3))
    pts[:, 0] = np.linspace(-1.0, 1.0, n)
    return PointCloud(points=pts)


def uniform_and_copies_cloud():
    """100 uniform points and 100 copies of the first of them."""
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (100, 3))
    return PointCloud(points=np.vstack([pts, np.repeat(pts[:1], 100, axis=0)]))


def far_blobs_cloud():
    """Two 150-point normal blobs 1e6 apart."""
    near = np.random.default_rng(2).normal(size=(150, 3))
    far = np.random.default_rng(3).normal(size=(150, 3)) + 1e6
    return PointCloud(points=np.vstack([near, far]))


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
        f = cloud_noise_scale(index, min(params.noise_k, len(cloud) - 1)).cloud_f
        t = len(cloud) - 1
        normal, one = estimate_normal(index, t, f, params)
        assert one.fallback[0] and report.fallback[t]
        assert normal.tobytes() == est.normals[t].tobytes()
        assert_report_row(one, report, t)

    @pytest.mark.parametrize("make", [spike_cloud, copies_cloud, uniform_and_copies_cloud],
                             ids=["spike", "copies", "uniform-and-copies"])
    def test_fallback_is_the_pca_baseline_at_k_hat(self, make):
        # a fallback point's normal is `plane_fit` of the block's own gather,
        # which is the PCA baseline's gather at k_hat: the same bytes
        cloud = make()
        est, report = estimate_all(cloud, EstimationParams())
        fallback = report.fallback
        assert fallback.any()
        pca = pca_baseline(cloud, report.k_hat).normals
        assert est.normals[fallback].tobytes() == pca[fallback].tobytes()

    def test_denoise_keeps_coincident_points(self):
        cloud = copies_cloud()
        out = denoise_all(cloud, EstimationParams())
        assert np.array_equal(out.points, cloud.points)
        index = build_index(cloud)
        assert np.array_equal(denoise_point(index, 0, EstimationParams()), cloud.points[0])

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


def tied_scores(nbrs, cands):
    """A score with many ties: each candidate's first coordinate, rounded."""
    return np.round(cands[..., 0])


class TestCopyFreeSteps:
    # the block chain's steps that copy nothing they do not need give the
    # bytes of the copying forms they replace

    @pytest.mark.parametrize("k", [1, 59])
    def test_relative_matches_the_sliced_subtraction(self, k):
        # k = 1 and k = N - 1 on a 60-point cloud
        pts, _ = build_index(noisy("wedge", 60, 21)).neighborhoods(k, np.arange(60))
        rel = pipeline._relative(pts)
        assert rel.flags.c_contiguous
        assert rel.tobytes() == relative_sliced(pts).tobytes()

    @pytest.mark.parametrize("score", ["plane", "position", "tied"])
    @pytest.mark.parametrize("rows, m", [(1, 1), (1, 100), (7, 1), (7, 13), (40, 100)])
    @pytest.mark.parametrize("fraction", [0.0, 0.2])
    def test_survivors_match_take_along_axis(self, score, rows, m, fraction):
        rng = np.random.default_rng(1000 * rows + m)
        nbrs, cands = rng.normal(size=(rows, 30, 3)), rng.normal(size=(rows, m, 3))
        sigma = rng.uniform(0.5, 2.0, rows)
        if score == "plane":
            cands /= np.linalg.norm(cands, axis=2, keepdims=True)
            fn, per_point = cand.score_plane_block, (rng.normal(size=(rows, m, 3)), sigma)
        elif score == "position":
            fn, per_point = cand.score_position_block, (sigma,)
        else:
            fn, per_point = tied_scores, ()
        got = pipeline._survivors(fn, nbrs, cands, fraction, *per_point)
        want = survivors_along_axis(fn, nbrs, cands, fraction, *per_point)
        assert got.shape == (rows, m - int(fraction * m), 3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("reject", [True, False])
    def test_fallback_rows_leave_the_good_rows_alone(self, reject):
        # a block that mixes PCA-fallback rows (the top of the spike) with
        # good rows gives each the bytes of a block of its own kind only
        cloud, params = spike_cloud(), EstimationParams(seed=5)
        index = build_index(cloud)
        ts = np.random.default_rng(6).permutation(np.r_[np.arange(0, 600, 41),
                                                        np.arange(600, 660, 4)])
        mixed = pipeline._estimate_block(index, ts, 32, reject, params)
        failed = mixed[-1]
        assert failed.any() and not failed.all()
        for rows in (~failed, failed):
            alone = pipeline._estimate_block(index, ts[rows], 32, reject, params)
            for got, want in zip(mixed, alone):
                assert got[rows].tobytes() == want.tobytes()

    def test_zero_bandwidth_rows_leave_the_live_rows_alone(self):
        # the copies have bandwidth 0 and keep their positions; the uniform
        # points get the bytes of a block without the copies
        cloud, params = uniform_and_copies_cloud(), EstimationParams(seed=7)
        index = build_index(cloud)
        ts = np.random.default_rng(8).permutation(np.r_[np.arange(1, 100, 3),
                                                        np.arange(100, 200, 9)])
        zero = ts >= 100
        mixed = pipeline._denoise_block(index, ts, 64, params)
        assert mixed[zero].tobytes() == cloud.points[ts[zero]].tobytes()
        alone = pipeline._denoise_block(index, ts[~zero], 64, params)
        assert mixed[~zero].tobytes() == alone.tobytes()
        assert pipeline._denoise_block(index, ts[zero], 64, params).tobytes() == \
            mixed[zero].tobytes()


class TestDegenerateClouds:
    # whole clouds without a surface: the neighbourhood size and the PCA
    # fallback count are what the code gives for each, pinned so that a
    # change to either shows
    @pytest.mark.parametrize("make, k_hat, fallbacks",
                             [(collinear_cloud, 32, 200), (copies_cloud, 32, 200),
                              (uniform_and_copies_cloud, 128, 78), (far_blobs_cloud, 299, 0)],
                             ids=["collinear", "copies", "uniform-and-copies", "far-blobs"])
    def test_finite_unit_and_thread_independent(self, make, k_hat, fallbacks):
        cloud, params = make(), EstimationParams()
        (est, report), (est2, report2) = (estimate_all(cloud, params, t) for t in (1, 2))
        out, out2 = (denoise_all(cloud, params, t).points for t in (1, 2))
        assert np.isfinite(est.normals).all() and np.isfinite(out).all()
        assert np.allclose(np.linalg.norm(est.normals, axis=1), 1.0)
        assert est.normals.tobytes() == est2.normals.tobytes()
        for f in fields(RunReport)[1:]:
            assert getattr(report, f.name).tobytes() == getattr(report2, f.name).tobytes(), f.name
        assert out.tobytes() == out2.tobytes()
        assert (report.k_hat, int(report.fallback.sum())) == (k_hat, fallbacks)

    @pytest.mark.parametrize("make", [collinear_cloud, copies_cloud], ids=["collinear", "copies"])
    def test_four_points_raise(self, make):
        for call in (estimate_all, denoise_all):
            with pytest.raises(TooFewNeighbors):
                call(make(4), EstimationParams())

    @pytest.mark.parametrize("make", [collinear_cloud, copies_cloud], ids=["collinear", "copies"])
    def test_five_points_run(self, make):
        cloud = make(5)
        est, report = estimate_all(cloud, EstimationParams())
        assert np.allclose(np.linalg.norm(est.normals, axis=1), 1.0)
        assert report.k_hat == 4 and report.fallback.all()
        assert np.isfinite(denoise_all(cloud, EstimationParams()).points).all()


def scaled_wedge(scale):
    """The 600-point wedge at 1% noise, scaled by `scale`."""
    return PointCloud(points=noisy("wedge", 600, 0).points * scale)


class TestCoordinateLimit:
    """The k-d tree squares its distances, so they overflow once points lie
    about 1.3e154 apart.  Every entry point then raises one ValueError: it
    used to raise an IndexError or a LinAlgError, after overflow warnings.
    Warnings are errors here, so each call also runs warning-free."""

    ENTRIES = {
        "estimate_all-1": lambda c, i: estimate_all(c, EstimationParams(), 1),
        "estimate_all-2": lambda c, i: estimate_all(c, EstimationParams(), 2),
        "denoise_all-1": lambda c, i: denoise_all(c, EstimationParams(), 1),
        "denoise_all-2": lambda c, i: denoise_all(c, EstimationParams(), 2),
        "pca_baseline": lambda c, i: pca_baseline(c, 64),
        "cloud_noise_scale": lambda c, i: cloud_noise_scale(i),
        "knn": lambda c, i: i.knn(0, 128),
        "knn_batch": lambda c, i: i.knn_batch(128, np.arange(len(c))),
        "estimate_normal": lambda c, i: estimate_normal(i, 0, 0.01, EstimationParams()),
        "denoise_point": lambda c, i: denoise_point(i, 0, EstimationParams()),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_beyond_the_limit_raises(self, entry, scale):
        cloud = scaled_wedge(scale)
        with pytest.raises(ValueError, match="k-NN distances overflow") as raised:
            self.ENTRIES[entry](cloud, build_index(cloud))
        assert type(raised.value) is ValueError      # LinAlgError is a ValueError too

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_below_the_limit_runs(self, entry):
        cloud = scaled_wedge(1e153)
        self.ENTRIES[entry](cloud, build_index(cloud))

    @pytest.mark.parametrize("command", ["estimate", "denoise"])
    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_cli_beyond_the_limit(self, command, scale, tmp_path, capsys):
        src, dst = tmp_path / "in.xyz", tmp_path / "out.xyz"
        write_cloud(scaled_wedge(scale), src)
        assert cli_main([command, "--in", str(src), "--out", str(dst)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "k-NN distances overflow" in err[0] and not dst.exists()


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
                estimate_normal(index, 0, 0.0, params)
            return
        est, report = estimate_all(cloud, params)
        assert np.allclose(np.linalg.norm(est.normals, axis=1), 1.0)
        assert report.k_hat == n - 1
        f = cloud_noise_scale(index, n - 1).cloud_f
        for t in range(n):
            normal, one = estimate_normal(index, t, f, params)
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
                denoise_point(index, 0, params)
            return
        out = denoise_all(cloud, params)
        assert np.isfinite(out.points).all()
        for t in range(n):
            assert denoise_point(index, t, params).tobytes() == out.points[t].tobytes()

    # entry point -> (call(cloud, k), its neighbourhood size k, whether it
    # clamps k to n - 1); k_s and the position subset are 4
    K = 6
    ENTRIES = {
        "knn_batch": (lambda c, k: build_index(c).knn_batch(k, [0]), K, False),
        "knn": (lambda c, k: build_index(c).knn(0, k), K, False),
        "neighborhood_fits": (lambda c, k: geometry.neighborhood_fits(build_index(c), k), K,
                              False),
        "pca_baseline": (pca_baseline, K, False),
        "cloud_noise_scale": (lambda c, k: cloud_noise_scale(build_index(c), k), K, True),
        "estimate_all": (lambda c, k: estimate_all(c, EstimationParams()), 4, False),
        "denoise_all": (lambda c, k: denoise_all(c, EstimationParams()), POSITION_SUBSET, False),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("n", ["1", "2", "k"])
    def test_too_few_points_for_k(self, entry, n):
        # a cloud of n <= k points is too small for k neighbours: TooFewNeighbors,
        # which is also a ValueError; the noise profile takes at most n - 1
        # neighbours, so it runs unless the cloud is one lone point
        call, k, clamps = self.ENTRIES[entry]
        n = k if n == "k" else int(n)
        cloud = blob(n, n)
        if clamps and n > 1:
            call(cloud, k)
            return
        with pytest.raises(TooFewNeighbors) as info:
            call(cloud, k)
        assert isinstance(info.value, ValueError)
        if entry not in ("estimate_all", "denoise_all"):
            got = k if entry != "cloud_noise_scale" else 0    # min(k, n - 1) for n = 1
            assert str(info.value) == f"k={got} out of range for {n} points"

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_is_a_plain_value_error(self, k):
        # enough points, but no neighbourhood: the argument is wrong, not the cloud
        cloud = blob(10, 3)
        for call in (lambda: build_index(cloud).knn_batch(k, [0]),
                     lambda: geometry.neighborhood_fits(build_index(cloud), k),
                     lambda: pca_baseline(cloud, k),
                     lambda: cloud_noise_scale(build_index(cloud), k)):
            with pytest.raises(ValueError, match=f"k={k} out of range for 10 points") as info:
                call()
            assert type(info.value) is ValueError

    @pytest.mark.parametrize("command", ["estimate", "denoise"])
    def test_cli_one_point(self, command, tmp_path, capsys):
        src, dst = tmp_path / "one.xyz", tmp_path / "out.xyz"
        write_cloud(blob(1, 0), src)
        assert cli_main([command, "--in", str(src), "--out", str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "need more than 4 points, got 1" in err
        assert not dst.exists()

