"""The public input checks, one table per module: each bad input raises the
error its check names, and each accepted edge case gives what it should."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import normfit
from normfit import config, io, pipeline
from normfit.candidates import (CandidatePlanes, PositionCandidates, SamplingParams,
                                rejection_order, rejection_sigma, score_candidates,
                                score_position_candidates)
from normfit.cli import cli_main
from normfit.config import RunConfig
from normfit.consensus import ConsensusParams, ccp_loss, position_mode
from normfit.errors import ConfigError, ParseError
from normfit.geometry import PointCloud, as_points, build_index, neighborhood_fits
from normfit.metrics import pca_baseline
from normfit.pipeline import (EstimationParams, denoise_all, denoise_point, estimate_all,
                              estimate_normal)
from normfit.noise import AdaptiveConfig, cloud_noise_scale, rejection_enabled
from normfit.synth import NoiseSpec, ShapeSpec, add_noise, gen_shape

SRC = os.path.dirname(os.path.dirname(os.path.abspath(normfit.__file__)))


# an index over 40 points: enough for the single-point calls at the default parameters
CLOUD = PointCloud(points=np.random.default_rng(0).normal(size=(40, 3)))
INDEX = build_index(CLOUD)


def rows_error(dtype, shape):
    return re.escape("point indices must be a 1-D sequence of integers, "
                     f"got dtype {dtype} and shape {shape}")


@pytest.mark.parametrize("call, message", [
    (lambda: SamplingParams(n_candidates=0), "n_candidates must be >= 1"),
    (lambda: SamplingParams(rejection_fraction_normals=-0.1),
     r"rejection_fraction_normals must lie in \[0, 1\)"),
    (lambda: SamplingParams(rejection_fraction_positions=1.0),
     r"rejection_fraction_positions must lie in \[0, 1\)"),
    (lambda: SamplingParams(max_resample_attempts=0), "max_resample_attempts must be >= 1"),
    (lambda: rejection_sigma(np.empty((2, 0))), "need at least one neighbor distance"),
    (lambda: rejection_order(np.ones((2, 5)), -0.5), r"fraction must lie in \[0, 1\)"),
    (lambda: rejection_order(np.ones((2, 5)), 1.0), r"fraction must lie in \[0, 1\)"),
], ids=["candidates", "fraction-below", "fraction-one", "attempts", "no-distances",
        "order-below", "order-one"])
def test_candidates_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("kwargs, message", [
    ({"tau_normal": 0.0}, r"tau_normal must lie in \(0, 1\]"),
    ({"tau_normal": 1.5}, r"tau_normal must lie in \(0, 1\]"),
    ({"max_iters": 0}, "max_iters must be >= 1"),
], ids=["tau-zero", "tau-above-one", "iters"])
def test_consensus_checks(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ConsensusParams(**kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: as_points(np.ones((4, 2))), r"expected \(N, 3\) point array, got shape \(4, 2\)"),
    (lambda: as_points(np.ones((2, 3, 1))), r"expected \(N, 3\) point array"),
    (lambda: as_points([1.0, 2.0]), r"expected \(N, 3\) point array, got shape \(2,\)"),
    (lambda: as_points([]), r"expected \(N, 3\) point array, got shape \(0,\)"),
    (lambda: as_points([[0.0, np.nan, 1.0]]), "points must be finite"),
    (lambda: as_points([[0.0, np.inf, 1.0]]), "points must be finite"),
    (lambda: PointCloud(points=np.empty((0, 3))), "at least one point"),
    (lambda: PointCloud(points=np.zeros((3, 3)), normals=[[0.0, 0.0, 1.0]] * 2),
     "normals length must match points length"),
    (lambda: INDEX.knn_batch(3, [2.5]), rows_error("float64", "(1,)")),
    (lambda: INDEX.knn_batch(3, [True, False]), rows_error("bool", "(2,)")),
    (lambda: INDEX.knn_batch(3, [[1, 2], [3, 4]]), rows_error("int64", "(2, 2)")),
    (lambda: INDEX.knn_batch(3, 2), rows_error("int64", "()")),
    (lambda: INDEX.knn(2.0, 3), rows_error("float64", "(1,)")),
    (lambda: INDEX.neighborhoods(3, np.array([1.0, 2.0])), rows_error("float64", "(2,)")),
    (lambda: INDEX.neighborhoods(3, [True]), rows_error("bool", "(1,)")),
    (lambda: INDEX.neighborhoods(3, [[1, 2]]), rows_error("int64", "(1, 2)")),
    (lambda: INDEX.neighborhoods(3, 2), rows_error("int64", "()")),
], ids=["two-columns", "three-axes", "two-values", "no-values", "nan", "inf", "no-points",
        "normals-count", "knn-batch-float-rows", "knn-batch-bool-rows", "knn-batch-2d-rows",
        "knn-batch-scalar-rows", "knn-float-query", "neighborhoods-float-rows",
        "neighborhoods-bool-rows", "neighborhoods-2d-rows", "neighborhoods-scalar-rows"])
def test_geometry_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_as_points_takes_one_point():
    pts = as_points([1, 2, 3])
    assert pts.shape == (1, 3) and pts.dtype == np.float64
    assert pts.tolist() == [[1.0, 2.0, 3.0]]


@pytest.mark.parametrize("rows", [[3, 7], np.array([3, 7], dtype=np.int32),
                                  np.array([3, 7], dtype=np.uint8), (np.int64(3), 7)],
                         ids=["list", "int32", "uint8", "numpy-scalars"])
def test_point_indices_take_any_integer_type(rows):
    want_i, want_d = INDEX.knn_batch(3, np.array([3, 7], dtype=np.intp))
    got_i, got_d = INDEX.knn_batch(3, rows)
    assert got_i.tobytes() == want_i.tobytes() and got_d.tobytes() == want_d.tobytes()
    pts, _ = INDEX.neighborhoods(3, rows)
    assert pts.tobytes() == INDEX.neighborhoods(3, [3, 7])[0].tobytes()


@pytest.mark.parametrize("call, message", [
    (lambda: estimate_normal(INDEX, 2.9, 0.0, EstimationParams()), rows_error("float64", "(1,)")),
    (lambda: estimate_normal(INDEX, np.float64(2.0), 0.0, EstimationParams()),
     rows_error("float64", "(1,)")),
    (lambda: estimate_normal(INDEX, True, 0.0, EstimationParams()), rows_error("bool", "(1,)")),
    (lambda: estimate_normal(INDEX, [1, 2], 0.0, EstimationParams()),
     rows_error("int64", "(1, 2)")),
    (lambda: denoise_point(INDEX, 2.9, EstimationParams()), rows_error("float64", "(1,)")),
    (lambda: denoise_point(INDEX, True, EstimationParams()), rows_error("bool", "(1,)")),
    (lambda: denoise_point(INDEX, [1, 2], EstimationParams()), rows_error("int64", "(1, 2)")),
], ids=["estimate-float", "estimate-numpy-float", "estimate-bool", "estimate-2d",
        "denoise-float", "denoise-bool", "denoise-2d"])
def test_pipeline_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: AdaptiveConfig(thresholds=(0.0, 0.1, 0.2), sizes=(32, 64, 128)),
     "need one more threshold than sizes"),
    (lambda: AdaptiveConfig(thresholds=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                            sizes=(32, 64, 128, 256)),
     "need one more threshold than sizes"),
    (lambda: rejection_enabled(-0.01), "noise level must be nonnegative"),
], ids=["one-short", "one-over", "negative-f"])
def test_noise_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("dihedral", [0.0, -30.0, 180.0, 200.0])
def test_synth_checks(dihedral):
    with pytest.raises(ValueError, match=r"dihedral_deg must lie in \(0, 180\)"):
        ShapeSpec(kind="wedge", dihedral_deg=dihedral)


# (parameter, call taking it, an integer it accepts): every size, count and thread
# number passes geometry.require_count
COUNTS = [
    ("k_s", lambda v: SamplingParams(k_s=v), 4),
    ("n_candidates", lambda v: SamplingParams(n_candidates=v), 20),
    ("max_resample_attempts", lambda v: SamplingParams(max_resample_attempts=v), 20),
    ("max_iters", lambda v: ConsensusParams(max_iters=v), 50),
    ("seed", lambda v: EstimationParams(seed=v), 7),
    ("noise_k", lambda v: EstimationParams(noise_k=v), 10),
    ("denoise_k", lambda v: EstimationParams(denoise_k=v), 10),
    ("threads", lambda v: RunConfig(threads=v), 2),
    ("n_points", lambda v: ShapeSpec(kind="plane", n_points=v), 600),
    ("seed", lambda v: ShapeSpec(kind="plane", seed=v), 3),
    ("seed", lambda v: NoiseSpec(seed=v), 3),
    ("sizes[1]", lambda v: AdaptiveConfig(sizes=(32, v, 256, 450)), 128),
    ("rejection_interval_max", lambda v: AdaptiveConfig(rejection_interval_max=v), 2),
    ("n_threads", lambda v: estimate_all(CLOUD, EstimationParams(), v), 2),
    ("n_threads", lambda v: denoise_all(CLOUD, EstimationParams(), v), 2),
    ("k", lambda v: INDEX.knn_batch(v, [0, 1]), 3),
    ("k", lambda v: INDEX.neighborhoods(v, [0, 1]), 3),
    ("k", lambda v: neighborhood_fits(INDEX, v), 3),
    ("k", lambda v: pca_baseline(CLOUD, v), 3),
    ("k_f", lambda v: cloud_noise_scale(INDEX, v), 10),
]
COUNT_IDS = ["k_s", "n_candidates", "attempts", "max_iters", "estimation-seed", "noise_k",
             "denoise_k", "threads", "n_points", "shape-seed", "noise-seed", "sizes",
             "rejection-interval", "estimate-n_threads", "denoise-n_threads", "knn_batch-k",
             "neighborhoods-k", "neighborhood_fits-k", "pca_baseline-k", "k_f"]
NOT_INTEGERS = [("float", lambda n: n + 0.5), ("numpy-float", np.float64), ("bool", bool),
                ("str", str)]


@pytest.mark.parametrize("kind, spoil", NOT_INTEGERS, ids=[kind for kind, _ in NOT_INTEGERS])
@pytest.mark.parametrize("name, call, good", COUNTS, ids=COUNT_IDS)
def test_counts_must_be_integers(name, call, good, kind, spoil):
    value = spoil(good)
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("name, value, least, call", [
    ("seed", -1, 0, lambda: ShapeSpec(kind="plane", seed=-1)),
    ("seed", -1, 0, lambda: NoiseSpec(seed=-1)),
    ("sizes[0]", 0, 1, lambda: AdaptiveConfig(sizes=(0, 128, 256, 450))),
], ids=["shape-seed", "noise-seed", "sizes"])
def test_counts_below_their_least(name, value, least, call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"{name} must be >= {least}, got {value}"


def outputs_from_counts(count):
    """(output bytes of every entry point, k_hat), each size, count and seed made by `count`."""
    params = EstimationParams(
        adaptive=AdaptiveConfig(sizes=tuple(count(s) for s in (16, 32, 48, 56)),
                                rejection_interval_max=count(2)),
        sampling=SamplingParams(k_s=count(4), n_candidates=count(20),
                                max_resample_attempts=count(20)),
        consensus=ConsensusParams(max_iters=count(50)),
        seed=count(7), denoise_k=count(16), noise_k=count(16))
    clean = gen_shape(ShapeSpec(kind="wedge", n_points=count(60), seed=count(3)))
    cloud = add_noise(clean, NoiseSpec(std_pct_bbox_diag=0.5, seed=count(4)))
    index = build_index(cloud)
    est, report = estimate_all(cloud, params, count(2))
    arrays = [est.normals, report.survivors, report.iterations, report.converged, report.loss,
              report.fallback, denoise_all(cloud, params, count(2)).points,
              estimate_normal(index, count(5), 0.0, params)[0],
              denoise_point(index, count(5), params), pca_baseline(cloud, count(8)).normals,
              *index.knn_batch(count(5), [0, 3]), *index.neighborhoods(count(5), [0, 3]),
              *neighborhood_fits(index, count(6)), cloud_noise_scale(index, count(9)).per_point_f]
    return b"".join(np.asarray(a).tobytes() for a in arrays), report.k_hat


@pytest.mark.parametrize("count", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_integer_counts_give_the_same_bytes(count):
    assert outputs_from_counts(count) == outputs_from_counts(int)
    assert RunConfig(threads=count(2)).threads == 2


@pytest.mark.parametrize("values, message", [
    ({"threads": 2.5}, "threads must be an integer, got 2.5"),
    ({"k_s": "4"}, "k_s must be an integer, got '4'"),
], ids=["float-threads", "str-k_s"])
def test_config_counts_must_be_integers(values, message):
    with pytest.raises(ConfigError) as info:
        config.from_values(values)
    assert str(info.value) == message


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("call", [estimate_all, denoise_all], ids=["estimate", "denoise"])
def test_fractional_threads_fail_at_any_cpu_count(call, cpus, monkeypatch):
    # the worker count is min(n_threads, usable CPUs, N): 2.5 must not pass as 2 on
    # two CPUs and reach np.array_split as 2.5 on four
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    with pytest.raises(ValueError) as info:
        call(CLOUD, EstimationParams(), 2.5)
    assert str(info.value) == "n_threads must be an integer, got 2.5"


# (parameter, interval, call taking it, a value inside, a Python int inside): every
# real-valued parameter passes geometry.require_real
NBRS = CLOUD.points[:12]
PLANES = CandidatePlanes(normals=np.eye(3), anchors=np.zeros((3, 3)))
NUMBERS = [
    ("rejection_fraction_normals", "[0, 1)",
     lambda v: SamplingParams(rejection_fraction_normals=v), 0.2, 0),
    ("rejection_fraction_positions", "[0, 1)",
     lambda v: SamplingParams(rejection_fraction_positions=v), 0.1, 0),
    ("fraction", "[0, 1)", lambda v: rejection_order(np.ones((2, 5)), v), 0.2, 0),
    ("sigma", "(0, inf)", lambda v: score_candidates(NBRS, PLANES, v), 0.3, 1),
    ("sigma", "(0, inf)",
     lambda v: score_position_candidates(NBRS, PositionCandidates(positions=NBRS[:3]), v),
     0.3, 1),
    ("tau_normal", "(0, 1]", lambda v: ConsensusParams(tau_normal=v), 0.5, 1),
    ("tol_deg", "[0, inf)", lambda v: ConsensusParams(tol_deg=v), 0.01, 0),
    ("tol_pos", "[0, inf)", lambda v: ConsensusParams(tol_pos=v), 1e-5, 0),
    ("tau", "(0, inf)", lambda v: ccp_loss(NBRS[0], NBRS, v), 0.3, 1),
    ("tau", "(0, inf)", lambda v: position_mode(NBRS, ConsensusParams(), NBRS[0], v), 0.3, 1),
    ("extent", "(0, inf)", lambda v: ShapeSpec(kind="plane", extent=v), 1.5, 2),
    ("dihedral_deg", "(0, 180)", lambda v: ShapeSpec(kind="wedge", dihedral_deg=v), 60.0, 90),
    ("std_pct_bbox_diag", "[0, inf)", lambda v: NoiseSpec(std_pct_bbox_diag=v), 0.5, 1),
    ("thresholds[0]", "(-inf, inf)",
     lambda v: AdaptiveConfig(thresholds=(v, 0.02, 0.14, 0.16, 0.3)), 0.01, 0),
    ("thresholds[4]", "(-inf, inf)",
     lambda v: AdaptiveConfig(thresholds=(0.0, 0.02, 0.14, 0.16, v)), 0.3, 1),
]
NUMBER_IDS = ["fraction-normals", "fraction-positions", "rejection-order", "plane-sigma",
              "position-sigma", "tau_normal", "tol_deg", "tol_pos", "ccp-tau",
              "position-mode-tau", "extent", "dihedral", "noise-std", "threshold-first",
              "threshold-last"]
NOT_REALS = [("nan", lambda good: math.nan), ("numpy-nan", lambda good: np.float64("nan")),
             ("inf", lambda good: math.inf), ("minus-inf", lambda good: -math.inf),
             ("str", str), ("bool", bool)]


@pytest.mark.parametrize("kind, spoil", NOT_REALS, ids=[kind for kind, _ in NOT_REALS])
@pytest.mark.parametrize("name, interval, call, good, whole", NUMBERS, ids=NUMBER_IDS)
def test_numbers_must_lie_in_their_interval(name, interval, call, good, whole, kind, spoil):
    value = spoil(good)
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} must lie in {interval}, got {value!r}"


@pytest.mark.parametrize("name, interval, call, good, whole", NUMBERS, ids=NUMBER_IDS)
def test_numbers_take_python_ints_and_numpy_floats(name, interval, call, good, whole):
    for value in (good, np.float64(good), np.float32(good), whole, np.int64(whole)):
        call(value)


@pytest.mark.parametrize("values, message", [
    ({"tau_normal": "0.5"}, "tau_normal must lie in (0, 1], got '0.5'"),
    ({"adaptive_l1": "0.02"}, "thresholds[1] must lie in (-inf, inf), got '0.02'"),
    ({"tol_deg": "0.01"}, "tol_deg must lie in [0, inf), got '0.01'"),
    ({"rejection_fraction_normals": "0.2"},
     "rejection_fraction_normals must lie in [0, 1), got '0.2'"),
    ({"tau_normal": math.nan}, "tau_normal must lie in (0, 1], got nan"),
    ({"input_path": 5}, "input_path must be a string, got 5"),
    ({"output_path": b"o.xyz"}, "output_path must be a string, got b'o.xyz'"),
], ids=["str-tau_normal", "str-adaptive_l1", "str-tol_deg", "str-fraction", "nan-tau_normal",
        "int-input_path", "bytes-output_path"])
def test_config_values_of_the_wrong_kind(values, message):
    # a string number used to reach a comparison and raise a bare TypeError
    with pytest.raises(ConfigError) as info:
        config.from_values(values)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("tau_normal = nan\n", "tau_normal must lie in (0, 1], got nan"),
    ("adaptive_l4 = inf\n", "thresholds[4] must lie in (-inf, inf), got inf"),
], ids=["nan-tau", "inf-threshold"])
def test_config_file_numbers_outside_their_interval(text, message):
    with pytest.raises(ConfigError) as info:
        config.parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: config.parse("seed 3\n"), "line 1: expected 'key = value', got 'seed 3'"),
    (lambda: config.parse("seed = 3\nthreads\n"), "line 2: expected 'key = value'"),
    (lambda: config.from_values({"seed": 1, "bogus": 2, "other": 3}),
     r"unknown keys: \['bogus', 'other'\]"),
], ids=["no-equals", "no-equals-line-2", "unknown-keys"])
def test_config_checks(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


@pytest.mark.parametrize("value, path", [
    ("'a' 'b'", "a' 'b"),          # two literals: the outer quotes are stripped
    ("'run\\N'", "run\\N"),         # a literal that does not parse: the same
    ("'run#2.xyz'", "run#2.xyz"),   # one literal keeps its '#'
], ids=["two-literals", "bad-escape", "one-literal"])
def test_config_quoted_values(value, path):
    assert config.parse(f"input_path = {value}\n").input_path == path


PLY_HEAD = "ply\nformat ascii 1.0\nelement vertex 2\n"
XYZ_PROPS = "property float x\nproperty float y\nproperty float z\n"
PLY_BODY = "0 0 0\n1 0 0\n"


@pytest.mark.parametrize("text, error, message", [
    (PLY_HEAD + XYZ_PROPS + "\n" + "end_header\n" + PLY_BODY, None, None),
    (PLY_HEAD + XYZ_PROPS, ParseError, "incomplete PLY header"),
    ("ply\nformat ascii 1.0\n" + XYZ_PROPS + "end_header\n" + PLY_BODY, ParseError,
     "incomplete PLY header"),
    (PLY_HEAD + "property float x\nproperty float y\nend_header\n" + PLY_BODY, ParseError,
     "vertex property 'z' missing"),
], ids=["blank-header-line", "no-end-header", "no-vertex-element", "no-z"])
def test_io_checks(text, error, message, tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(text)
    if error is None:
        assert io.read_ply(path).points.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    else:
        with pytest.raises(error, match=message):
            io.read_ply(path)


def test_write_ply_reference_needs_normals(tmp_path):
    cloud = PointCloud(points=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="cloud has no normals to compare against the reference"):
        io.write_ply(cloud, tmp_path / "out.ply", reference_normals=[[0.0, 0.0, 1.0]] * 2)
    assert not (tmp_path / "out.ply").exists()


def test_write_xyz_takes_no_reference_normals(tmp_path):
    # XYZ has no colour columns: reference normals raise before the file is opened
    cloud = PointCloud(points=np.zeros((2, 3)))
    path = tmp_path / "out.xyz"
    with pytest.raises(ValueError, match="reference normals need a .ply path"):
        io.write_cloud(cloud, path, reference_normals=np.ones((7, 2)))
    assert not path.exists()


ONE_PER_POINT = "need one reference normal per point: 2 points, "


@pytest.mark.parametrize("reference, message", [
    ([0.0, 0.0, 1.0], ONE_PER_POINT + "1 reference normals"),
    ([[0.0, 0.0, 1.0]], ONE_PER_POINT + "1 reference normals"),
    ([[0.0, 0.0, 1.0]] * 3, ONE_PER_POINT + "3 reference normals"),
    (np.ones((2, 2)), r"expected \(N, 3\) point array, got shape \(2, 2\)"),
], ids=["one-vector", "one-row", "too-many-rows", "two-columns"])
def test_write_ply_reference_needs_one_row_per_point(reference, message, tmp_path):
    # a single reference row is not broadcast over every vertex
    cloud = PointCloud(points=np.zeros((2, 3)), normals=[[0.0, 0.0, 1.0]] * 2)
    with pytest.raises(ValueError, match=message):
        io.write_ply(cloud, tmp_path / "out.ply", reference_normals=reference)
    assert not (tmp_path / "out.ply").exists()


def test_cli_entry_point_help():
    # the `normfit` console script calls cli.main, which exits with cli_main's code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "normfit.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.startswith("usage: ")
    for command in ("synth", "estimate", "denoise", "eval", "bench"):
        assert command in done.stdout
    assert cli_main(["--help"]) == 0
