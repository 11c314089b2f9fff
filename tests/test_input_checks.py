"""The public input checks, one table per module: each bad input raises the
error its check names, and each accepted edge case gives what it should."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import normfit
from normfit import config, io
from normfit.candidates import SamplingParams, rejection_order, rejection_sigma
from normfit.cli import cli_main
from normfit.consensus import ConsensusParams
from normfit.errors import ConfigError, ParseError
from normfit.geometry import PointCloud, as_points, build_index
from normfit.pipeline import EstimationParams, denoise_point, estimate_normal
from normfit.noise import AdaptiveConfig, rejection_enabled
from normfit.synth import ShapeSpec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(normfit.__file__)))


FRACTIONS = r"rejection fractions must lie in \[0, 1\)"
# an index over 40 points: enough for the single-point calls at the default parameters
INDEX = build_index(PointCloud(points=np.random.default_rng(0).normal(size=(40, 3))))


def rows_error(dtype, shape):
    return re.escape("point indices must be a 1-D sequence of integers, "
                     f"got dtype {dtype} and shape {shape}")


@pytest.mark.parametrize("call, message", [
    (lambda: SamplingParams(n_candidates=0), "n_candidates must be >= 1"),
    (lambda: SamplingParams(rejection_fraction_normals=-0.1), FRACTIONS),
    (lambda: SamplingParams(rejection_fraction_positions=1.0), FRACTIONS),
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
