"""Guards for what the library's own tests would not notice: the names the
benchmark tracer wraps, the stages a single-point call reaches, the one
eigen kernel, the one k-NN tree query, the one walk over the parameter
tree, the one mode-solver loop, the one subset draw, kernel sum and survivor
step of the consensus chain, the one row-chunk rule, the one parallel
backend, unused private code, whole-cloud k-NN blocks, outputs under any
BLAS thread count, and the demos."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normfit
from normfit import EstimationParams, PointCloud, build_index, pipeline

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(normfit.__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("probe", tracer.normfit_probes(), ids=lambda p: p.name)
def test_every_traced_attribute_exists(probe):
    # the tracer looks the attribute up in its owner's own namespace
    assert callable(probe.owner.__dict__.get(probe.attr)), probe.attr


def test_single_point_calls_reach_no_single_point_stage():
    cloud = PointCloud(points=np.random.default_rng(3).uniform(-1, 1, (120, 3)))
    index = build_index(cloud)
    params = EstimationParams(seed=4)
    probes = tracer.normfit_probes()
    single = {p.name for p in probes
              if p.name.split(".")[0] in ("candidates", "consensus")
              and p.name != "candidates.fit_planes_batch"}
    # looked up on the module at call time, where the tracer installs its wrappers
    with tracer.Tracer(probes) as tr:
        pipeline.estimate_normal(cloud, index, 5, 0.0, params)    # rejection on
        pipeline.estimate_normal(cloud, index, 6, 0.5, params)    # rejection off
        pipeline.denoise_point(cloud, index, 7, params)
    names = {name for _, _, name, _, _ in tr.spans}
    assert {"pipeline.estimate_normal", "pipeline.denoise_point"} <= names
    assert not names & single, names & single


def scopes_of(path, hit):
    """(module, enclosing function) of every node of `path` for which hit(node)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if hit(child):
                found.append((path.stem, scope))
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


def library_scopes(hit):
    return sorted(s for path in sorted(Path(normfit.__file__).parent.glob("*.py"))
                  for s in scopes_of(path, hit))


def is_eigen_call(node):
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return name in ("eigh", "eigvalsh", "eig", "eigvals")


def test_one_eigen_kernel():
    # plane_fit (with its eigh fallback) is the covariance/eigen kernel; the
    # normal mode solver takes power steps, not eigen solves
    assert library_scopes(is_eigen_call) == [("geometry", "plane_fit")]


def test_one_parameter_walk():
    # config's one walk over the dataclass tree (`_map`) names the keys of
    # SCHEMA and from_values alike
    def calls_fields(node):
        f = getattr(node, "func", None)
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return isinstance(node, ast.Call) and name == "fields"

    assert library_scopes(calls_fields) == [("config", "_map")]


def test_one_knn_query():
    # knn_batch is the one query of the k-NN tree, tied rows widening in it
    # as a batch; knn is its batch of one
    def is_tree_query(node):
        f = getattr(node, "func", None)
        return (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
                and f.attr == "query" and isinstance(f.value, ast.Attribute)
                and f.value.attr == "_tree")

    assert library_scopes(is_tree_query) == [("geometry", "knn_batch")]


def calls_to(name):
    """hit(node) for a call of a function or method named `name`."""
    def hit(node):
        f = getattr(node, "func", None)
        called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return isinstance(node, ast.Call) and called == name
    return hit


def test_one_subset_draw():
    # plane and position candidates draw and gather their neighbor subsets
    # through one helper
    assert library_scopes(calls_to("_draw_index_sets")) == [("candidates", "_subsets")]


def test_one_kernel_sum():
    # both candidate scores clip their exponents and sum their kernel terms
    # in one place
    def is_np_exp(node):
        f = getattr(node, "func", None)
        return (isinstance(node, ast.Call) and isinstance(f, ast.Attribute)
                and f.attr == "exp" and getattr(f.value, "id", None) == "np")

    assert [s for s in library_scopes(is_np_exp)
            if s[0] == "candidates"] == [("candidates", "_kernel_sum")]


def test_one_survivor_step():
    # both chains score, reject and reorder their candidates in one helper
    assert [s for s in library_scopes(calls_to("rejection_order"))
            if s[0] == "pipeline"] == [("pipeline", "_survivors")]


def test_one_mode_loop():
    # both mode solvers descend through one loop, and only the loop guards
    # a step against a rise of the loss
    def reads_slack(node):
        return (isinstance(node, ast.Name) and node.id == "_LOSS_SLACK"
                and isinstance(node.ctx, ast.Load))

    assert library_scopes(reads_slack) == [("consensus", "_descend")]


def test_one_row_chunk_rule():
    # the 2 MB budget turns into rows in one place: every row-chunk loop and
    # the block partition take their slices from geometry.row_chunks, and no
    # other module binds or reads the budget
    def reads_budget(node):
        return ((isinstance(node, ast.Name) and node.id == "_BLOCK_ELEMENTS"
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == "_BLOCK_ELEMENTS"))

    def imports_budget(node):
        return isinstance(node, ast.alias) and node.name == "_BLOCK_ELEMENTS"

    assert library_scopes(reads_budget) == [("geometry", "row_chunks")]
    assert library_scopes(imports_budget) == []


def test_one_parallel_backend():
    # blocks of n_threads >= 2 run on one pool of forked processes, made in
    # one place; no thread pool is left beside it
    def names_thread_pool(node):
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        return name == "ThreadPoolExecutor"

    def makes_executor(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        return name.endswith("Executor")

    # unsorted: an import names it at module scope, whose scope is None
    assert [s for path in sorted(Path(normfit.__file__).parent.glob("*.py"))
            for s in scopes_of(path, names_thread_pool)] == []
    assert library_scopes(makes_executor) == [("pipeline", "_pool")]


def test_every_private_name_is_used():
    # a private function or class that nothing in the library names is dead
    # code, such as a replaced loop left behind; the tests' oracles live in
    # conftest, not here
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(normfit.__file__).parent.glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined, "no private definitions found"
    assert sorted(defined - used) == []


def test_no_whole_cloud_knn_block():
    # a knn_batch call without rows queries every point at once and builds
    # an (N, k) block; the library streams whole clouds in row chunks
    # (tests and demos may still query the whole cloud)
    calls = []
    for path in sorted(Path(normfit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "knn_batch"):
                has_rows = len(node.args) >= 2 or any(kw.arg == "rows" for kw in node.keywords)
                calls.append((f"{path.name}:{node.lineno}", has_rows))
    assert calls, "no knn_batch calls found"
    assert [where for where, has_rows in calls if not has_rows] == []


BLAS_RUN = """
import hashlib
from dataclasses import fields
from normfit import (EstimationParams, NoiseSpec, RunReport, ShapeSpec, add_noise,
                     denoise_all, estimate_all, gen_shape)
cloud = add_noise(gen_shape(ShapeSpec(kind="wedge", n_points=600, seed=1)),
                  NoiseSpec(std_pct_bbox_diag=1.0, seed=2))
est, report = estimate_all(cloud, EstimationParams(seed=3))
out = denoise_all(cloud, EstimationParams(seed=3))
for a in [est.normals, out.points] + [getattr(report, f.name) for f in fields(RunReport)[1:]]:
    print(hashlib.md5(a.tobytes()).hexdigest())
"""


def test_outputs_independent_of_blas_threads():
    # the stacked matmuls and eigen solves run in OpenBLAS, whose thread
    # count must not change a byte of the normals, the report or the
    # denoised points; the three runs go one after another
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    digests = []
    for blas_threads in ("1", "2", None):
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        done = subprocess.run([sys.executable, "-c", BLAS_RUN], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        digests.append(done.stdout.split())
    assert len(digests[0]) == 7
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
