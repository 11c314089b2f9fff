"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as stdio
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

workloads, tracer = run.import_normfit()

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to one small timing cloud and a small check cloud."""
    for name, wl in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(wl, n_points=400, clouds=1, check_points=400,
                                                check_clouds=1))


def run_cli(*argv):
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_harness():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (n, workloads.WORKLOADS[n].why) for n in run.BENCHMARKED]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(tiny, name):
    code, lines, result = run_cli("--workload", name, "--seed", "0", "--seconds", "0.01",
                                  "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the human-readable table names every metric with unit and direction
    table = "\n".join(lines)
    for metric, (unit, better) in {**run.END_TO_END, **run.REPORTED_ONLY}.items():
        if metric in ("chamfer_ratio", "p2s_ratio") and name != "plane-denoise":
            continue
        assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)} +\({better} is better\)$",
                         table, re.M), metric

    code, lines, traced = run_cli("--workload", name, "--seed", "0", "--seconds", "0.01",
                                  "--trace", "1")
    assert code == 0
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        k: u for k, (u, _) in run.PER_LAYER.items()}
    assert traced["correct"], lines


def test_traced_run_reports_the_noise_regime(tiny):
    wl = workloads.WORKLOADS["wedge-clean-k32"]
    _, _, result = run_cli("--workload", wl.name, "--seed", "0", "--seconds", "0.01",
                           "--trace", "1")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["noise.k_hat"] in (32, 128, 256, 450)
    assert m["noise.cloud_f"] > 0
    assert m["geometry.knn_calls"] == wl.n_points
    assert m["candidates.fit_rows"] >= 100 * wl.n_points
    assert m["candidates.pos_sample_s"] == 0 and m["metrics.pca_s"] == 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_changes_every_generated_input(tmp_path, name):
    wl = dataclasses.replace(workloads.WORKLOADS[name], n_points=200, check_points=200)

    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        checks, clouds = workloads.make_inputs(wl, seed, str(d))
        return [open(c.path, "rb").read() for c in checks + clouds]

    a, again, b = inputs(0, "a"), inputs(0, "again"), inputs(1, "b")
    assert a == again
    assert all(x != y for x in a for y in b)
    assert len(set(a)) == len(a)


def test_scaled_rate_divides_out_the_reference_kernel():
    ref = run.calibrate.REFERENCE_S[1]
    # a pass twice as slow while the kernel is twice as slow has the same rate
    passes = [(1.0, ref), (2.0, 2 * ref), (4.0, ref)]
    assert run.scaled_rate(passes, 100, 1) == pytest.approx(100.0)
    assert run.scaled_rate([], 100, 1) == 0.0


def test_no_wrapper_survives_tracing():
    probes = tracer.normfit_probes()
    originals = [p.owner.__dict__[p.attr] for p in probes]
    with tracer.Tracer(probes):
        assert set(tracer.installed(probes)) == {p.name for p in probes}
    assert tracer.installed(probes) == []
    with pytest.raises(RuntimeError):
        with tracer.Tracer(probes):
            raise RuntimeError("boom")
    assert [p.owner.__dict__[p.attr] for p in probes] == originals


def test_self_times_subtract_children():
    spans = [(1, 0, "b.child", 1.0, 3.0), (2, 1, "c.leaf", 1.5, 2.0),
             (0, -1, "a.root", 0.0, 10.0), (3, -1, "a.root", 10.0, 11.0)]
    self_s, calls, root = tracer.self_times(spans)
    assert self_s == {"a.root": pytest.approx(9.0), "b.child": pytest.approx(1.5),
                      "c.leaf": pytest.approx(0.5)}
    assert calls == {"a.root": 2, "b.child": 1, "c.leaf": 1}
    assert root == pytest.approx(sum(self_s.values()))


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wedge-clean-k32",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
