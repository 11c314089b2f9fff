"""One md5 over normfit's outputs, to show that a change moves no output byte.

    PYTHONPATH=src python3 tools/output_digest.py           # the synth matrix
    PYTHONPATH=src python3 tools/output_digest.py --bench   # the benchmark's clouds

The synth matrix is every `synth` shape at 0% and 1% noise, at 10, 200, 201,
2000 and 4001 points, each run at 1, 2 and 3 threads.  For each cloud and
thread count the digest takes the `estimate_all` normals, the five per-point
`RunReport` arrays and the `denoise_all` points, in that order.  `--bench`
digests the check and timing clouds of the benchmark's workloads at seed 0
instead, at 1 and 2 threads, through the benchmark's own read -> call path.
Run it on two trees with the same arguments and compare the printed lines.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from normfit import (EstimationParams, NoiseSpec, RunReport, ShapeSpec, add_noise,
                     denoise_all, estimate_all, gen_shape, io, metrics)

SHAPES = ("plane", "sphere", "cylinder", "cube", "wedge")
NOISE_PCT = (0.0, 1.0)
SIZES = (10, 200, 201, 2000, 4001)
THREADS = (1, 2, 3)
BENCH_WORKLOADS = ("wedge-noisy-k128", "plane-denoise", "sphere-pca-io")


def add_estimate(h, cloud, seed: int, n_threads: int) -> None:
    est, report = estimate_all(cloud, EstimationParams(seed=seed), n_threads)
    h.update(est.normals.tobytes())
    for f in fields(RunReport)[1:]:
        h.update(getattr(report, f.name).tobytes())


def add_denoise(h, cloud, seed: int, n_threads: int) -> None:
    h.update(denoise_all(cloud, EstimationParams(seed=seed), n_threads).points.tobytes())


def synth_digest(h) -> int:
    cases = 0
    for kind in SHAPES:
        for noise in NOISE_PCT:
            for n in SIZES:
                cloud = add_noise(gen_shape(ShapeSpec(kind=kind, n_points=n, seed=n)),
                                  NoiseSpec(std_pct_bbox_diag=noise, seed=n + 1))
                for n_threads in THREADS:
                    add_estimate(h, cloud, n + 2, n_threads)
                    add_denoise(h, cloud, n + 2, n_threads)
                    cases += 1
    return cases


def bench_digest(h) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import PCA_K, WORKLOADS, make_inputs

    cases = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name in BENCH_WORKLOADS:
            wl = WORKLOADS[name]
            checks, timings = make_inputs(wl, 0, workdir)
            for c in checks + timings:
                cloud = io.read_cloud(c.path)
                if wl.call == "pca":        # no worker processes
                    h.update(metrics.pca_baseline(cloud, PCA_K).normals.tobytes())
                    cases += 1
                    continue
                add = add_estimate if wl.call == "estimate" else add_denoise
                for n_threads in (1, 2):
                    add(h, cloud, c.est_seed, n_threads)
                    cases += 1
    return cases


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="digest the benchmark's clouds instead of the synth matrix")
    args = parser.parse_args(argv)
    h = hashlib.md5()
    cases = bench_digest(h) if args.bench else synth_digest(h)
    print(f"{h.hexdigest()}  {cases} cases")


if __name__ == "__main__":
    main()
