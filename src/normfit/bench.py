"""Synthetic benchmark suite: shapes x noise levels x seeds x candidate counts."""

from __future__ import annotations

import numpy as np

from .candidates import SamplingParams
from .metrics import rms_angle
from .pipeline import EstimationParams, estimate_all
from .synth import SHAPE_KINDS, NoiseSpec, ShapeSpec, add_noise, gen_shape

SUITE_SHAPES = SHAPE_KINDS
SUITE_NOISE = (0.0, 0.5, 1.0)            # percent of bbox diagonal


def suite_clouds(points_per_cloud=600, seeds=(0, 1, 2)):
    """Yield (label, noisy cloud with GT normals) for the whole suite."""
    for shape in SUITE_SHAPES:
        for noise in SUITE_NOISE:
            for seed in seeds:
                spec = ShapeSpec(kind=shape, n_points=points_per_cloud, seed=seed)
                clean = gen_shape(spec)
                noisy = add_noise(clean, NoiseSpec(std_pct_bbox_diag=noise, seed=seed))
                yield f"{shape}/noise{noise:g}/seed{seed}", noisy


def run_suite(points_per_cloud=600, candidate_counts=(20, 100, 400), seeds=(0, 1, 2),
              n_threads=1, verbose=False):
    """Mean RMS angle error over the suite for each candidate count.  Raises
    ValueError when there are no seeds to average."""
    if not len(seeds):
        raise ValueError("the suite needs at least one seed")
    results = {}
    for count in candidate_counts:
        params = EstimationParams(sampling=SamplingParams(n_candidates=count))
        errs = []
        for label, cloud in suite_clouds(points_per_cloud, seeds):
            est, _ = estimate_all(cloud, params, n_threads=n_threads)
            rms = rms_angle(est.normals, cloud.normals)
            errs.append(rms)
            if verbose:
                print(f"  [{count:4d} candidates] {label}: rms = {rms:.3f} deg")
        results[count] = float(np.mean(errs))
        if verbose:
            print(f"candidates={count}: mean rms = {results[count]:.4f} deg")
    return results
