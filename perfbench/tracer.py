"""Outside-in tracing of normfit: wrap public functions, record spans, restore.

Each probe replaces one attribute at the place its caller looks it up at call
time (for example ``normfit.pipeline.normal_mode``, which ``estimate_normal``
reads from its own module globals).  The wrapper records a span
``(id, parent, name, start, end)`` and, where a probe has one, counts read
from the call's arguments and return value.  Nothing in ``src/`` changes, and
leaving the ``with`` block restores every original attribute.

A span name is ``<layer>.<function>``; the layer is a module of normfit.  A
layer's self time is the time of its spans minus the time of their child
spans, so the self times of all spans add up to the time of the root spans.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Probe:
    owner: object                  # module or class holding the attribute
    attr: str
    name: str                      # span name, "<layer>.<function>"
    count: Optional[Callable] = None   # (counts, args, kwargs, result) -> None


class Tracer:
    """Context manager that installs the probes on enter and removes them on exit.

    Spans stay in memory (``self.spans``); counts accumulate in ``self.counts``.
    """

    def __init__(self, probes):
        self.probes = list(probes)
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._saved: list = []
        self._local = threading.local()
        self._ids = itertools.count()

    def __enter__(self):
        try:
            for p in self.probes:
                original = p.owner.__dict__[p.attr]
                self._saved.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, self._wrap(original, p))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, probe: Probe):
        spans, counts, local, ids = self.spans, self.counts, self._local, self._ids
        name, count, clock = probe.name, probe.count, time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def installed(probes) -> list:
    """Names of probes whose attribute is currently a tracer wrapper."""
    return [p.name for p in probes
            if hasattr(p.owner.__dict__.get(p.attr), "__wrapped__")]


def self_times(spans) -> tuple[dict, dict, float]:
    """Per-name self time, per-name span count, and the total root span time."""
    child = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    root = 0.0
    for sid, parent, name, start, end in spans:
        self_s[name] += (end - start) - child[sid]
        calls[name] += 1
        if parent < 0:
            root += end - start
    return dict(self_s), dict(calls), root


def layer_self_times(spans) -> dict:
    """Self time summed per layer (the part of the span name before the dot)."""
    per_name, _, _ = self_times(spans)
    out: dict = defaultdict(float)
    for name, s in per_name.items():
        out[name.split(".", 1)[0]] += s
    return dict(out)


def write_spans(spans, path) -> None:
    """One JSON array per line: id, parent (-1 for a root), name, start, end."""
    with open(path, "w") as fh:
        for sid, parent, name, start, end in sorted(spans):
            fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


# --- probes for normfit -------------------------------------------------------

def _count_fit(counts, args, kwargs, result):
    pts = args[0]
    _, _, degenerate = result
    counts["fit_rows"] += pts.shape[0]
    counts["fit_accepted"] += int(pts.shape[0] - np.count_nonzero(degenerate))


def _count_score(counts, args, kwargs, result):
    neighbors = args[0]
    counts["score_kernel_evals"] += len(result) * len(neighbors)


def _count_reject(counts, args, kwargs, result):
    counts["reject_in"] += len(args[0])
    counts["reject_out"] += len(result)


def _count_mode(prefix):
    def count(counts, args, kwargs, result):
        counts[prefix + "_solves"] += 1
        counts[prefix + "_iters"] += result.iterations
        counts[prefix + "_unconverged"] += 0 if result.converged else 1
    return count


def _count_noise(counts, args, kwargs, result):
    counts["cloud_f"] = result.cloud_f


def _count_k_hat(counts, args, kwargs, result):
    counts["k_hat"] = max(counts["k_hat"], result)


def _count_rejection(counts, args, kwargs, result):
    counts["rejection_on"] = max(counts["rejection_on"], 1.0 if result else 0.0)


def _count_file(key, path_arg):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[path_arg])
    return count


def normfit_probes() -> list:
    """Every public entry point of the measured layers, at its call-time lookup."""
    from normfit import candidates, consensus, geometry, io, metrics, pipeline

    return [
        # pipeline: whole-cloud entry points, per-point glue and the per-point RNG
        Probe(pipeline, "estimate_all", "pipeline.estimate_all"),
        Probe(pipeline, "denoise_all", "pipeline.denoise_all"),
        Probe(pipeline, "estimate_normal", "pipeline.estimate_normal"),
        Probe(pipeline, "denoise_point", "pipeline.denoise_point"),
        Probe(pipeline, "point_rng", "pipeline.point_rng"),
        # geometry: index build and neighbour queries
        Probe(pipeline, "build_index", "geometry.build_index"),
        Probe(metrics, "build_index", "geometry.build_index"),
        Probe(geometry.NeighborIndex, "knn", "geometry.knn"),
        Probe(geometry.NeighborIndex, "knn_batch", "geometry.knn_batch"),
        # noise: cloud noise profile and the decisions taken from it
        Probe(pipeline, "cloud_noise_scale", "noise.cloud_noise_scale", _count_noise),
        Probe(pipeline, "adaptive_k", "noise.adaptive_k", _count_k_hat),
        Probe(pipeline, "rejection_enabled", "noise.rejection_enabled", _count_rejection),
        # candidates: sample (subset draw), plane fit, score, reject
        Probe(candidates, "sample_normal_candidates", "candidates.sample_normal_candidates"),
        Probe(candidates, "fit_planes_batch", "candidates.fit_planes_batch", _count_fit),
        Probe(candidates, "score_candidates", "candidates.score_candidates", _count_score),
        Probe(candidates, "reject_candidates", "candidates.reject_candidates", _count_reject),
        Probe(candidates, "sample_position_candidates", "candidates.sample_position_candidates"),
        Probe(candidates, "score_position_candidates", "candidates.score_position_candidates",
              _count_score),
        Probe(candidates, "reject_position_candidates", "candidates.reject_position_candidates",
              _count_reject),
        # consensus: mode solvers and their loss evaluations
        Probe(pipeline, "normal_mode", "consensus.normal_mode", _count_mode("normal")),
        Probe(pipeline, "position_mode", "consensus.position_mode", _count_mode("position")),
        Probe(consensus, "ccn_loss", "consensus.ccn_loss"),
        Probe(consensus, "ccp_loss", "consensus.ccp_loss"),
        # metrics: the PCA baseline
        Probe(metrics, "pca_baseline", "metrics.pca_baseline"),
        # io: the CLI's read and write
        Probe(io, "read_cloud", "io.read_cloud", _count_file("read_bytes", 0)),
        Probe(io, "write_cloud", "io.write_cloud", _count_file("write_bytes", 1)),
    ]


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans, counts) -> dict:
    """The per-layer metrics of one traced pass (0 where a layer did not run)."""
    self_s, calls, _ = self_times(spans)
    knn_batch_ids = {sid for sid, _, name, _, _ in spans if name == "geometry.knn_batch"}
    fallbacks = sum(1 for _, parent, name, _, _ in spans
                    if name == "geometry.knn" and parent in knn_batch_ids)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    c = counts.get
    return {
        "pipeline.self_s": s("pipeline.estimate_all", "pipeline.denoise_all",
                             "pipeline.estimate_normal", "pipeline.denoise_point"),
        "pipeline.point_rng_s": s("pipeline.point_rng"),
        "geometry.knn_s": s("geometry.knn"),
        "geometry.knn_calls": calls.get("geometry.knn", 0),
        "geometry.knn_batch_s": s("geometry.knn_batch"),
        "geometry.knn_batch_fallbacks": fallbacks,
        "geometry.index_build_s": s("geometry.build_index"),
        "noise.profile_s": s("noise.cloud_noise_scale", "noise.adaptive_k",
                             "noise.rejection_enabled"),
        "noise.cloud_f": c("cloud_f", 0.0),
        "noise.k_hat": c("k_hat", 0.0),
        "noise.rejection_on": c("rejection_on", 0.0),
        "candidates.sample_s": s("candidates.sample_normal_candidates"),
        "candidates.fit_s": s("candidates.fit_planes_batch"),
        "candidates.fit_rows": c("fit_rows", 0.0),
        "candidates.draw_efficiency": _ratio(c("fit_accepted", 0.0), c("fit_rows", 0.0)),
        "candidates.score_s": s("candidates.score_candidates"),
        "candidates.score_kernel_evals": c("score_kernel_evals", 0.0),
        "candidates.reject_s": s("candidates.reject_candidates"),
        "candidates.survivor_ratio": _ratio(c("reject_out", 0.0), c("reject_in", 0.0)),
        "candidates.pos_sample_s": s("candidates.sample_position_candidates"),
        "candidates.pos_score_s": s("candidates.score_position_candidates"),
        "candidates.pos_reject_s": s("candidates.reject_position_candidates"),
        "consensus.normal_mode_s": s("consensus.normal_mode", "consensus.ccn_loss"),
        "consensus.normal_iters_mean": _ratio(c("normal_iters", 0.0), c("normal_solves", 0.0)),
        "consensus.normal_loss_evals": calls.get("consensus.ccn_loss", 0),
        "consensus.normal_unconverged_frac": _ratio(c("normal_unconverged", 0.0),
                                                    c("normal_solves", 0.0)),
        "consensus.position_mode_s": s("consensus.position_mode", "consensus.ccp_loss"),
        "consensus.position_iters_mean": _ratio(c("position_iters", 0.0),
                                                c("position_solves", 0.0)),
        "consensus.position_loss_evals": calls.get("consensus.ccp_loss", 0),
        "consensus.position_unconverged_frac": _ratio(c("position_unconverged", 0.0),
                                                      c("position_solves", 0.0)),
        "metrics.pca_s": s("metrics.pca_baseline"),
        "io.read_s": s("io.read_cloud"),
        "io.write_s": s("io.write_cloud"),
        "io.read_bytes": c("read_bytes", 0.0),
        "io.write_bytes": c("write_bytes", 0.0),
    }
