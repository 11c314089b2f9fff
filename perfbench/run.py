"""normfit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload plane-denoise --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload plane-denoise --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --all --seed 0 --seconds 30

Run it from anywhere; it imports normfit from ``src/`` next to this directory
and nothing else, and exits non-zero without a result when that source is
missing.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from wrapped calls (see tracer.py).  Rates and
set-up time are scaled to the box's reference speed (see calibrate.py).  A fuller
record, with the machine and code it came from, goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.  See README.md.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# the workloads BENCHMARK.json lists; wedge-clean-k32 runs only by hand (see README.md)
BENCHMARKED = ("wedge-noisy-k128", "plane-denoise", "sphere-pca-io")
WORKLOAD_NAMES = BENCHMARKED + ("wedge-clean-k32",)
SETUP_REPS = 5        # set-up runs per process; setup_s takes their median
MIN_ROUNDS = 2        # passes over every timing cloud per run at least
WARM_POINTS = 150     # size of the warm-up cloud

# name -> (unit, better).  END_TO_END and PER_LAYER are what the result line
# carries (and what BENCHMARK.json lists); REPORTED_ONLY is printed and
# recorded but not bounded: the ratios are undefined on some workloads, and
# the single check pass is too noisy to bound.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pts_per_s": ("pts/s", "higher"),
    "pts_per_s_t2": ("pts/s", "higher"),
    "rms_deg": ("deg", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
REPORTED_ONLY = {
    "raw_pts_per_s": ("pts/s", "higher"),
    "check_pts_per_s": ("pts/s", "higher"),
    "chamfer_ratio": ("ratio", "lower"),
    "p2s_ratio": ("ratio", "lower"),
    "failed_frac": ("frac", "lower"),
}
PER_LAYER = {
    "pipeline.self_s": ("s", "lower"),
    "pipeline.point_rng_s": ("s", "lower"),
    "geometry.knn_s": ("s", "lower"),
    "geometry.knn_calls": ("count", "lower"),
    "geometry.knn_batch_s": ("s", "lower"),
    "geometry.knn_batch_fallbacks": ("count", "lower"),
    "geometry.index_build_s": ("s", "lower"),
    "noise.profile_s": ("s", "lower"),
    "noise.cloud_f": ("frac", "lower"),
    "noise.k_hat": ("count", "lower"),
    "noise.rejection_on": ("bool", "lower"),
    "candidates.sample_s": ("s", "lower"),
    "candidates.fit_s": ("s", "lower"),
    "candidates.fit_rows": ("count", "lower"),
    "candidates.draw_efficiency": ("frac", "higher"),
    "candidates.score_s": ("s", "lower"),
    "candidates.score_kernel_evals": ("count", "lower"),
    "candidates.reject_s": ("s", "lower"),
    "candidates.survivor_ratio": ("frac", "higher"),
    "candidates.pos_sample_s": ("s", "lower"),
    "candidates.pos_score_s": ("s", "lower"),
    "candidates.pos_reject_s": ("s", "lower"),
    "consensus.normal_mode_s": ("s", "lower"),
    "consensus.normal_iters_mean": ("count", "lower"),
    "consensus.normal_loss_evals": ("count", "lower"),
    "consensus.normal_unconverged_frac": ("frac", "lower"),
    "consensus.position_mode_s": ("s", "lower"),
    "consensus.position_iters_mean": ("count", "lower"),
    "consensus.position_loss_evals": ("count", "lower"),
    "consensus.position_unconverged_frac": ("frac", "lower"),
    "metrics.pca_s": ("s", "lower"),
    "io.read_s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.read_bytes": ("B", "lower"),
    "io.write_bytes": ("B", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
}
UNATTRIBUTED_MAX = 0.02   # share of a traced pass that no span may leave uncovered


def import_normfit():
    """Import normfit from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "normfit", "__init__.py")):
        sys.exit(f"perfbench: no normfit source at {os.path.relpath(SRC)}/normfit")
    sys.path.insert(0, SRC)
    import normfit
    if not os.path.abspath(normfit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: normfit imported from {normfit.__file__}, not from src/")
    import tracer
    import workloads
    return workloads, tracer



def environment(seed: int) -> dict:
    """The machine and code a result came from."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "normfit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout's git directory, or None when it has none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class Run:
    """State of one benchmark process: inputs, pass timings, failures, checks."""

    def __init__(self, wl, workloads, workdir):
        self.wl = wl
        self.w = workloads
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}
        self.errors: list = []

    def check(self, name, ok):
        self.checks[name] = bool(self.checks.get(name, True) and ok)

    def out_path(self, tag):
        return os.path.join(self.workdir, f"out-{tag}.xyz")

    def _run(self, cloud, n_threads, tag):
        """One read -> call -> write pass: (seconds, output or the exception raised)."""
        start = time.perf_counter()
        try:
            out = self.w.run_path(self.wl, cloud.path, self.out_path(tag), n_threads,
                                  cloud.est_seed)
        except Exception as exc:   # a failed call counts all its points, the run goes on
            return time.perf_counter() - start, exc
        return time.perf_counter() - start, out

    def _account(self, cloud, tag, result):
        """Count the pass's points as attempted and failed; the output or None."""
        n = cloud.spec.n_points
        self.attempted += n
        if isinstance(result, Exception):
            self.failed += n
            self.errors.append(f"{tag}: {type(result).__name__}: {result}")
            return None
        self.failed += self.w.failed_points(self.wl, result)
        return result

    def timed(self, cloud, n_threads, tag):
        """One pass; returns (seconds, output or None)."""
        seconds, result = self._run(cloud, n_threads, tag)
        return seconds, self._account(cloud, tag, result)

    def timed_concurrent(self, cloud, tags):
        """The same path run by len(tags) threads at once; (wall seconds, outputs)."""
        results = {}

        def work(tag):
            results[tag] = self._run(cloud, 1, tag)

        threads = [threading.Thread(target=work, args=(tag,)) for tag in tags]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seconds = time.perf_counter() - start
        return seconds, [self._account(cloud, tag, results[tag][1]) for tag in tags]


def setup(wl, w, seed, workdir):
    """Generate and write the inputs, then one small warm-up call.

    Returns (check clouds, timing clouds)."""
    checks, clouds = w.make_inputs(wl, seed, workdir)
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir, exist_ok=True)
    warm = w.make_cloud(wl, seed, 0, WARM_POINTS, warm_dir)
    w.run_path(wl, warm.path, os.path.join(warm_dir, "out.xyz"), 1, warm.est_seed)
    return checks, clouds


def pairs(clouds, seconds):
    """Yield the cloud of each pair of passes, cycling over the clouds:
    MIN_ROUNDS rounds at least, then more while the next pair is expected to
    end within `seconds`."""
    deadline = time.perf_counter() + seconds
    durations = []
    j = 0
    while (j < MIN_ROUNDS * len(clouds)
           or time.perf_counter() + statistics.mean(durations) <= deadline):
        t0 = time.perf_counter()
        yield clouds[j % len(clouds)]
        durations.append(time.perf_counter() - t0)
        j += 1


def scaled_rate(passes, points, n_threads):
    """Points per second at the box's reference speed, median over passes.

    `passes` holds (pass seconds, mean seconds of the `n_threads` reference
    kernel before and after the pass); each pass handles `points` points.
    """
    if not passes:
        return 0.0
    ref = calibrate.REFERENCE_S[n_threads]
    return statistics.median(points * kernel_s / (seconds * ref)
                             for seconds, kernel_s in passes)


class Bracketed:
    """Times the reference kernel on `n_threads` threads after every pass, so
    that each pass lies between two kernel calls."""

    def __init__(self, n_threads):
        self.n_threads = n_threads
        calibrate.kernel(n_threads)    # warm-up
        self.last = calibrate.kernel(n_threads)

    def after(self, seconds):
        """(seconds, mean kernel seconds around the pass that just ended)."""
        before, self.last = self.last, calibrate.kernel(self.n_threads)
        return seconds, (before + self.last) / 2


def measure_end_to_end(run, checks, clouds, seconds):
    """A pass over each check cloud, then pairs of 1- and 2-thread passes over
    the timing clouds until time is up.

    Every pass lies between two calls of the reference kernel (calibrate.py).
    Returns (passes by thread count, check outputs, check passes, peak memory
    in MB); a pass is (seconds, kernel seconds around it).  The peak is read
    after the check passes and before any 2-thread pass: on sphere-pca-io that
    pass runs two pipelines at once, and how their allocations overlap varies
    from run to run.
    """
    wl = run.wl
    kernel = {1: Bracketed(1), 2: Bracketed(2)}
    check_outs, check_passes = [], []
    for j, check in enumerate(checks):
        check_s, out = run.timed(check, 1, f"check{j}")
        check_outs.append(out)
        check_passes.append(kernel[1].after(check_s))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = {1: [], 2: []}
    for cloud in pairs(clouds, seconds):
        s1, out1 = run.timed(cloud, 1, "t1")
        pass1 = kernel[1].after(s1)
        if out1 is not None:
            passes[1].append(pass1)
        if wl.call == "pca":
            # pca_baseline takes no thread count: two threads each run the path
            tags2 = ("t2a", "t2b")
            s2, outs2 = run.timed_concurrent(cloud, tags2)
            ok = all(o is not None for o in outs2)
        else:
            tags2 = ("t2",)
            s2, out2 = run.timed(cloud, 2, "t2")
            ok = out2 is not None
        pass2 = kernel[2].after(s2)
        if ok:
            passes[2].append(pass2)
        if out1 is not None and ok:
            ref = file_bytes(run.out_path("t1"))
            for tag in tags2:
                run.check("2-thread output is byte-identical to 1-thread output",
                          file_bytes(run.out_path(tag)) == ref)
    return passes, check_outs, check_passes, peak_mb


def measure_traced(run, clouds, seconds, tracer):
    """Pairs of traced and untraced 1-thread passes over the timing clouds
    until time is up."""
    probes = tracer.normfit_probes()
    traced_s, plain_s, per_pass = [], [], []
    spans_kept = None
    for cloud in pairs(clouds, seconds):
        with tracer.Tracer(probes) as tr:
            s_tr, out_tr = run.timed(cloud, 1, "traced")
        run.check("no tracer wrapper survives the traced pass", not tracer.installed(probes))
        s_plain, out_plain = run.timed(cloud, 1, "plain")
        if out_tr is None or out_plain is None:
            continue
        run.check("traced output is byte-identical to untraced output",
                  file_bytes(run.out_path("traced")) == file_bytes(run.out_path("plain")))
        traced_s.append(s_tr)
        plain_s.append(s_plain)
        layer = tracer.layer_metrics(tr.spans, tr.counts)
        _, _, root = tracer.self_times(tr.spans)
        layer["trace.unattributed_frac"] = 1.0 - root / s_tr
        run.check(f"layer self times add up to the traced total (within {UNATTRIBUTED_MAX:.0%})",
                  -1e-9 <= layer["trace.unattributed_frac"] <= UNATTRIBUTED_MAX)
        per_pass.append(layer)
        if spans_kept is None:
            spans_kept = tr.spans
    if not per_pass:
        return {name: 0.0 for name in PER_LAYER}, None
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced_s, plain_s)) - 1.0
    return metrics, spans_kept


def evaluate_outputs(run, checks, outs):
    """Mean accuracy over the check clouds; every check must hold on each."""
    values: dict = {}
    for check, out in zip(checks, outs):
        if out is None:
            run.check("every check cloud produced an output", False)
            continue
        vals, ok = run.w.evaluate(run.wl, check, out)
        for k, v in vals.items():
            values.setdefault(k, []).append(v)
        for k, passed in ok.items():
            run.check(k, passed)
    return {k: statistics.fmean(v) for k, v in values.items()}


def with_units(metrics, table):
    """The result line's metrics; one that could not be measured reads 0."""
    return {k: {"value": float(metrics.get(k, 0.0)), "unit": table[k][0]} for k in table}


def print_table(title, metrics, table):
    print(title)
    for name, (unit, better) in table.items():
        if name in metrics:
            print(f"  {name:38s} {metrics[name]:>14.6g} {unit:6s} ({better} is better)")


def run_workload(args) -> int:
    workloads, tracer = import_normfit()
    import_s = time.perf_counter() - _T_START
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        calibrate.kernel()    # warm-up
        setup_times, kernel_s = [], [calibrate.kernel()]
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            checks, clouds = setup(wl, workloads, args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            kernel_s.append(calibrate.kernel())
        run = Run(wl, workloads, workdir)
        record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
                  "environment": env,
                  "setup": {"import_s": import_s, "reps_s": setup_times, "kernel_s": kernel_s}}
        if args.trace:
            metrics, spans = measure_traced(run, clouds, args.seconds, tracer)
            table = PER_LAYER
            if spans is not None:
                spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.jsonl")
                tracer.write_spans(spans, spans_path)
                record["spans_file"] = os.path.relpath(spans_path, ROOT)
                record["layer_self_s"] = tracer.layer_self_times(spans)
            print_table(f"{wl.name} seed {args.seed}: per layer (traced run)", metrics, table)
        else:
            passes, check_outs, check_passes, peak_mb = measure_end_to_end(
                run, checks, clouds, args.seconds)
            metrics = evaluate_outputs(run, checks, check_outs)
            record["accuracy"] = dict(metrics)
            record["passes"] = {"t1": passes[1], "t2": passes[2], "check": check_passes,
                                "reference_s": calibrate.REFERENCE_S}
            # scaled to the box's reference speed like the rates (calibrate.py)
            metrics["setup_s"] = ((import_s + statistics.median(setup_times))
                                  * calibrate.REFERENCE_S[1] / statistics.median(kernel_s))
            metrics["pts_per_s"] = scaled_rate(passes[1], wl.n_points, 1)
            metrics["pts_per_s_t2"] = scaled_rate(passes[2], wl.n_points
                                                  * (2 if wl.call == "pca" else 1), 2)
            metrics["raw_pts_per_s"] = statistics.median(wl.n_points / s for s, _ in passes[1])
            metrics["check_pts_per_s"] = scaled_rate(check_passes, wl.check_points, 1)
            metrics["peak_rss_mb"] = peak_mb
            metrics["failed_frac"] = run.failed / run.attempted
            table = END_TO_END
            print_table(f"{wl.name} seed {args.seed}: end-to-end", metrics,
                        {**END_TO_END, **REPORTED_ONLY})
        correct = run.failed == 0 and all(run.checks.values()) and bool(run.checks)
        for name, ok in run.checks.items():
            print(f"  check: {'pass' if ok else 'FAIL'}  {name}")
        for err in run.errors:
            print(f"  error: {err}")
        result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
                  "metrics": with_units(metrics, table)}
        record.update(result, checks=run.checks, errors=run.errors,
                      all_metrics={k: float(v) for k, v in metrics.items()})
        with open(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump(record, fh, indent=1)
        print("environment: " + json.dumps(env))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process (so peak memory is that workload's)."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
