"""Command-line surface: synth, estimate, denoise, eval, bench.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable files,
mismatched clouds, bad config values).
"""

from __future__ import annotations

import argparse
import sys

from . import config as cfgmod
from .errors import NormfitError
from .io import read_cloud, write_cloud
from .metrics import CSV_HEADER, EvalReport, chamfer, evaluate_normals, p2s as p2s_metric
from .pipeline import denoise_all, estimate_all
from .synth import SHAPE_KINDS, NoiseSpec, ShapeSpec, add_noise, gen_shape

USAGE_ERROR = 1
DATA_ERROR = 2
_THREADS_HELP = "parallel workers (the caller plus forked processes), at most the usable CPUs"


class _UsageError(Exception):
    """A command line that names no input or output anywhere."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_run_flags(p):
    # every flag whose dest is a config key, --in and --out included, overrides that key
    p.add_argument("--in", dest="input_path", help="input cloud (default: config input_path)")
    p.add_argument("--out", dest="output_path", help="output cloud (default: config output_path)")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--candidates", type=int, dest="n_candidates")
    p.add_argument("--k-s", type=int, dest="k_s")
    p.add_argument("--denoise-k", type=int, dest="denoise_k")
    p.add_argument("--tau", type=float, dest="tau_normal")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)


def _load_config(args) -> cfgmod.RunConfig:
    """The run config, which must name an input and an output path."""
    if args.config:
        with open(args.config) as fh:
            cfg = cfgmod.parse(fh.read())
    else:
        cfg = cfgmod.RunConfig()
    flags = {k: v for k, v in vars(args).items() if k in cfgmod.SCHEMA and v is not None}
    cfg = cfgmod.from_values(flags, base=cfg)
    missing = [flag for flag, path in (("--in", cfg.input_path), ("--out", cfg.output_path))
               if not path]
    if missing:
        raise _UsageError(f"{args.command}: no {' or '.join(missing)} path in the flags "
                          f"or the config file")
    return cfg


def _cmd_synth(args) -> int:
    shape = ShapeSpec(kind=args.shape, n_points=args.n, extent=args.extent,
                      seed=args.seed if args.seed is not None else 0,
                      dihedral_deg=args.dihedral)
    # a copy at 0%; a negative percentage raises ValueError, exit 2
    cloud = add_noise(gen_shape(shape), NoiseSpec(std_pct_bbox_diag=args.noise, seed=shape.seed))
    write_cloud(cloud, args.out)
    print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    cloud = read_cloud(cfg.input_path)
    est, report = estimate_all(cloud, cfg.params, n_threads=cfg.threads)
    write_cloud(est, cfg.output_path)
    print(f"estimated normals for {len(est)} points -> {cfg.output_path}")
    print(f"k_hat = {report.k_hat}  "
          f"mean survivors = {report.survivors.mean():.1f}  "
          f"solver convergence = {report.converged.mean():.1%}  "
          f"PCA fallbacks = {report.fallback.sum()}")
    return 0


def _cmd_denoise(args) -> int:
    cfg = _load_config(args)
    cloud = read_cloud(cfg.input_path)
    out = denoise_all(cloud, cfg.params, n_threads=cfg.threads)
    write_cloud(out, cfg.output_path)
    print(f"denoised {len(out)} points -> {cfg.output_path}")
    return 0


def _cmd_eval(args) -> int:
    est = read_cloud(args.est)
    gt = read_cloud(args.gt)
    if len(est) != len(gt):
        print(f"point count mismatch: est has {len(est)}, gt has {len(gt)}", file=sys.stderr)
        return DATA_ERROR
    cd = chamfer(est, gt)
    p2s_val = None
    if args.surface:
        spec = ShapeSpec(kind=args.surface, n_points=10, extent=args.extent,
                         dihedral_deg=args.dihedral)
        p2s_val = p2s_metric(est, spec)
    if est.normals is None or gt.normals is None:
        print("note: one of the clouds has no normals; reporting position metrics only")
        report = EvalReport(cd=cd, p2s=p2s_val)
    else:
        report = evaluate_normals(est, gt, cd=cd, p2s_val=p2s_val)
    print("# cd: symmetric mean squared NN distance; p2s: mean |distance to surface|")
    print(report.as_text())
    if args.csv:
        with open(args.csv, "a") as fh:
            if fh.tell() == 0:      # a new or empty file gets the header first
                fh.write(CSV_HEADER + "\n")
            fh.write(report.as_csv_row() + "\n")
    return 0


def _cmd_bench(args) -> int:
    from .bench import run_suite

    results = run_suite(points_per_cloud=args.points,
                        candidate_counts=tuple(args.counts),
                        seeds=tuple(range(args.seeds)),
                        n_threads=1 if args.threads is None else args.threads,
                        verbose=True)
    print()
    print("candidates  mean_rms_deg")
    for count in sorted(results):
        print(f"{count:>10d}  {results[count]:.4f}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n_candidates,mean_rms_deg\n")
            for count in sorted(results):
                fh.write(f"{count},{results[count]:.6g}\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="normfit",
                     description="point-cloud normal estimation and denoising "
                                 "by random plane sampling and mode seeking")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark cloud")
    p.add_argument("--shape", choices=SHAPE_KINDS, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--extent", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="Gaussian std as percent of the bbox diagonal")
    p.add_argument("--dihedral", type=float, default=90.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("estimate", help="estimate normals for a cloud")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("denoise", help="denoise a cloud")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("eval", help="compare an estimated cloud to ground truth")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--csv", help="append one CSV row to this file")
    p.add_argument("--surface", choices=SHAPE_KINDS,
                   help="analytic surface for the p2s metric")
    p.add_argument("--extent", type=float, default=1.0)
    p.add_argument("--dihedral", type=float, default=90.0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="candidate-count trend over the synthetic suite")
    p.add_argument("--points", type=int, default=600)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--counts", type=int, nargs="+", default=[20, 100, 400])
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_bench)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"normfit: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, NormfitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
