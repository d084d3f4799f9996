"""Command-line front end.

Subcommands: fit, render, interpolate, corr, bench, oracle-check.
Exit codes: 0 success, 2 validation error or a file that cannot be read
or written, 3 format error, 4 numerical failure (non-finite output, named
by stage).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from splatvid import cpb, fileio, fit as fit_mod, metrics, pipeline, synth
from splatvid.core import Density, FrameBuffer, ValidationError
from splatvid.fit import FitConfig, ParamVector, gradients
from splatvid.raster import Normalization, RenderConfig, render_dense, render_windows

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FORMAT = 3
EXIT_NUMERICAL = 4


def _load_frame(path) -> FrameBuffer:
    return fileio.load_ppm(path) if str(path).endswith(".ppm") else fileio.load_frm(path)


def _save_frame(path, frame: FrameBuffer) -> None:
    if str(path).endswith(".ppm"):
        fileio.save_ppm(path, frame)
    else:
        fileio.save_frm(path, frame)


_SHARED_FLAGS = {
    "scale": dict(type=float, default=1.0),
    "density": dict(choices=[str(d.value) for d in Density], default="1"),
    "normalization": dict(choices=[n.value for n in Normalization], default="paper-det"),
    "seed": dict(type=int, default=0),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the named shared flags; each subcommand takes only those it reads."""
    for name in names:
        p.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _cmd_fit(args) -> int:
    target = _load_frame(args.input)
    cfg = FitConfig(
        iterations=args.iterations,
        normalization=Normalization(args.normalization),
    )
    field = fit_mod.fit_frame(target, Density(int(args.density)), cfg)
    fileio.save_gsf(args.output, field)
    if cfg.iterations > 0:
        final = fit_mod.loss(field, target, cfg)[0]
        print(f"final loss {final:.6f} after {cfg.iterations} iterations")
    return EXIT_OK


def _cmd_render(args) -> int:
    field = fileio.load_gsf(args.input)
    cfg = RenderConfig(
        scale=args.scale,
        normalization=Normalization(args.normalization),
    )
    _save_frame(args.output, render_windows(field, cfg))
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    frame0 = _load_frame(args.frame0)
    frame1 = _load_frame(args.frame1)
    flow01 = fileio.load_flo(args.flow01)
    flow10 = fileio.load_flo(args.flow10)
    timestamps = [float(t) for t in args.timestamps.split(",")]
    names = [f"t{t:.4f}.{args.format}" for t in timestamps]
    if len(set(names)) < len(names):
        raise ValidationError(f"timestamps {args.timestamps} name one file twice")
    opts = pipeline.PipelineOptions(
        density=Density(int(args.density)),
        fit=FitConfig(
            iterations=args.iterations,
            normalization=Normalization(args.normalization),
        ),
        aow=args.aow,
        bank=fileio.load_bank(args.bank) if args.bank else None,
        fuser=fileio.load_fuser(args.weights) if args.weights else None,
    )
    outputs = pipeline.interpolate(
        frame0, frame1, (flow01, flow10), timestamps, args.scale, opts
    )
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, frame in zip(names, outputs):
        _save_frame(out_dir / name, frame)
    print(f"wrote {len(outputs)} frames to {out_dir}")
    return EXIT_OK


def _cmd_corr(args) -> int:
    if len(args.frames) < 2:
        raise ValidationError(f"corr needs at least two frames, got {len(args.frames)}")
    frames = [_load_frame(p) for p in args.frames]
    metrics.check_one_size(frames)
    cfg = FitConfig(iterations=args.iterations)
    density = Density(int(args.density))
    fields = fit_mod.fit_frames(frames, density, cfg)
    report = metrics.stability_report(frames, fields)
    fileio.save_stability_csv(args.output, report)
    for i, g in enumerate(report.gaps):
        print(
            f"gap {g}: pixel pearson {report.pixel_pearson[i]:+.4f} "
            f"cov pearson {report.cov_pearson[i]:+.4f}"
        )
    return EXIT_OK


def _cmd_bench(args) -> int:
    w, h = (int(v) for v in args.resolution.split("x"))
    scales = [int(v) for v in args.temporal_scales.split(",")]
    records = pipeline.run_bench((w, h), args.scale, scales, args.repeats)
    fileio.save_bench_csv(args.output, records)
    for r in records:
        print(
            f"x{r.temporal_scale}: shared {r.shared_ms:.1f} ms, "
            f"per-frame {r.per_frame_ms_mean:.1f} ms"
        )
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst_render = 0.0
    cfg = RenderConfig(scale=args.scale, truncation_radius=6.0, clamp_output=False)
    for _ in range(20):
        f = synth.random_field(rng, 8, 8, Density.ONE_PER_PIXEL)
        diff = np.abs(
            render_windows(f, cfg).pixels - render_dense(f, cfg).pixels
        ).max()
        worst_render = max(worst_render, float(diff))
    print(
        f"windowed-vs-dense max abs diff (radius {cfg.truncation_radius:g}): "
        f"{worst_render:.3e}"
    )

    worst_grad = 0.0
    eps = 1e-4
    cfg = FitConfig(iterations=0)
    for _ in range(5):
        f = synth.random_field(rng, 4, 4, Density.ONE_PER_PIXEL)
        target = FrameBuffer(rng.uniform(0.0, 1.0, (4, 4, 3)))
        g = gradients(f, target, cfg)
        theta = ParamVector.from_field(f).raw
        for _ in range(10):
            i = rng.integers(theta.shape[0])
            j = rng.integers(theta.shape[1])
            tp = theta.copy()
            tp[i, j] += eps
            tm = theta.copy()
            tm[i, j] -= eps
            lp = fit_mod.loss(ParamVector(tp).to_field(f), target, cfg)[1]
            lm = fit_mod.loss(ParamVector(tm).to_field(f), target, cfg)[1]
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(g[i, j]), 1e-8)
            worst_grad = max(worst_grad, abs(fd - g[i, j]) / denom)
    print(
        f"gradient-vs-FD max rel err (radius {cfg.truncation_radius:g}): "
        f"{worst_grad:.3e}"
    )

    jittered, default = synth.jittered_bank(rng), cpb.default_bank()
    fusers = [  # a t-dependent 3x3 fuser and the t-free baseline fuser
        (jittered, synth.t_dependent_fuser(rng, jittered)),
        (default, cpb.baseline_fuser(default)),
    ]
    sigmas = rng.uniform(0.4, 2.0, (2, 8, 12, 2))
    rhos = rng.uniform(-0.7, 0.7, (2, 8, 12, 1))
    cov0, cov1 = (cpb.CovGrid(c) for c in np.concatenate([sigmas, rhos], axis=3))
    worst_bank = 0.0
    for bank, fuser in fusers:
        cands = cpb.bank_candidates(cov0, cov1, fuser, bank)
        for t in (0.0, 0.3, 0.5, 1.0):
            full = cpb.resample(cpb.fuse(cov0, cov1, t, fuser), bank).params
            diff = np.abs(cpb.resample_candidates(cands, t).params - full).max()
            worst_bank = max(worst_bank, float(diff))
    print(f"bank-candidates-vs-full max abs diff: {worst_bank:.3e}")

    # Queries at and next to snap ties (synth.snap_ties), each snapped and
    # compared with the argmin over its whole (K, 3) difference.
    snap_mismatches = snap_queries = 0
    for bank in (jittered, default):
        q = synth.snap_ties(bank)
        d = cpb._embed(q)[:, None, :] - bank.embedding()
        want = np.argmin(np.sum(d * d, axis=-1), axis=-1)
        snap_mismatches += int(np.count_nonzero(cpb.nearest_entry_indices(q, bank) != want))
        snap_queries += len(q)
    print(f"snap-vs-full-difference mismatches: {snap_mismatches} of {snap_queries}")

    # A tiny 1:4 field near its cell centres, whose target A c has colours
    # c in [-0.5, 1.5], so the box binds on about half of them; 1000 solve
    # iterations and 3000 reference steps converge there well inside 1e-5.
    f = synth.random_field(
        rng, 8, 6, Density.ONE_PER_FOUR_PIXELS,
        sigma_range=(0.8, 1.2), rho_range=(-0.3, 0.3), offset_range=(0.3, 0.7),
    )
    y = fit_mod._color_matrix(f, cfg) @ rng.uniform(-0.5, 1.5, (f.n_gaussians, 3))
    target = FrameBuffer(y.reshape(6, 8, 3))
    (solved,) = fit_mod.solve_colors([f], [target], cfg, 1000)
    ref = fit_mod._projected_gradient_colors(f, target, cfg, 3000)
    worst_solve = float(np.abs(solved.colors - ref).max())
    print(f"color-solve-vs-projected-gradient max abs diff: {worst_solve:.3e}")

    ok = (
        worst_render <= 1e-5
        and worst_grad <= 1e-3
        and worst_bank <= 1e-12
        and snap_mismatches == 0
        and worst_solve <= 1e-5
    )
    print("oracle check:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splatvid",
        description="Gaussian-kernel video representation: fit, render, interpolate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a kernel field to a frame")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--iterations", type=int, default=300)
    _add_flags(p, "density", "normalization")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("render", help="rasterize a stored field")
    p.add_argument("input")
    p.add_argument("output")
    _add_flags(p, "scale", "normalization")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("interpolate", help="render intermediate frames")
    p.add_argument("frame0")
    p.add_argument("frame1")
    p.add_argument("flow01")
    p.add_argument("flow10")
    p.add_argument("output_dir")
    p.add_argument("--timestamps", required=True, help="comma-separated, in [0,1]")
    aow = p.add_mutually_exclusive_group()
    aow.add_argument("--aow", dest="aow", action="store_true", default=True)
    aow.add_argument("--no-aow", dest="aow", action="store_false")
    p.add_argument("--weights", default=None)
    p.add_argument("--bank", default=None)
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--format", choices=["ppm", "frm"], default="ppm")
    _add_flags(p, "scale", "density", "normalization")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("corr", help="temporal stability report over a clip")
    p.add_argument("frames", nargs="+")
    p.add_argument("--output", required=True)
    p.add_argument("--iterations", type=int, default=200)
    _add_flags(p, "density")
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("bench", help="latency benchmark")
    p.add_argument("--resolution", default="180x120")
    p.add_argument("--temporal-scales", default="2,4,8,16,32")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--output", required=True)
    _add_flags(p, "scale")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "oracle-check",
        help="windowed-vs-dense, gradient, bank-candidate, snap and colour-solve checks",
    )
    _add_flags(p, "scale", "seed")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except fileio.FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
