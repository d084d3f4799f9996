#!/usr/bin/env python3
"""splatvid benchmark: shared-once vs per-frame cost, end to end and per layer.

    python3 perfbench/run.py --workload interp-x32 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One process runs one workload:
it builds the inputs from the seed, writes them as files (PPM frames, FLO
flows, JSON bank and fuser) and then runs whole pairs for about --seconds,
each pair loading its inputs, building the shared context, deriving and
rendering every timestamp and saving the frames, as ``splatvid interpolate``
does.  Every output is checked and failures are counted, not raised.
Pair, shared and frame times are scaled to a reference speed (see
REFERENCE_S).

--trace 0 prints the end-to-end metrics.  --trace 1 wraps each layer's
public functions in spans (see tracing.py), traces every other pair and
prints per-layer self time, calls, errors and counters, plus the overhead
of tracing against the untraced pairs of the same run.  Earlier lines of
standard output describe the machine and the samples; the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One BLAS/OpenMP thread, fixed before numpy is imported: the machine has
# few cores and is shared, and one thread keeps runs comparable.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated and its median reported; one import alone varied by
# +-20 % between runs.
SETUP_REPS = 9
# At least three pairs, so a traced run has traced and untraced pairs.
MIN_PAIRS = 3
# The info line's p90 rests on at least this many samples (ten beyond it).
MIN_P90_SAMPLES = 100

# Times are reported at a fixed machine speed.  The machine switches
# between speed states about 1.5x apart, for seconds to a minute at a time,
# so raw times of one workload moved by 40 % between runs.  A fixed
# reference task is timed before the first pair and after every pair, and
# each pair's times are scaled by REFERENCE_S over the mean of the two
# reference times around it: they read as seconds on a machine that runs
# the reference in REFERENCE_S.  Raw times are on the info line.
REFERENCE_S = 0.05
# Rounds of the reference task; about REFERENCE_S in the machine's fast state.
REFERENCE_ROUNDS = 1600

END_TO_END_UNITS = {
    "pair_s": "s",
    "shared_s": "s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "fit_psnr_db": "dB",
    "interp_psnr_db": "dB",
    "interp_lr_psnr_db": "dB",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "1",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="16x12 inputs and a short fit (self-test)"
    )
    return ap.parse_args(argv)


def import_program():
    """Import numpy and splatvid from this checkout's src/, or exit non-zero."""
    if not (SRC / "splatvid" / "__init__.py").is_file():
        sys.exit(f"perfbench: no splatvid sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("splatvid")
    if Path(pkg.__file__).resolve().parent != SRC / "splatvid":
        sys.exit(f"perfbench: imported splatvid from {pkg.__file__}, not {SRC}")
    for mod in ("cpb", "fileio", "fit", "metrics", "motion", "nnops", "pipeline", "raster"):
        importlib.import_module(f"splatvid.{mod}")


def import_seconds() -> float:
    """Time import_program() takes in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
        "t = time.perf_counter(); run.import_program(); print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def machine_info(np) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
    }


@dataclasses.dataclass
class Paths:
    frame0: Path
    frame1: Path
    m01: Path
    m10: Path
    bank: Path
    fuser: Path
    out: Path


def write_inputs(fileio, inputs, work: Path) -> Paths:
    work.mkdir(parents=True, exist_ok=True)
    p = Paths(*(work / n for n in ("f0.ppm", "f1.ppm", "m01.flo", "m10.flo",
                                     "bank.json", "fuser.json", "out")))
    fileio.save_ppm(p.frame0, inputs.frame0)
    fileio.save_ppm(p.frame1, inputs.frame1)
    fileio.save_flo(p.m01, inputs.m01)
    fileio.save_flo(p.m10, inputs.m10)
    fileio.save_bank(p.bank, inputs.bank)
    fileio.save_fuser(p.fuser, inputs.fuser)
    p.out.mkdir(exist_ok=True)
    return p


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if self.first_error is None:
            self.first_error = what


@dataclasses.dataclass
class Pair:
    ctx: object | None
    frame0: object
    frame1: object
    shared_s: float
    frame_ms: list
    mid: tuple | None  # (field, rendered frame) at t = 0.5


def run_pair(sv, w, paths: Paths, tally: Tally, check_failures: dict) -> Pair:
    """Load the inputs, build the shared context, derive, render and save
    every timestamp, checking each output."""
    pipeline, fileio = sv.pipeline, sv.fileio
    n = len(w.timestamps)
    tally.attempted += 1 + n
    try:
        frame0 = fileio.load_ppm(paths.frame0)
        frame1 = fileio.load_ppm(paths.frame1)
        flows = (fileio.load_flo(paths.m01), fileio.load_flo(paths.m10))
        opts = dataclasses.replace(
            w.options,
            bank=fileio.load_bank(paths.bank),
            fuser=fileio.load_fuser(paths.fuser),
        )
        t0 = time.perf_counter()
        ctx = pipeline.build_shared_context(frame0, frame1, flows, opts)
        shared_s = time.perf_counter() - t0
    except Exception:
        tally.fail(traceback.format_exc(), 1 + n)
        return Pair(None, None, None, 0.0, [], None)

    frame_ms, mid = [], None
    for i, t in enumerate(w.timestamps):
        field, out, ms = timed_frame(sv, w, ctx, t, tally, check_failures)
        if out is None:
            continue
        frame_ms.append(ms)
        fileio.save_ppm(paths.out / f"t{i:02d}.ppm", out)
        if t == 0.5:
            mid = (field, out)
    if ctx.stage_counters != w.expected_counters():
        tally.fail(f"stage counters {ctx.stage_counters} != {w.expected_counters()}")
        check_failures["pipeline.build_shared_context"] += 1
    return Pair(ctx, frame0, frame1, shared_s, frame_ms, mid)


def timed_frame(sv, w, ctx, t, tally: Tally, check_failures: dict):
    """derive_field + render_at at t, then the output checks.

    Returns (field, frame, ms), or Nones after counting a failure.
    """
    a = time.perf_counter()
    try:
        field = sv.pipeline.derive_field(ctx, t)
        out = sv.pipeline.render_at(ctx, field, w.scale)
    except Exception:
        tally.fail(traceback.format_exc())
        return None, None, None
    ms = (time.perf_counter() - a) * 1000.0
    if out.pixels.shape != w.out_shape() or not sv.np.all(sv.np.isfinite(out.pixels)):
        tally.fail(
            f"frame at t={t}: shape {out.pixels.shape} (want {w.out_shape()}) "
            "or non-finite pixels"
        )
        check_failures["pipeline.render_at"] += 1
        return None, None, None
    return field, out, ms


def quality(sv, w, inputs, pair: Pair) -> dict:
    """PSNR_y against exact frames: the fitted endpoints vs their input
    frames, rendered at scale 1 as render_at renders; the t = 0.5 output vs
    ground truth at the output scale; and the t = 0.5 field rendered at
    scale 1 vs ground truth at scale 1."""
    opts = pair.ctx.options
    cfg = sv.raster.RenderConfig(
        scale=1.0,
        truncation_radius=opts.truncation_radius,
        normalization=opts.normalization,
        clamp_output=opts.clamp_output,
    )

    def lr_psnr(field, target):
        return sv.metrics.psnr_y(sv.raster.render_tiled(field, cfg), target)

    ep = [lr_psnr(pair.ctx.field0, pair.frame0), lr_psnr(pair.ctx.field1, pair.frame1)]
    mid_field, mid_frame = pair.mid
    return {
        "endpoint": ep,
        "fit": sum(ep) / 2.0,
        "interp": sv.metrics.psnr_y(mid_frame, inputs.truth(0.5, w.scale)),
        "interp_lr": lr_psnr(mid_field, inputs.truth(0.5, 1.0)),
    }


class Reference:
    """Numpy and pure-Python work that no change to splatvid touches, timed
    to follow the machine's speed."""

    def __init__(self, np):
        self.np = np
        self.a = np.random.default_rng(0).random((64, 64))
        self.seconds()

    def seconds(self) -> float:
        np, a, acc = self.np, self.a, 0.0
        t0 = time.perf_counter()
        for _ in range(REFERENCE_ROUNDS):
            acc += float((np.exp(a) @ a).sum())
            for k in range(200):
                acc += k * 0.5
        return time.perf_counter() - t0


def warm_up(sv, w, inputs) -> None:
    """One pass through every stage on a tiny pair of the same kind, so
    lazily initialised numpy state is ready before the first timed pair."""
    small = w.make(0, 12, 8)
    opts = dataclasses.replace(
        w.options,
        fit=dataclasses.replace(w.options.fit, iterations=1),
        refine_iterations=min(w.options.refine_iterations, 1),
        bank=inputs.bank,
        fuser=inputs.fuser,
    )
    ctx = sv.pipeline.build_shared_context(
        small.frame0, small.frame1, (small.m01, small.m10), opts
    )
    sv.pipeline.render_at(ctx, sv.pipeline.derive_field(ctx, 0.5), w.scale)


class Program:
    """The imported modules, passed around instead of module globals."""

    def __init__(self):
        import numpy

        self.np = numpy
        for mod in ("cpb", "fileio", "fit", "metrics", "motion", "pipeline", "raster"):
            setattr(self, mod, sys.modules[f"splatvid.{mod}"])


def layer_metrics(sv, tracer, traced_walls, untraced_walls, q, check_failures) -> dict:
    """Per-layer numbers from the traced pairs: median self ms per pair,
    calls per pair, errors over the run, and the boundary counters."""
    import tracing

    np = sv.np
    per_pair = tracer.self_times()
    pairs = sorted(tracer.counters)
    out = {}
    for name in tracing.SPAN_NAMES:
        rows = [per_pair[p].get(name, [0.0, 0, 0]) for p in pairs]
        calls = sorted({r[1] for r in rows})
        out[f"{name}.self_ms"] = (statistics.median(r[0] for r in rows) * 1000.0, "ms")
        # Calls repeat in every pair of a seed; a mismatch is reported as a mean.
        out[f"{name}.calls"] = (
            calls[0] if len(calls) == 1 else sum(r[1] for r in rows) / len(rows),
            "count",
        )
        out[f"{name}.errors"] = (sum(r[2] for r in rows) + check_failures[name], "count")
    counters = [tracer.counters[p] for p in pairs]
    out["raster.out_px"] = (statistics.median(c.out_px for c in counters), "px")
    out["raster.window_px"] = (statistics.median(c.window_px for c in counters), "px")
    out["cpb.snap_err"] = (float(np.mean([np.mean(c.snap_err) for c in counters])), "1")
    out["motion.window_map_mean"] = (
        float(np.mean([np.mean(c.window_map_mean) for c in counters])),
        "px",
    )
    out["fit.endpoint0_psnr_db"] = (q["endpoint"][0], "dB")
    out["fit.endpoint1_psnr_db"] = (q["endpoint"][1], "dB")
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    out["trace.overhead_pct"] = (overhead * 100.0, "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sv = Program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    machine = machine_info(sv.np)
    print(json.dumps({"machine": machine}), flush=True)

    work = WORK / f"{w.name}-s{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            import_s = import_seconds()
            t0 = time.perf_counter()
            inputs = w.make(args.seed, *w.size)
            paths = write_inputs(sv.fileio, inputs, work)
            warm_up(sv, w, inputs)
            setup_times.append(import_s + time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)
        result = measure(sv, w, inputs, paths, args, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1

    tally, walls, shared, frame_ms, q, info, layers = result
    correct = (
        tally.failed == 0
        and q["fit"] >= w.fit_psnr_floor_db
        and q["interp_lr"] >= w.interp_lr_psnr_floor_db
    )
    if tally.first_error:
        print(f"perfbench: first failure:\n{tally.first_error}", file=sys.stderr)
    info.update(workload=w.name, seed=args.seed, setup_samples_s=setup_times)
    print(json.dumps({"info": info}), flush=True)
    if args.trace:
        metrics = layers
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "pair_s": statistics.median(walls),
            "shared_s": statistics.median(shared),
            "frame_ms_p50": float(sv.np.percentile(frame_ms, 50)),
            "frame_ms_p90": float(sv.np.percentile(frame_ms, 90)),
            "setup_s": setup_s,
            "fit_psnr_db": q["fit"],
            "interp_psnr_db": q["interp"],
            "interp_lr_psnr_db": q["interp_lr"],
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - tally.failed / tally.attempted,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def measure(sv, w, inputs, paths, args, tracing):
    """Run whole pairs until the next one would end past --seconds (at
    least MIN_PAIRS).  With --trace 1 the even pairs are traced.

    Returns times scaled to the reference speed (see REFERENCE_S), kept
    only from pairs in which nothing failed, so that a pair that fails
    early cannot pass for a fast one.
    """
    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    reference = Reference(sv.np)
    if tracer:
        tracer.install()
    check_failures = {name: 0 for name in tracing.SPAN_NAMES}
    walls, shared, frame_ms = [], [], []
    raw_walls, traced_walls, untraced_walls, reference_s, rounds_s = [], [], [], [], []
    q, reference_mid = None, None
    ref_before = reference.seconds()
    start = time.perf_counter()
    i = 0
    while i < MIN_PAIRS or (
        time.perf_counter() - start + statistics.median(rounds_s) <= args.seconds
    ):
        traced = tracer is not None and i % 2 == 0
        failed_before = tally.failed
        t0 = time.perf_counter()
        with tracer.pair(i) if traced else contextlib.nullcontext():
            pair = run_pair(sv, w, paths, tally, check_failures)
        wall = time.perf_counter() - t0
        i += 1
        (traced_walls if traced else untraced_walls).append(wall)
        pair_frames = list(pair.frame_ms)
        if pair.ctx is not None:
            if pair.mid is not None:
                if q is None:
                    q, reference_mid = quality(sv, w, inputs, pair), pair.mid
                elif not sv.np.array_equal(pair.mid[1].pixels, reference_mid[1].pixels):
                    tally.fail("the t = 0.5 frame differs between pairs of one seed")
            for n in range(w.extra_frame_samples):
                tally.attempted += 1
                t = w.timestamps[n % len(w.timestamps)]
                _, _, ms = timed_frame(sv, w, pair.ctx, t, tally, check_failures)
                if ms is not None:
                    pair_frames.append(ms)
        ref_after = reference.seconds()
        rounds_s.append(time.perf_counter() - t0)
        reference_s.append(ref_after)
        speed = REFERENCE_S / ((ref_before + ref_after) / 2.0)
        ref_before = ref_after
        if pair.ctx is None or tally.failed != failed_before:
            continue
        raw_walls.append(wall)
        walls.append(wall * speed)
        shared.append(pair.shared_s * speed)
        frame_ms.extend(ms * speed for ms in pair_frames)
    if tracer:
        tracer.uninstall()
    if q is None or not walls:
        print(f"perfbench: no pair completed:\n{tally.first_error}", file=sys.stderr)
        return None

    info = {
        "pairs": i,
        "clean_pairs": len(walls),
        "frame_samples": len(frame_ms),
        "p90_samples_ok": len(frame_ms) >= MIN_P90_SAMPLES,
        # Unscaled, and so unbounded: these move with the machine's speed.
        "raw_pair_s_p50": statistics.median(raw_walls),
        "raw_pair_s_min": min(raw_walls),
        "reference_s_p50": statistics.median(reference_s),
        "reference_s_min": min(reference_s),
        "pair_s_samples": walls,
        "endpoint_psnr_db": q["endpoint"],
    }
    layers = None
    if tracer:
        layers = layer_metrics(sv, tracer, traced_walls, untraced_walls, q, check_failures)
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"spans-{w.name}-s{args.seed}.json"
        tracer.dump(spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        info["traced_pairs"] = [
            {"pair": p, "self_s_sum": sum(r[0] for r in rows.values()),
             "wall_s": traced_walls[k]}
            for k, (p, rows) in enumerate(sorted(tracer.self_times().items()))
        ]
    return tally, walls, shared, frame_ms, q, info, layers


if __name__ == "__main__":
    sys.exit(main())
