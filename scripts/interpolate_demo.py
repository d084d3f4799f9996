#!/usr/bin/env python3
"""End-to-end demo: upscale and temporally interpolate a synthetic clip.

Generates a pair of frames with a blob translating by a known shift and the
exact bidirectional flows, then renders intermediate frames at an arbitrary
spatial scale.  Toggle --no-aow to watch large motion break when position
offsets are confined to a single cell.
"""

import argparse
from pathlib import Path

from splatvid import fileio, synth
from splatvid.fit import FitConfig
from splatvid.pipeline import PipelineOptions, interpolate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", default="48x32")
    ap.add_argument("--shift", type=float, default=8.0)
    ap.add_argument("--scale", type=float, default=2.0)
    ap.add_argument("--frames", type=int, default=5)
    ap.add_argument("--iterations", type=int, default=150)
    ap.add_argument("--no-aow", dest="aow", action="store_false", default=True)
    ap.add_argument("--output-dir", default="demo_out")
    args = ap.parse_args()

    w, h = (int(v) for v in args.size.split("x"))
    frame0, frame1, m01, m10 = synth.translating_blob_pair(
        w, h, (args.shift, 0.0), radius=2.5
    )
    timestamps = [i / (args.frames + 1) for i in range(1, args.frames + 1)]
    opts = PipelineOptions(
        fit=FitConfig(iterations=args.iterations),
        refine_iterations=50,
        aow=args.aow,
    )
    print(f"interpolating {len(timestamps)} frames at scale {args.scale} ...")
    outputs = interpolate(frame0, frame1, (m01, m10), timestamps, args.scale, opts)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_ppm(out_dir / "t0.0000.ppm", frame0)
    for t, frame in zip(timestamps, outputs):
        cx, cy = synth.centroid(frame)
        fileio.save_ppm(out_dir / f"t{t:.4f}.ppm", frame)
        print(f"  t={t:.3f}: object center ({cx:.1f}, {cy:.1f})")
    fileio.save_ppm(out_dir / "t1.0000.ppm", frame1)
    print(f"wrote {len(timestamps) + 2} frames to {out_dir}")


if __name__ == "__main__":
    main()
