#!/usr/bin/env python3
"""Temporal-stability experiment on a synthetic translating texture.

Fits a kernel field to every frame of an oriented-ridge clip that translates
by a fixed step per frame, then correlates frame g against frame 0 in two
domains: raw luma pixels and covariance parameters (sigma_x, sigma_y, rho).
Pixel correlation collapses after a couple of frames (the ridges oscillate
faster than the shift), while the covariance field tracks the slowly varying
local geometry and stays highly correlated.
"""

import argparse

from splatvid import fileio, synth
from splatvid.core import Density
from splatvid.fit import FitConfig, fit_frame
from splatvid.metrics import stability_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", default="48x32")
    ap.add_argument("--frames", type=int, default=8)
    ap.add_argument("--step", type=int, default=3)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--iterations", type=int, default=150)
    ap.add_argument("--output", default="stability.csv")
    args = ap.parse_args()

    w, h = (int(v) for v in args.size.split("x"))
    base = synth.ridge_texture(w, h, seed=args.seed)
    frames = synth.rolled_sequence(base, args.frames, step=args.step)
    cfg = FitConfig(iterations=args.iterations, truncation_radius=4.0)
    print(f"fitting {len(frames)} frames at {w}x{h} ...")
    fields = [fit_frame(f, Density.ONE_PER_PIXEL, cfg) for f in frames]

    r = stability_report(frames, fields)
    fileio.save_stability_csv(args.output, r)
    print(f"{'gap':>4} {'pixel r':>8} {'pixel cos':>10} {'cov r':>8} {'cov cos':>8}")
    for i, g in enumerate(r.gaps):
        print(
            f"{g:>4} {r.pixel_pearson[i]:>8.3f} {r.pixel_cosine[i]:>10.3f} "
            f"{r.cov_pearson[i]:>8.3f} {r.cov_cosine[i]:>8.3f}"
        )
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
