"""Seeded inputs and exact ground truth for the benchmark workloads.

Every workload builds, from its seed alone, two endpoint frames, the exact
bidirectional flows between them, a covariance bank, a bank fuser and a
function that gives the exact frame at any timestamp and output scale.  The
program under test only sees the inputs, as files; the ground truth stays
here and is used outside the timed region.

All three workloads run at density 1 (one kernel per LR pixel).  Density 1:4
cannot run through ``build_shared_context`` at this revision: ``fit_frame``
fits the half-size frame while ``_grid_flow`` pools the full-size flow, so a
96x64 pair raises ``ShapeError: feature map 16x24 vs flow 32x48``.  A workload
at 1:4 belongs with the fix for that defect.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from splatvid import cpb, synth
from splatvid.core import FlowField, FrameBuffer
from splatvid.cpb import CpbBank, FuserWeights
from splatvid.fit import FitConfig
from splatvid.pipeline import PipelineOptions
from splatvid.raster import output_shape

# Blob colours of synth.blob_frame; kept fixed so that the seed moves the
# geometry, not the contrast that PSNR_y is measured against.
BLOB_COLOR = (1.0, 0.85, 0.2)
BLOB_BACKGROUND = (0.1, 0.1, 0.15)

ZOOM = 1.4
# Seed of the zoom-learned bank and fuser.  With few fit iterations most
# kernels snap to the one bank entry nearest the initial covariance, so a
# bank drawn per input seed moved fit PSNR between 28 and 41 dB.
MODEL_SEED = 0
# Bank jitter as a share of the default grid's step; below 0.5, entries stay
# in their own grid cell and so stay distinct.
JITTER = 0.35
# Fuser perturbations on top of the baseline fuser's logits.  Neighbouring
# entries of a K=320 bank differ by a few logits at sharpness 200, so these
# move the softmax without swamping the baseline's nearest-entry choice.
NEIGHBOUR_TAP_STD = 0.5
T_TAP_STD = 4.0


@dataclass(frozen=True)
class Inputs:
    frame0: FrameBuffer
    frame1: FrameBuffer
    m01: FlowField
    m10: FlowField
    bank: CpbBank
    fuser: FuserWeights
    # (t, output scale) -> the exact frame at time t, at the output scale.
    truth: Callable[[float, float], FrameBuffer]


@dataclass(frozen=True)
class Workload:
    name: str
    size: tuple[int, int]
    timestamps: tuple[float, ...]
    scale: float
    # Bank and fuser are left unset: every pair loads them from files.
    options: PipelineOptions
    make: Callable[[int, int, int], Inputs]  # (seed, width, height)
    # Extra derive + render samples per pair, cycling through the
    # timestamps after the pair's timed region, so that the p90 on the info
    # line rests on at least ten samples beyond it when a pair renders few
    # timestamps.
    extra_frame_samples: int
    # Correctness floors: well below the measured quality, so they catch a
    # broken pipeline, not a small quality change.
    fit_psnr_floor_db: float
    interp_lr_psnr_floor_db: float

    def expected_counters(self) -> dict[str, int]:
        """The stage counters one pair must leave, as run_bench asserts them."""
        n = len(self.timestamps)
        return {
            "fit": 1,
            "flow-load": 1,
            "window-map": 1,
            "per-frame-derive": n,
            "rasterize": n,
        }

    def out_shape(self) -> tuple[int, int, int]:
        out_w, out_h = output_shape(self.size[0], self.size[1], self.scale)
        return out_h, out_w, 3


def _blob(w, h, scale, center, radius) -> FrameBuffer:
    """The blob of synth.blob_frame sampled at the pixel centres of scale s.

    LR index coordinate x maps to output index s * (x + 0.5) - 0.5.
    """
    out_w, out_h = output_shape(w, h, scale)
    c = (scale * (center[0] + 0.5) - 0.5, scale * (center[1] + 0.5) - 0.5)
    return synth.blob_frame(
        out_w, out_h, c, scale * radius, BLOB_COLOR, BLOB_BACKGROUND
    )


def _default_bank_and_fuser() -> tuple[CpbBank, FuserWeights]:
    bank = cpb.default_bank()
    return bank, cpb.baseline_fuser(bank)


def translating_blob(seed: int, w: int, h: int) -> Inputs:
    """A blob moving by (4, 0) LR px, its start jittered by the seed.

    A shift of exactly 4 px gives every cell the same window (size 4).
    """
    rng = np.random.default_rng(seed)
    shift = (4.0, 0.0)
    radius = max(2.0, min(w, h) / 12.0)
    c0 = (
        (w - shift[0]) / 2.0 + rng.uniform(-2.0, 2.0),
        (h - shift[1]) / 2.0 + rng.uniform(-2.0, 2.0),
    )

    def truth(t: float, scale: float) -> FrameBuffer:
        return _blob(w, h, scale, (c0[0] + t * shift[0], c0[1] + t * shift[1]), radius)

    bank, fuser = _default_bank_and_fuser()
    return Inputs(
        frame0=truth(0.0, 1.0),
        frame1=truth(1.0, 1.0),
        m01=synth.uniform_flow(w, h, shift[0], shift[1]),
        m10=synth.uniform_flow(w, h, -shift[0], -shift[1]),
        bank=bank,
        fuser=fuser,
        truth=truth,
    )


def rolled_ridge(seed: int, w: int, h: int) -> Inputs:
    """A ridge texture translated by 2 px along +x.

    Frame 1 is frame 0 rolled by 2 px, so frame 0 rolled by 1 px is the
    exact midpoint; only t = 0.5 has an integer roll, and truth() rejects
    other t.  The seed rolls one fixed texture vertically rather than
    drawing a new texture.  The roll's seam then runs along the motion, so
    fit cost and quality stay close across seeds, as the benchmark's bounds
    need; a seam across the motion moved the midpoint PSNR by 2 dB.
    """
    rng = np.random.default_rng(seed)
    texture = synth.ridge_texture(w, h, seed=0).pixels
    base = FrameBuffer(np.roll(texture, int(rng.integers(h)), axis=0))

    def truth(t: float, scale: float) -> FrameBuffer:
        if t not in (0.0, 0.5, 1.0) or scale != 1.0:
            raise ValueError(f"ridge ground truth exists at integer rolls only, not t={t}")
        return FrameBuffer(np.roll(base.pixels, int(2 * t), axis=1))

    bank, fuser = _default_bank_and_fuser()
    return Inputs(
        frame0=base,
        frame1=truth(1.0, 1.0),
        m01=synth.uniform_flow(w, h, 2.0, 0.0),
        m10=synth.uniform_flow(w, h, -2.0, 0.0),
        bank=bank,
        fuser=fuser,
        truth=truth,
    )


def learned_bank(rng: np.random.Generator) -> CpbBank:
    """The default bank's 8 x 8 x 5 grid with every entry jittered by up to
    JITTER of a grid step, independently per axis.

    No per-axis product structure is left for a Cartesian shortcut to use,
    while the bank still covers the default bank's range evenly.
    """
    grid = cpb.default_bank().params
    log_step = np.log(3.0 / 0.3) / 7.0  # default_bank's sigma spacing
    rho_step = 0.3  # default_bank's rho spacing
    u = rng.uniform(-JITTER, JITTER, grid.shape)
    sig = grid[:, 0:2] * np.exp(u[:, 0:2] * log_step)
    rho = grid[:, 2] + u[:, 2] * rho_step
    return CpbBank(np.column_stack([sig, rho]))


def learned_fuser(rng: np.random.Generator, bank: CpbBank) -> FuserWeights:
    """A 3x3 fuser whose logits depend on t and on neighbouring cells.

    The baseline fuser's 1x1 map sits at the centre tap; seeded neighbour
    taps and a seeded t-channel weight are added, so the logits are neither
    t-free nor a per-cell function of that cell alone.
    """
    base = cpb.baseline_fuser(bank)
    k, c = base.weights.shape[:2]
    w = np.zeros((k, c, 3, 3))
    w[:, :, 1, 1] = base.weights[:, :, 0, 0]
    neighbour = rng.normal(0.0, NEIGHBOUR_TAP_STD, (k, c - 1, 3, 3))
    neighbour[:, :, 1, 1] = 0.0
    w[:, : c - 1] += neighbour
    w[:, c - 1, 1, 1] = rng.normal(0.0, T_TAP_STD, k)
    return FuserWeights(w, base.bias)


def zooming_blob(seed: int, w: int, h: int) -> Inputs:
    """An off-centre blob under a 1.4x zoom about the image centre.

    Position and radius scale by 1 + 0.4 t, the motion that linearly
    scaled zoom flows describe.  The flow magnitude grows from the centre,
    so the window map uses every window size.
    """
    rng = np.random.default_rng(seed)
    cz = ((w - 1) / 2.0, (h - 1) / 2.0)  # synth.zoom_flow's centre
    sign = rng.choice([-1.0, 1.0], 2)
    rel = (sign[0] * rng.uniform(0.12, 0.16) * w, sign[1] * rng.uniform(0.1, 0.14) * h)
    radius = max(1.5, min(w, h) / 12.0)

    def truth(t: float, scale: float) -> FrameBuffer:
        z = 1.0 + (ZOOM - 1.0) * t
        center = (cz[0] + z * rel[0], cz[1] + z * rel[1])
        return _blob(w, h, scale, center, z * radius)

    # The bank and fuser stand for a trained model, which stays fixed while
    # the inputs vary: they come from MODEL_SEED, not from the input seed.
    model_rng = np.random.default_rng(MODEL_SEED)
    bank = learned_bank(model_rng)
    return Inputs(
        frame0=truth(0.0, 1.0),
        frame1=truth(1.0, 1.0),
        m01=synth.zoom_flow(w, h, ZOOM),
        m10=synth.zoom_flow(w, h, 1.0 / ZOOM),
        bank=bank,
        fuser=learned_fuser(model_rng, bank),
        truth=truth,
    )


def _opts(iterations: int, refine: int, truncation: float) -> PipelineOptions:
    return PipelineOptions(
        fit=FitConfig(iterations=iterations, truncation_radius=truncation),
        refine_iterations=refine,
    )


WORKLOADS = {
    # Per-frame heavy: the shared stage is as small as run_bench makes it
    # (2 fit iterations, no refine), then 31 timestamps at scale 4.  Every
    # workload's pair takes about a second, so that the reference task timed
    # between pairs (see run.py) follows the machine's speed closely.
    "interp-x32": Workload(
        name="interp-x32",
        size=(36, 24),
        timestamps=tuple(i / 32 for i in range(1, 32)),
        scale=4.0,
        options=_opts(2, 0, 3.0),
        make=translating_blob,
        extra_frame_samples=0,
        fit_psnr_floor_db=22.0,
        interp_lr_psnr_floor_db=22.0,
    ),
    # Shared heavy: real fitting and refinement, one timestamp at scale 1.
    "fit-ridge": Workload(
        name="fit-ridge",
        size=(32, 24),
        timestamps=(0.5,),
        scale=1.0,
        options=_opts(40, 10, 4.0),
        make=rolled_ridge,
        extra_frame_samples=9,
        fit_psnr_floor_db=24.0,
        interp_lr_psnr_floor_db=22.0,
    ),
    # The same layers used differently: arbitrary bank, t-dependent 3x3
    # fuser, every window size, a non-integer output scale.
    "zoom-learned": Workload(
        name="zoom-learned",
        size=(48, 32),
        timestamps=tuple(i / 8 for i in range(1, 8)),
        scale=2.5,
        options=_opts(10, 5, 3.0),
        make=zooming_blob,
        extra_frame_samples=0,
        fit_psnr_floor_db=22.0,
        interp_lr_psnr_floor_db=20.0,
    ),
}


def tiny(w: Workload) -> Workload:
    """The same workload on a small frame with a short fit, for self-tests."""
    fit = w.options.fit
    return dataclasses.replace(
        w,
        size=(16, 12),
        options=dataclasses.replace(
            w.options,
            fit=dataclasses.replace(fit, iterations=min(fit.iterations, 3)),
            refine_iterations=min(w.options.refine_iterations, 2),
        ),
        extra_frame_samples=min(w.extra_frame_samples, 2),
        fit_psnr_floor_db=0.0,
        interp_lr_psnr_floor_db=0.0,
    )
