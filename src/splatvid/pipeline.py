"""End-to-end orchestration with a shared-once / per-frame-cheap structure.

A SharedContext is built exactly once per input pair: ``build_shared_context``
computes every part, then makes the frozen context in one constructor call.
It holds three fields: the endpoint fits (snapped to the bank, with their
colours then solved for the snapped windows by ``fit.solve_colors``) and
field 1 pulled back onto field 0's anchors (one warp of its eight stacked
channels).  Then come the per-pair tables: both flows pooled once to the
kernel grid (block means, in LR pixels), the window map, and the bank side
of the covariance derivation.  Every fuser takes one path,
``cpb.bank_candidates``: the fused logits are linear in t, a + t * b per
cell, and each cell keeps the entries that can come within ``cpb.TAU`` = 40
of its maximum logit (dropped softmax mass at most K * exp(-TAU) per cell,
1.4e-15 at K = 320).  If b is zero everywhere (a t-free fuser, such as the
baseline), the context holds the covariances resampled once and no
candidates; otherwise it holds the candidates and each frame pays an (N, M)
softmax.  Nothing runs a conv or a K-wide softmax (``cpb.fuse`` and
``cpb.resample``, the reference).  Each requested timestamp then only pays
``scale_flows`` of the one stored grid flow it uses, the blend of the two
aligned fields, offset gating and that bank softmax, plus rasterization.
Stage counters record this split and are asserted by the latency tests;
they are the one part of a context that changes after it is built.

PipelineOptions checks itself when built, so a fuser whose K is not its
bank's fails before any fitting.

Per-frame motion realization: both endpoint fields sit on the frame-0
anchor grid (field 1 pulled back through the full 0->1 flow), and the
content displacement at time t is carried by the window-gated position
offsets.  ``derive_field`` computes the training-free fusion and decoder
of ``motion`` as one blend per array, weight 1 - t on field 0, clamped to
[0, 1].  The gated offset is the window-normalized total offset (fitted
sub-cell refinement plus flow displacement), clip(total / w, 0, 1) * w, so
a unit window (AOW off) reproduces the tight single-cell constraint and the
adaptive window is what makes large motion trackable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from splatvid import cpb as cpb_mod
from splatvid import fit as fit_mod
from splatvid import motion as motion_mod
from splatvid import synth
from splatvid.core import (
    Density,
    FeatureMap,
    FlowField,
    FrameBuffer,
    GaussianField,
    ShapeError,
    ValidationError,
    block_mean,
)
from splatvid.cpb import BankCandidates, CovGrid, CpbBank, FuserWeights
from splatvid.fit import FitConfig
from splatvid.motion import WindowMap, WindowSet
from splatvid.raster import (
    TRUNCATION_RADIUS,
    Normalization,
    RenderConfig,
    output_shape,
    render_windows,
)

# The base offset-window sizes {1, ..., 10} LR pixels.
WINDOWS = WindowSet()


@dataclass(frozen=True)
class PipelineOptions:
    """The settings of one interpolation run.

    ``render_at`` renders with the class constants ``truncation_radius``
    and ``clamp_output`` and with ``fit.normalization``, so the endpoint
    fits and the rendered frames always share one normalization.
    ``truncation_radius`` is ``raster.TRUNCATION_RADIUS``, the default
    radius of ``FitConfig`` too, so a default fit renders at its own
    radius; a ``fit`` set to another radius still renders at this one.
    """

    truncation_radius: ClassVar[float] = TRUNCATION_RADIUS
    clamp_output: ClassVar[bool] = True

    density: Density = Density.ONE_PER_PIXEL
    fit: FitConfig = field(default_factory=lambda: FitConfig(iterations=300))
    # Colour solve iterations after covariances are snapped to the bank.
    refine_iterations: int = 150
    aow: bool = True
    bank: CpbBank | None = None
    fuser: FuserWeights | None = None

    def __post_init__(self):
        if self.refine_iterations < 0:
            raise ValidationError("refine_iterations must be >= 0")
        if self.fuser is not None:
            k = (self.bank or cpb_mod.default_bank()).size
            if self.fuser.k != k:
                raise ShapeError(f"fuser K={self.fuser.k} != bank K={k}")

    @property
    def normalization(self) -> Normalization:
        return self.fit.normalization


@dataclass
class BenchRecord:
    temporal_scale: int
    spatial_scale: float
    shared_ms: float
    per_frame_ms_mean: float
    total_ms: float
    runs: int

    def __post_init__(self):
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        if self.total_ms < self.shared_ms:
            raise ValidationError("total_ms must be >= shared_ms")


@dataclass(frozen=True)
class SharedContext:
    """Everything one input pair computes once, for any number of timestamps.

    Three fields: the endpoint fits ``field0`` and ``field1``, and
    ``field1_aligned``, field 1 pulled back onto field 0's anchors through
    ``flow01`` (every array warped), which a frame blends with ``field0``.
    Then the per-pair tables: ``flow01`` and ``flow10`` are the input flows
    pooled to the kernel grid, in LR pixels (equal to them at density 1), so
    a frame pays only ``scale_flows`` of one of them.  The covariances come
    from ``cpb.bank_candidates`` of field0's and field1_aligned's.  When
    every candidate's slope b is zero, the logits do not depend on t:
    ``cov_t`` holds the candidates resampled once, ``derive_field`` reuses
    it at every t, and ``candidates`` is None.  Otherwise ``cov_t`` is None
    and ``candidates`` holds the per-cell bank candidates that
    ``derive_field`` resamples at each t.  Only ``stage_counters`` changes
    after construction, through ``bump``; each context counts into its own
    dict, so a copy made with ``dataclasses.replace`` counts its own frames.
    """

    field0: GaussianField
    field1: GaussianField
    field1_aligned: GaussianField
    flow01: FlowField
    flow10: FlowField
    window_map: WindowMap
    bank: CpbBank
    fuser: FuserWeights
    cov_t: CovGrid | None
    candidates: BankCandidates | None
    options: PipelineOptions
    stage_counters: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "stage_counters", dict(self.stage_counters))

    def bump(self, stage: str) -> None:
        self.stage_counters[stage] = self.stage_counters.get(stage, 0) + 1


def _cell_maps(f: GaussianField) -> np.ndarray:
    """(gh, gw, 8) channels: the covariance (sigma_x, sigma_y, rho), then
    the (offset_x, offset_y, r, g, b) parameter map."""
    gw, gh = f.grid_shape
    data = np.concatenate([f.sigmas, f.rhos[:, None], f.offsets, f.colors], axis=1)
    return data.reshape(gh, gw, 8)


def _snap_and_refine(
    fields: list[GaussianField],
    targets: list[FrameBuffer],
    bank: CpbBank,
    opts: PipelineOptions,
) -> list[GaussianField]:
    """Project each field's covariances onto the bank, then solve the
    colours for the snapped windows, every field in one fit.solve_colors
    of opts.refine_iterations iterations; offsets and covariances stay as
    the snap leaves them, and 0 iterations is the bare snap."""
    snapped = []
    for f in fields:
        grid = CovGrid(_cell_maps(f)[..., 0:3])
        params = cpb_mod.project_grid_to_bank(grid, bank).params.reshape(-1, 3)
        snapped.append(replace(f, sigmas=params[:, 0:2], rhos=params[:, 2]))
    return fit_mod.solve_colors(snapped, targets, opts.fit, opts.refine_iterations)


def build_shared_context(
    frame0: FrameBuffer,
    frame1: FrameBuffer,
    flows: tuple[FlowField, FlowField],
    options: PipelineOptions | None = None,
) -> SharedContext:
    opts = options or PipelineOptions()
    flow01, flow10 = flows
    if (flow01.height, flow01.width) != (frame0.height, frame0.width):
        raise ShapeError("flow dimensions do not match frames")
    if flow01.vectors.shape != flow10.vectors.shape:
        raise ShapeError("bidirectional flows differ in shape")
    if frame0.pixels.shape != frame1.pixels.shape:
        raise ShapeError("endpoint frames differ in shape")
    # Both flows on the kernel grid, in LR pixels (equal to them at density 1).
    gw, gh = opts.density.grid_shape(frame0.width, frame0.height)
    grid01, grid10 = (FlowField(block_mean(f.vectors, gh, gw)) for f in flows)
    bank = opts.bank or cpb_mod.default_bank()
    fuser = opts.fuser or cpb_mod.baseline_fuser(bank)

    frames = [frame0, frame1]
    fitted = fit_mod.fit_frames(frames, opts.density, opts.fit)
    f0, f1 = _snap_and_refine(fitted, frames, bank, opts)
    # Field 1 pulled back to field 0's anchors, so the blend compares the
    # same content, not the same grid position.  The warp is per channel, so
    # one warp of all eight serves every array, in cells.
    cell_m01 = FlowField(grid01.vectors / opts.density.stride)
    maps1 = motion_mod.backward_warp(FeatureMap(_cell_maps(f1)), cell_m01).data
    sig, rho, off, col = np.split(maps1.reshape(-1, 8), [2, 3, 5], axis=1)
    f1_aligned = replace(f1, sigmas=sig, rhos=rho[:, 0], offsets=off, colors=col)
    cov0, cov1 = CovGrid(_cell_maps(f0)[..., 0:3]), CovGrid(maps1[..., 0:3])
    cov_t, candidates = None, cpb_mod.bank_candidates(cov0, cov1, fuser, bank)
    if not np.any(candidates.b):  # no logit depends on t: resample once
        cov_t, candidates = cpb_mod.resample_candidates(candidates, 0.0, bank), None
    logits = motion_mod.flow_magnitude_window_logits(
        flow01, flow10, WINDOWS, opts.density
    )
    return SharedContext(
        field0=f0,
        field1=f1,
        field1_aligned=f1_aligned,
        flow01=grid01,
        flow10=grid10,
        window_map=motion_mod.compute_window_map(logits, WINDOWS),
        bank=bank,
        fuser=fuser,
        cov_t=cov_t,
        candidates=candidates,
        options=opts,
        stage_counters={"flow-load": 1, "fit": 1, "window-map": 1},
    )


def derive_field(ctx: SharedContext, t: float) -> GaussianField:
    """Assemble the GaussianField at time t from the shared context."""
    # m_t0 = t * m10 on the kernel grid, the flow from time t back to frame
    # 0; scale_flows also rejects a t outside [0, 1].
    m_t0 = motion_mod.scale_flows(ctx.flow01, ctx.flow10, t)

    # motion's fusion and decoder; the m = 1 - t form keeps it bit-equal.
    f0, f1 = ctx.field0, ctx.field1_aligned
    m = 1.0 - t
    offsets = np.clip(m * f0.offsets + (1.0 - m) * f1.offsets, 0.0, 1.0)
    colors = np.clip(m * f0.colors + (1.0 - m) * f1.colors, 0.0, 1.0)

    # Content displacement carried by the offsets, gated in window units.
    w = ctx.window_map.values.reshape(-1, 1) if ctx.options.aow else 1.0
    total = offsets - m_t0.vectors.reshape(-1, 2)

    cov_grid = ctx.cov_t or cpb_mod.resample_candidates(ctx.candidates, t, ctx.bank)
    cov_t = cov_grid.params.reshape(-1, 3)

    derived = replace(
        f0,
        offsets=np.clip(total / w, 0.0, 1.0) * w,
        sigmas=cov_t[:, 0:2],
        rhos=cov_t[:, 2],
        colors=colors,
        timestamp=float(t),
        max_offset=WINDOWS.max_size,
    )
    ctx.bump("per-frame-derive")
    return derived


def render_at(ctx: SharedContext, f: GaussianField, spatial_scale: float) -> FrameBuffer:
    opts = ctx.options
    cfg = RenderConfig(
        scale=spatial_scale,
        truncation_radius=opts.truncation_radius,
        normalization=opts.normalization,
        clamp_output=opts.clamp_output,
    )
    out = render_windows(f, cfg)
    ctx.bump("rasterize")
    return out


def interpolate_with_context(
    frame0: FrameBuffer,
    frame1: FrameBuffer,
    flows: tuple[FlowField, FlowField],
    timestamps: list[float],
    spatial_scale: float,
    options: PipelineOptions | None = None,
) -> tuple[list[FrameBuffer], SharedContext]:
    opts = options or PipelineOptions()
    if sorted(timestamps) != list(timestamps):
        raise ValidationError("timestamps must be sorted")
    if any(not 0.0 <= t <= 1.0 for t in timestamps):
        raise ValidationError("timestamps must lie in [0, 1]")
    # Checks the scale and the frame size before the shared stage.
    RenderConfig(scale=spatial_scale)
    output_shape(frame0.width, frame0.height, spatial_scale)
    ctx = build_shared_context(frame0, frame1, flows, opts)
    outputs = [render_at(ctx, derive_field(ctx, t), spatial_scale) for t in timestamps]
    return outputs, ctx


def interpolate(
    frame0: FrameBuffer,
    frame1: FrameBuffer,
    flows: tuple[FlowField, FlowField],
    timestamps: list[float],
    spatial_scale: float,
    options: PipelineOptions | None = None,
) -> list[FrameBuffer]:
    return interpolate_with_context(
        frame0, frame1, flows, timestamps, spatial_scale, options
    )[0]


# The bench measures the cost structure, not fit quality: a couple of descent
# steps produce a representative field at a fraction of the time.
BENCH_OPTIONS = PipelineOptions(fit=FitConfig(iterations=2), refine_iterations=0)
# Frames timed per temporal scale per repeat, at least: a scale with fewer
# timestamps cycles through them, so one slow frame moves no mean by half.
BENCH_MIN_FRAMES = 4


def run_bench(
    resolution: tuple[int, int],
    spatial_scale: float,
    temporal_scales: list[int],
    repeats: int = 3,
) -> list[BenchRecord]:
    """Time the shared stage vs the per-frame stage for each temporal scale.

    Runs with BENCH_OPTIONS.  Each repeat builds one shared context and,
    for every temporal scale n, derives and renders max(n - 1,
    BENCH_MIN_FRAMES) frames from it, cycling through the timestamps i / n,
    i = 1 .. n - 1; a scale's per-frame time is their mean.  The first
    repeat is discarded as warm-up; means are over the rest, so every record
    holds the same shared_ms.  Rejects, before any fitting, a resolution
    side below 1, no temporal scale or one below 2 (which renders no frame),
    and a spatial scale below 1, not finite or too large to index.
    """
    if repeats < 3:
        raise ValidationError("repeats must be >= 3")
    w, h = resolution
    if min(w, h) < 1:
        raise ValidationError(f"resolution {w}x{h} has a side below 1")
    if not temporal_scales or min(temporal_scales) < 2:
        raise ValidationError(f"temporal scales {temporal_scales} must be >= 2")
    RenderConfig(scale=spatial_scale)  # checks the scale
    output_shape(w, h, spatial_scale)  # checks the frame fits the core's index
    frame0, frame1, m01, m10 = synth.translating_blob_pair(
        w, h, (4.0, 0.0), radius=max(2.0, min(w, h) / 12.0)
    )
    counts = [max(n - 1, BENCH_MIN_FRAMES) for n in temporal_scales]
    frames = sum(counts)  # per repeat, on one context
    expected = {"fit": 1, "flow-load": 1, "window-map": 1}
    expected |= dict.fromkeys(["per-frame-derive", "rasterize"], frames)
    shared_times, frame_times = [], []
    for rep in range(repeats):
        t0 = time.perf_counter()
        ctx = build_shared_context(frame0, frame1, (m01, m10), BENCH_OPTIONS)
        shared = (time.perf_counter() - t0) * 1000.0
        per_frame = []
        for n, count in zip(temporal_scales, counts):
            t1 = time.perf_counter()
            for k in range(count):
                render_at(ctx, derive_field(ctx, (1 + k % (n - 1)) / n), spatial_scale)
            per_frame.append((time.perf_counter() - t1) * 1000.0 / count)
        if ctx.stage_counters != expected:
            raise AssertionError(f"stage counters {ctx.stage_counters} != {expected}")
        if rep > 0:  # the first repeat is the warm-up
            shared_times.append(shared)
            frame_times.append(per_frame)
    shared_ms = float(np.mean(shared_times))
    return [
        BenchRecord(
            temporal_scale=n,
            spatial_scale=spatial_scale,
            shared_ms=shared_ms,
            per_frame_ms_mean=ms,
            total_ms=shared_ms + ms * (n - 1),
            runs=repeats,
        )
        for n, ms in zip(temporal_scales, np.mean(frame_times, axis=0).tolist())
    ]
