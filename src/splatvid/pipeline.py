"""End-to-end orchestration with a shared-once / per-frame-cheap structure.

A SharedContext is built exactly once per input pair.  It holds the endpoint
fits (snapped to the bank and refined), the flows, the window map, and every
input of the per-frame step that does not depend on t: the frame-0
parameter map, the frame-1 parameter and covariance maps pulled back to the
frame-0 anchors, and the bank side of the covariance derivation.  When the
fuser gives the time channel zero weight at every tap, that is the derived
covariances themselves: one fuse + resample serves every timestamp.
Otherwise it is the per-cell bank candidates of ``cpb.bank_candidates``.
The fused logits are linear in t, so each frame pays only an (N, M)
softmax over the entries that can come within ``cpb.TAU`` = 40 of a cell's
maximum logit; the dropped softmax mass is at most K * exp(-TAU) per cell
(1.4e-15 at K = 320), and no frame runs a conv or a K-wide softmax.  Each
requested timestamp then only pays scaling of the one flow it uses, feature
fusion, decoding, offset gating and that bank softmax, plus rasterization.
Stage counters record this split and are asserted by the latency tests.

Per-frame motion realization: endpoint parameter maps are aligned on the
frame-0 anchor grid (frame 1 pulled back through the full 0->1 flow), and
the content displacement at time t is carried by the window-gated position
offsets.  The decoded base offset is the window-normalized total offset
(fitted sub-cell refinement plus flow displacement), so a unit window map
reproduces the tight single-cell constraint and the adaptive window is what
makes large motion trackable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
from splatvid.cpb import (
    FUSER_IN_CHANNELS,
    BankCandidates,
    CovGrid,
    CpbBank,
    FuserWeights,
)
from splatvid.fit import FitConfig
from splatvid.motion import (
    DecoderWeights,
    FlowConvention,
    FusionHeadWeights,
    WindowMap,
    WindowSet,
)
from splatvid.raster import Normalization, RenderConfig, render_windows


@dataclass(frozen=True)
class PipelineOptions:
    density: Density = Density.ONE_PER_PIXEL
    fit: FitConfig = field(default_factory=lambda: FitConfig(iterations=300))
    # Color/offset-only Adam steps after covariances are snapped to the bank.
    refine_iterations: int = 150
    flow_convention: FlowConvention = FlowConvention.CONSISTENT
    normalization: Normalization = Normalization.PAPER_DET
    truncation_radius: float = 3.0
    clamp_output: bool = True
    aow: bool = True
    window_set: WindowSet = field(default_factory=WindowSet)
    bank: CpbBank | None = None
    fuser: FuserWeights | None = None
    fusion_weights: FusionHeadWeights | None = None
    decoder_weights: DecoderWeights | None = None


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


@dataclass
class SharedContext:
    """Everything one input pair computes once, for any number of timestamps.

    ``param0`` is field 0's (offset, color) map; ``param1`` and ``cov1`` are
    field 1's maps pulled back to the frame-0 anchors through the 0->1 flow.
    ``cov_t`` holds the derived covariances when the fuser's time-channel
    weights are zero at every tap: the logits then do not depend on t, and
    ``derive_field`` reuses it at every t.  Otherwise ``cov_t`` is None and
    ``candidates`` holds the per-cell bank candidates that ``derive_field``
    resamples at each t.
    """

    field0: GaussianField
    field1: GaussianField
    flow01: FlowField
    flow10: FlowField
    window_map: WindowMap
    bank: CpbBank
    fuser: FuserWeights
    cov0: CovGrid
    cov1: CovGrid
    options: PipelineOptions
    param0: FeatureMap | None = None
    param1: FeatureMap | None = None
    cov_t: CovGrid | None = None
    candidates: BankCandidates | None = None
    stage_counters: dict[str, int] = field(default_factory=dict)

    def bump(self, stage: str) -> None:
        self.stage_counters[stage] = self.stage_counters.get(stage, 0) + 1


def _cov_grid(f: GaussianField) -> CovGrid:
    gw, gh = f.grid_shape
    params = np.concatenate([f.sigmas, f.rhos[:, None]], axis=1)
    return CovGrid(params.reshape(gh, gw, 3))


def _param_map(f: GaussianField) -> FeatureMap:
    """(gh, gw, 5) channels: offset_x, offset_y, r, g, b."""
    gw, gh = f.grid_shape
    data = np.concatenate([f.offsets, f.colors], axis=1)
    return FeatureMap(data.reshape(gh, gw, 5))


def _grid_flow(flow: FlowField, density: Density, grid_units: bool) -> FlowField:
    """Flow resampled to the kernel grid (2x2 mean pool for 1:4).

    Vectors stay in LR pixels unless grid_units is set, which rescales them
    to grid-cell steps (needed when indexing the grid itself, e.g. warping).
    """
    if density is Density.ONE_PER_PIXEL:
        return flow
    gw, gh = density.grid_shape(flow.width, flow.height)
    pooled = block_mean(flow.vectors, gh, gw)
    return FlowField(pooled / 2.0 if grid_units else pooled)


def _snap_and_refine(
    f: GaussianField, target: FrameBuffer, bank: CpbBank, opts: PipelineOptions
) -> GaussianField:
    """Project covariances onto the bank, then re-fit colors/offsets only."""
    grid = _cov_grid(f)
    snapped = cpb_mod.project_grid_to_bank(grid, bank).params.reshape(-1, 3)
    f = f.replace(sigmas=snapped[:, 0:2], rhos=snapped[:, 2])
    iters = opts.refine_iterations
    return fit_mod.descend(f, target, opts.fit, iters, freeze_covariance=True)[0]


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
    bank = opts.bank or cpb_mod.default_bank()
    fuser = opts.fuser or cpb_mod.baseline_fuser(bank)

    ctx = SharedContext(
        field0=None,  # type: ignore[arg-type]
        field1=None,  # type: ignore[arg-type]
        flow01=flow01,
        flow10=flow10,
        window_map=None,  # type: ignore[arg-type]
        bank=bank,
        fuser=fuser,
        cov0=None,  # type: ignore[arg-type]
        cov1=None,  # type: ignore[arg-type]
        options=opts,
    )
    ctx.bump("flow-load")

    f0, _ = fit_mod.fit_frame(frame0, opts.density, opts.fit)
    f1, _ = fit_mod.fit_frame(frame1, opts.density, opts.fit)
    f0 = _snap_and_refine(f0, frame0, bank, opts)
    f1 = _snap_and_refine(f1, frame1, bank, opts)
    ctx.field0, ctx.field1 = f0, f1
    # Frame-1 parameters pulled back to frame-0 anchors so fusion compares
    # parameters of the same content, not the same grid position.
    grid_m01 = _grid_flow(flow01, opts.density, grid_units=True)
    cov1_aligned = motion_mod.backward_warp(
        FeatureMap(_cov_grid(f1).params), grid_m01
    ).data
    ctx.cov0, ctx.cov1 = _cov_grid(f0), CovGrid(cov1_aligned)
    ctx.param0 = _param_map(f0)
    ctx.param1 = motion_mod.backward_warp(_param_map(f1), grid_m01)
    if not np.any(fuser.weights[:, FUSER_IN_CHANNELS - 1]):
        # The t channel carries no weight, so the logits are the same at any t.
        ctx.cov_t = cpb_mod.resample(
            cpb_mod.fuse(ctx.cov0, ctx.cov1, 0.0, fuser), bank
        )
    else:
        ctx.candidates = cpb_mod.bank_candidates(ctx.cov0, ctx.cov1, fuser, bank)
    ctx.bump("fit")

    logits = motion_mod.flow_magnitude_window_logits(
        flow01, flow10, opts.window_set, opts.density
    )
    ctx.window_map = motion_mod.compute_window_map(logits, opts.window_set)
    ctx.bump("window-map")
    return ctx


def derive_field(ctx: SharedContext, t: float) -> GaussianField:
    """Assemble the GaussianField at time t from the shared context."""
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"timestamp {t} outside [0, 1]")
    opts = ctx.options
    m_t0 = motion_mod.scale_flow_t0(ctx.flow01, ctx.flow10, t, opts.flow_convention)

    p0, p1 = ctx.param0, ctx.param1
    mask, residual = motion_mod.predict_fusion(p0, p1, t, opts.fusion_weights)
    fused = motion_mod.fuse_features(p0, p1, mask, residual)
    base_offsets, colors = motion_mod.decode_gaussians(fused, opts.decoder_weights)

    # Content displacement carried by the offsets, normalized by the window.
    disp = -_grid_flow(m_t0, opts.density, grid_units=False).vectors
    if opts.aow:
        wmap = ctx.window_map
    else:
        wmap = WindowMap(np.ones_like(ctx.window_map.values))
    total = base_offsets + disp
    gated = np.clip(total / wmap.values[..., None], 0.0, 1.0)
    offsets = motion_mod.apply_window(gated, wmap)

    cov_grid = ctx.cov_t
    if cov_grid is None:
        cov_grid = cpb_mod.resample_candidates(ctx.candidates, t, ctx.bank)
    cov_t = cov_grid.params.reshape(-1, 3)

    f0 = ctx.field0
    derived = f0.replace(
        offsets=offsets.reshape(-1, 2),
        sigmas=cov_t[:, 0:2],
        rhos=cov_t[:, 2],
        colors=colors.reshape(-1, 3),
        timestamp=float(t),
        max_offset=float(opts.window_set.max_size),
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
    if not np.all(np.isfinite(out.pixels)):
        raise FloatingPointError(
            f"rasterize: non-finite pixels rendering the field at t={f.timestamp}"
            f" at scale {spatial_scale}"
        )
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
    if spatial_scale < opts.density.min_scale():
        raise ValidationError(
            f"spatial scale {spatial_scale} below density floor {opts.density.min_scale()}"
        )
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


def run_bench(
    resolution: tuple[int, int],
    spatial_scale: float,
    temporal_scales: list[int],
    repeats: int = 3,
    options: PipelineOptions | None = None,
) -> list[BenchRecord]:
    """Time the shared stage vs the per-frame stage for each temporal scale.

    The first repeat is discarded as warm-up; means are over the rest.
    """
    if repeats < 3:
        raise ValidationError("repeats must be >= 3")
    w, h = resolution
    # Bench measures the cost structure, not fit quality: a couple of descent
    # steps produce a representative field at a fraction of the time.
    opts = options or PipelineOptions(
        fit=FitConfig(iterations=2, truncation_radius=3.0), refine_iterations=0
    )
    frame0, frame1, m01, m10 = synth.translating_blob_pair(
        w, h, (4.0, 0.0), radius=max(2.0, min(w, h) / 12.0)
    )
    records = []
    for n in temporal_scales:
        shared_times = []
        frame_times = []
        for rep in range(repeats):
            t0 = time.perf_counter()
            ctx = build_shared_context(frame0, frame1, (m01, m10), opts)
            t1 = time.perf_counter()
            timestamps = [i / n for i in range(1, n)]
            t2 = time.perf_counter()
            for t in timestamps:
                render_at(ctx, derive_field(ctx, t), spatial_scale)
            t3 = time.perf_counter()
            expected = {
                "fit": 1,
                "flow-load": 1,
                "window-map": 1,
                "per-frame-derive": len(timestamps),
                "rasterize": len(timestamps),
            }
            if ctx.stage_counters != expected:
                raise AssertionError(
                    f"stage counters {ctx.stage_counters} != {expected}"
                )
            if rep == 0:
                continue  # warm-up
            shared_times.append((t1 - t0) * 1000.0)
            frame_times.append((t3 - t2) * 1000.0 / max(len(timestamps), 1))
        shared_ms = float(np.mean(shared_times))
        per_frame_ms = float(np.mean(frame_times))
        records.append(
            BenchRecord(
                temporal_scale=n,
                spatial_scale=spatial_scale,
                shared_ms=shared_ms,
                per_frame_ms_mean=per_frame_ms,
                total_ms=shared_ms + per_frame_ms * (n - 1),
                runs=repeats,
            )
        )
    return records
