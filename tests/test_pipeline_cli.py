"""Shared-context pipeline structure, benchmarking, and the CLI front end."""

import dataclasses

import numpy as np
import pytest

from splatvid import cli, cpb, fileio, motion, nnops, pipeline, synth
from splatvid import fit as fit_mod
from splatvid.core import (
    Density,
    FeatureMap,
    FlowField,
    FrameBuffer,
    ShapeError,
    ValidationError,
    validate_field,
)
from splatvid.fit import FitConfig
from splatvid.metrics import psnr_y
from splatvid.pipeline import (
    BenchRecord,
    PipelineOptions,
    build_shared_context,
    derive_field,
    interpolate,
    interpolate_with_context,
    render_at,
)
from splatvid.raster import Normalization, RenderConfig, render_tiled, render_windows
from conftest import DEEP_DOC, LONG_INT_DOC

FAST_OPTS = PipelineOptions(
    fit=FitConfig(iterations=60, truncation_radius=4.0), refine_iterations=20
)


def grid_maps(f, *arrays):
    """f's named (N, ...) arrays side by side as one (gh, gw, C) grid map."""
    gw, gh = f.grid_shape
    return np.column_stack([getattr(f, a) for a in arrays]).reshape(gh, gw, -1)


def cov_grids(ctx):
    """The fuser's two inputs: field 0's and field 1's aligned covariances."""
    return (
        cpb.CovGrid(grid_maps(f, "sigmas", "rhos"))
        for f in (ctx.field0, ctx.field1_aligned)
    )


def static_scene(w=12, h=10, seed=0):
    rng = np.random.default_rng(seed)
    frame = FrameBuffer(rng.uniform(0.1, 0.9, (h, w, 3)))
    zero = synth.uniform_flow(w, h, 0.0, 0.0)
    return frame, zero


class TestSharedContext:
    def test_stage_counters(self):
        frame, zero = static_scene()
        outputs, ctx = interpolate_with_context(
            frame, frame, (zero, zero), [0.0, 0.25, 0.5, 1.0], 2.0, FAST_OPTS
        )
        assert len(outputs) == 4
        assert ctx.stage_counters == {
            "fit": 1,
            "flow-load": 1,
            "window-map": 1,
            "per-frame-derive": 4,
            "rasterize": 4,
        }

    def test_a_replaced_context_counts_its_own_frames(self):
        frame, zero = static_scene()
        opts = PipelineOptions(fit=FitConfig(iterations=1), refine_iterations=0)
        ctx = build_shared_context(frame, frame, (zero, zero), opts)
        built = dict(ctx.stage_counters)
        copy = dataclasses.replace(ctx, options=dataclasses.replace(opts, aow=False))
        render_at(copy, derive_field(copy, 0.5), 1.0)
        assert ctx.stage_counters == built
        assert copy.stage_counters == {**built, "per-frame-derive": 1, "rasterize": 1}

    def test_static_scene_time_independent(self):
        frame, zero = static_scene()
        outputs = interpolate(
            frame, frame, (zero, zero), [0.0, 0.3, 0.7, 1.0], 2.0, FAST_OPTS
        )
        for out in outputs[1:]:
            assert np.abs(out.pixels - outputs[0].pixels).max() <= 1e-6

    def test_t0_matches_fitted_endpoint_render(self):
        frame, zero = static_scene(seed=3)
        outputs, ctx = interpolate_with_context(
            frame, frame, (zero, zero), [0.0], 2.0, FAST_OPTS
        )
        cfg = RenderConfig(scale=2.0, truncation_radius=FAST_OPTS.truncation_radius)
        endpoint = render_tiled(ctx.field0, cfg)
        assert psnr_y(outputs[0], endpoint) >= 50.0

    def test_render_uses_the_fit_normalization(self):
        # Setting the normalization on the fit alone renders with it too.
        frame, zero = static_scene()
        opts = dataclasses.replace(
            FAST_OPTS,
            fit=FitConfig(
                iterations=60, truncation_radius=4.0, normalization=Normalization.SQRT_DET
            ),
        )
        outputs, ctx = interpolate_with_context(
            frame, frame, (zero, zero), [0.0], 2.0, opts
        )
        assert ctx.options.normalization is Normalization.SQRT_DET
        cfg = RenderConfig(
            scale=2.0,
            truncation_radius=opts.truncation_radius,
            normalization=Normalization.SQRT_DET,
        )
        assert psnr_y(outputs[0], render_tiled(ctx.field0, cfg)) >= 50.0

    def test_determinism(self):
        frame0, frame1, m01, m10 = synth.translating_blob_pair(16, 12, (2.0, 0.0))
        a = interpolate(frame0, frame1, (m01, m10), [0.5], 2.0, FAST_OPTS)
        b = interpolate(frame0, frame1, (m01, m10), [0.5], 2.0, FAST_OPTS)
        assert np.array_equal(a[0].pixels, b[0].pixels)

    def test_output_dims_fractional_scale(self):
        frame, zero = static_scene(w=10, h=8)
        out = interpolate(frame, frame, (zero, zero), [0.5], 2.5, FAST_OPTS)[0]
        assert (out.width, out.height) == (25, 20)

    def test_validation_errors(self):
        frame, zero = static_scene()
        with pytest.raises(ValidationError):
            interpolate(frame, frame, (zero, zero), [0.5, 0.2], 2.0, FAST_OPTS)
        with pytest.raises(ValidationError):
            interpolate(frame, frame, (zero, zero), [1.5], 2.0, FAST_OPTS)
        quarter = dataclasses.replace(FAST_OPTS, density=Density.ONE_PER_FOUR_PIXELS)
        for opts in (FAST_OPTS, quarter):
            with pytest.raises(ValidationError, match="below 1"):
                interpolate(frame, frame, (zero, zero), [0.5], 0.5, opts)

    def test_quarter_density_end_to_end(self):
        # Fields are fitted at the frames' size, so output scale s gives
        # round(s * frame size) pixels, as at 1:1.
        frame, zero = static_scene(w=10, h=8, seed=3)
        quarter = dataclasses.replace(FAST_OPTS, density=Density.ONE_PER_FOUR_PIXELS)
        for scale, size in ((1.0, (10, 8)), (2.5, (25, 20))):
            outputs, ctx = interpolate_with_context(
                frame, frame, (zero, zero), [0.0, 0.5], scale, quarter
            )
            assert ctx.field0.grid_shape == (5, 4)
            assert [(out.width, out.height) for out in outputs] == [size, size]
            cfg = RenderConfig(scale=scale, truncation_radius=quarter.truncation_radius)
            endpoint = render_tiled(ctx.field0, cfg)
            assert psnr_y(outputs[0], endpoint) >= 50.0

    def test_uniform_translation_reaches_frame1_at_t1(self):
        # A field fitted to frame 0, evolved with the exact uniform flow to
        # t=1, must land on the fitted frame-1 content.
        frame0, frame1, m01, m10 = synth.translating_blob_pair(
            32, 24, (4.0, 0.0), radius=2.0
        )
        opts = dataclasses.replace(FAST_OPTS, fit=FitConfig(iterations=120, truncation_radius=4.0))
        outputs, ctx = interpolate_with_context(
            frame0, frame1, (m01, m10), [1.0], 2.0, opts
        )
        cfg = RenderConfig(scale=2.0, truncation_radius=opts.truncation_radius)
        endpoint = render_tiled(ctx.field1, cfg)
        assert psnr_y(outputs[0], endpoint) >= 40.0


class TestDeriveCache:
    """derive_field's shared-context caches must not change its output."""

    OPTS = PipelineOptions(
        fit=FitConfig(iterations=8, truncation_radius=3.0), refine_iterations=0
    )

    def blob_pair(self):
        frame0, frame1, m01, m10 = synth.translating_blob_pair(
            16, 12, (3.0, 1.0), radius=2.5
        )
        return frame0, frame1, (m01, m10)

    def reference_cov(self, ctx, t):
        logits = cpb.fuse(*cov_grids(ctx), t, ctx.fuser)
        return cpb.resample(logits, ctx.bank).params.reshape(-1, 3)

    def derive_and_render(self, ctx, timestamps):
        fields = [derive_field(ctx, t) for t in timestamps]
        for f in fields:
            render_at(ctx, f, 1.0)
        assert ctx.stage_counters == {
            "fit": 1,
            "flow-load": 1,
            "window-map": 1,
            "per-frame-derive": len(timestamps),
            "rasterize": len(timestamps),
        }
        return fields

    def test_t_free_fuser_cache_is_bit_exact(self):
        # The cache is the bank candidates resampled at any t, bit for bit,
        # and within the candidates' drop bound of the full fuse + resample.
        frame0, frame1, flows = self.blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, self.OPTS)
        assert ctx.cov_t is not None  # the baseline fuser ignores t
        cands = cpb.bank_candidates(*cov_grids(ctx), ctx.fuser, ctx.bank)
        timestamps = [0.0, 0.3, 1.0]
        for t, f in zip(timestamps, self.derive_and_render(ctx, timestamps)):
            cached = cpb.resample_candidates(cands, t, ctx.bank).params.reshape(-1, 3)
            assert np.array_equal(f.sigmas, cached[:, 0:2])
            assert np.array_equal(f.rhos, cached[:, 2])
            ref = self.reference_cov(ctx, t)
            assert np.abs(f.sigmas - ref[:, 0:2]).max() <= 1e-12
            assert np.abs(f.rhos - ref[:, 2]).max() <= 1e-12

    def test_blend_keeps_endpoint_colours(self):
        # The blend that replaces the fusion and decoder heads keeps their
        # endpoint identities: t = 0 gives field 0's colours, t = 1 those of
        # field 1 aligned.
        frame0, frame1, flows = self.blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, self.OPTS)
        assert ctx.options.aow
        for t, f in ((0, ctx.field0), (1, ctx.field1_aligned)):
            assert np.array_equal(derive_field(ctx, t).colors, f.colors)
        assert not np.array_equal(ctx.field0.colors, ctx.field1_aligned.colors)

    def test_t_dependent_fuser_bypasses_cache(self):
        # Baseline 1x1 fuser moved to the centre of a 3x3 kernel, plus a
        # t-weight at one corner tap only: t then shifts the logits of every
        # cell whose top-left neighbour lies inside the grid.
        bank = cpb.default_bank()
        base = cpb.baseline_fuser(bank)
        w = np.zeros((bank.size, cpb.FUSER_IN_CHANNELS, 3, 3))
        w[:, :, 1, 1] = base.weights[:, :, 0, 0]
        w[:, cpb.FUSER_IN_CHANNELS - 1, 0, 0] = np.random.default_rng(4).normal(
            0.0, 100.0, bank.size
        )
        opts = dataclasses.replace(
            self.OPTS, bank=bank, fuser=cpb.FuserWeights(w, base.bias)
        )
        frame0, frame1, flows = self.blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, opts)
        assert ctx.cov_t is None
        timestamps = [0.25, 0.75]
        fields = self.derive_and_render(ctx, timestamps)
        for t, f in zip(timestamps, fields):
            ref = self.reference_cov(ctx, t)
            assert np.allclose(f.sigmas, ref[:, 0:2], rtol=0.0, atol=1e-12)
            assert np.allclose(f.rhos, ref[:, 2], rtol=0.0, atol=1e-12)
        assert np.abs(fields[0].sigmas - fields[1].sigmas).max() > 1e-6


    def zoom_pair(self):
        # A 1.8x zoom of a 24x16 frame: window sizes 1 to 10 on the grid.
        frame0, _ = static_scene(24, 16, seed=4)
        frame1, _ = static_scene(24, 16, seed=5)
        flows = synth.zoom_flow(24, 16, 1.8), synth.zoom_flow(24, 16, 1 / 1.8)
        return frame0, frame1, flows

    @pytest.mark.parametrize("aow", [True, False])
    @pytest.mark.parametrize("pair", ["blob_pair", "zoom_pair"])
    def test_offsets_follow_scale_flows(self, pair, aow):
        # derive_field scales only m_t0; its offsets must equal the window-
        # gated offsets built from scale_flows' m_t0 by the reference heads,
        # bit for bit, with AOW off gated by a unit WindowMap.
        frame0, frame1, flows = getattr(self, pair)()
        ctx = build_shared_context(frame0, frame1, flows, self.OPTS)
        ctx = dataclasses.replace(ctx, options=dataclasses.replace(self.OPTS, aow=aow))
        if pair == "zoom_pair":  # the gate sees windows other than powers of two
            odd_sizes = {3.0, 5.0, 6.0, 7.0, 9.0, 10.0}
            assert odd_sizes <= set(np.unique(ctx.window_map.values))
        timestamps = [0.0, 0.3, 1.0]
        fields = [derive_field(ctx, t) for t in timestamps]
        p0, p1 = (
            FeatureMap(grid_maps(f, "offsets", "colors"))
            for f in (ctx.field0, ctx.field1_aligned)
        )
        wmap = ctx.window_map
        if not aow:
            wmap = motion.WindowMap(np.ones_like(wmap.values))
        for t, f in zip(timestamps, fields):
            m_t0 = motion.scale_flows(ctx.flow01, ctx.flow10, t)
            mask, residual = motion.predict_fusion(p0, p1, t)
            fused = motion.fuse_features(p0, p1, mask, residual)
            base, _ = motion.decode_gaussians(fused)
            gated = np.clip((base - m_t0.vectors) / wmap.values[..., None], 0.0, 1.0)
            ref = motion.apply_window(gated, wmap).reshape(-1, 2)
            assert np.array_equal(f.offsets, ref)
        assert np.abs(fields[2].offsets - fields[1].offsets).max() > 0.1

    def test_one_scale_flows_call_per_timestamp(self, monkeypatch):
        frame0, frame1, flows = self.blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, self.OPTS)
        calls = []
        original = motion.scale_flows

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(motion, "scale_flows", counted)
        timestamps = [0.0, 0.25, 0.5, 1.0]
        for t in timestamps:
            derive_field(ctx, t)
        assert calls == timestamps

    def test_derive_rejects_t_outside_the_unit_interval(self, monkeypatch):
        # derive_field leaves the check to motion.scale_flows.
        frame0, frame1, flows = self.blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, self.OPTS)
        calls = []
        original = motion.scale_flows
        monkeypatch.setattr(
            motion, "scale_flows", lambda *a: calls.append(a[2]) or original(*a)
        )
        for t in (-0.1, 1.5):
            with pytest.raises(ValidationError, match="outside"):
                derive_field(ctx, t)
        assert calls == [-0.1, 1.5]

    def test_render_at_names_rasterize_for_a_non_finite_frame(self):
        frame0, frame1, flows = self.blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, self.OPTS)
        f = derive_field(ctx, 0.5)
        rhos = f.rhos.copy()
        rhos[7] = 1.0
        singular = dataclasses.replace(f, rhos=rhos)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^rasterize: .* t=0\.5 at scale 2\.0$"
        ):
            render_at(ctx, singular, 2.0)
        assert "rasterize" not in ctx.stage_counters

    def test_one_warp_pulls_back_both_maps_of_field1(self, monkeypatch):
        # The stacked 8-channel warp equals warping the covariance and the
        # (offset, color) maps one by one, bit for bit.
        frame0, frame1, flows = self.blob_pair()
        calls = []
        original = motion.backward_warp

        def counted(*args):
            calls.append(args[0].channels)
            return original(*args)

        monkeypatch.setattr(motion, "backward_warp", counted)
        ctx = build_shared_context(frame0, frame1, flows, self.OPTS)
        assert calls == [8]
        f1, aligned = ctx.field1, ctx.field1_aligned
        for arrays in (("sigmas", "rhos"), ("offsets", "colors")):
            warped = original(FeatureMap(grid_maps(f1, *arrays)), ctx.flow01).data
            assert np.array_equal(warped, grid_maps(aligned, *arrays))
        # Field 1's metadata, on field 0's grid.
        assert (aligned.timestamp, aligned.max_offset) == (f1.timestamp, f1.max_offset)
        assert aligned.grid_shape == ctx.field0.grid_shape


class TestGridFlows:
    """Each flow reaches the kernel grid once per pair, in LR pixels."""

    def zoom_pair(self, w, h):
        frame0, _ = static_scene(w, h, seed=4)
        frame1, _ = static_scene(w, h, seed=5)
        return frame0, frame1, (synth.zoom_flow(w, h, 1.3), synth.zoom_flow(w, h, 1 / 1.3))

    def test_quarter_density_pools_each_flow_to_the_grid(self):
        w, h = 11, 7
        frame0, frame1, flows = self.zoom_pair(w, h)
        quarter = dataclasses.replace(
            TestDeriveCache.OPTS, density=Density.ONE_PER_FOUR_PIXELS
        )
        ctx = build_shared_context(frame0, frame1, flows, quarter)
        gw, gh = ctx.field0.grid_shape
        assert (gw, gh) == (6, 4)
        for flow, pooled in zip(flows, (ctx.flow01, ctx.flow10)):
            ref = np.empty((gh, gw, 2))
            for iy in range(gh):
                for ix in range(gw):
                    # Each cell's 2x2 block, edge pixels replicated.
                    block = [
                        flow.vectors[min(2 * iy + dy, h - 1), min(2 * ix + dx, w - 1)]
                        for dy in (0, 1)
                        for dx in (0, 1)
                    ]
                    ref[iy, ix] = np.mean(block, axis=0)
            assert pooled.vectors.shape == (gh, gw, 2)
            assert np.abs(pooled.vectors - ref).max() <= 1e-15
        # The warp steps in cells: the grid flow over the stride.
        maps = grid_maps(ctx.field1, "sigmas", "rhos", "offsets", "colors")
        warped = motion.backward_warp(FeatureMap(maps), FlowField(ctx.flow01.vectors / 2))
        aligned = grid_maps(ctx.field1_aligned, "sigmas", "rhos", "offsets", "colors")
        assert np.array_equal(warped.data, aligned)

    def test_density_one_keeps_the_input_flows(self):
        # Equal values: the block mean's sum starts at +0.0, so a -0.0
        # (the zoom centre's column of m10) comes back as +0.0.
        frame0, frame1, flows = self.zoom_pair(11, 7)
        ctx = build_shared_context(frame0, frame1, flows, TestDeriveCache.OPTS)
        for flow, kept in zip(flows, (ctx.flow01, ctx.flow10)):
            assert kept.vectors.shape == flow.vectors.shape
            assert np.array_equal(kept.vectors, flow.vectors)

    @pytest.mark.parametrize("density", list(Density))
    @pytest.mark.parametrize("shift", [(3.0, 1.0), (-3.0, -1.0)])
    def test_derived_fields_are_valid(self, density, shift):
        frame0, frame1, m01, m10 = synth.translating_blob_pair(16, 12, shift, radius=2.5)
        opts = dataclasses.replace(TestDeriveCache.OPTS, density=density)
        ctx = build_shared_context(frame0, frame1, (m01, m10), opts)
        for aow in (True, False):
            local = dataclasses.replace(ctx, options=dataclasses.replace(opts, aow=aow))
            for t in (0.0, 0.5, 1.0):
                assert validate_field(derive_field(local, t)) == []


class TestBankCandidatesDerive:
    """Every fuser derives covariances from per-cell bank candidates: no bank
    conv, fuse or K-wide resample in the shared stage or per frame."""

    def t_dependent_options(self):
        rng = np.random.default_rng(7)
        bank = synth.jittered_bank(rng)
        return dataclasses.replace(
            TestDeriveCache.OPTS, bank=bank, fuser=synth.t_dependent_fuser(rng, bank)
        )

    def test_context_holds_candidates_only_without_cov_t(self):
        frame0, frame1, flows = TestDeriveCache().blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, TestDeriveCache.OPTS)
        assert ctx.cov_t is not None and ctx.candidates is None
        ctx = build_shared_context(frame0, frame1, flows, self.t_dependent_options())
        assert ctx.cov_t is None and ctx.candidates is not None

    def test_derive_needs_no_per_frame_fuse_resample_or_conv(self, monkeypatch):
        # The forbidden calls are patched before the shared stage, so neither
        # it nor any frame may reach them; the reference runs after undo().
        frame0, frame1, flows = TestDeriveCache().blob_pair()
        timestamps = [0.0, 0.25, 0.5, 1.0]

        def forbidden(*args, **kwargs):
            raise AssertionError("bank fuse, resample or conv, or a fusion head")

        for opts in (TestDeriveCache.OPTS, self.t_dependent_options()):
            for mod, name in [
                (cpb, "fuse"),
                (cpb, "resample"),
                (cpb, "conv2d"),
                (nnops, "conv2d"),
                (motion, "predict_fusion"),
                (motion, "fuse_features"),
                (motion, "decode_gaussians"),
            ]:
                monkeypatch.setattr(mod, name, forbidden)
            ctx = build_shared_context(frame0, frame1, flows, opts)
            fields = TestDeriveCache().derive_and_render(ctx, timestamps)
            monkeypatch.undo()
            for t, f in zip(timestamps, fields):
                ref = TestDeriveCache().reference_cov(ctx, t)
                assert np.abs(f.sigmas - ref[:, 0:2]).max() <= 1e-12
                assert np.abs(f.rhos - ref[:, 2]).max() <= 1e-12
            spread = np.abs(fields[0].sigmas - fields[3].sigmas).max()
            assert spread == 0.0 if ctx.candidates is None else spread > 1e-6


class TestPipelineOptions:
    """PipelineOptions checks itself when built."""

    def test_rejects_negative_refine_iterations(self):
        with pytest.raises(ValidationError, match="refine_iterations"):
            PipelineOptions(refine_iterations=-1)
        assert PipelineOptions(refine_iterations=0).refine_iterations == 0

    def test_rejects_a_fuser_whose_k_differs_from_the_bank(self):
        small = cpb.build_bank([0.5, 1.0], [0.0])  # K = 4
        with pytest.raises(ShapeError, match="fuser K=4 != bank K=320"):
            PipelineOptions(fuser=cpb.baseline_fuser(small))
        with pytest.raises(ShapeError, match="fuser K=320 != bank K=4"):
            PipelineOptions(bank=small, fuser=cpb.baseline_fuser(cpb.default_bank()))
        opts = PipelineOptions(bank=small, fuser=cpb.baseline_fuser(small))
        assert opts.fuser.k == opts.bank.size == 4
        with pytest.raises(ShapeError):
            dataclasses.replace(opts, bank=None)

    def test_a_fuser_without_a_bank_builds_the_default_bank_once(self, monkeypatch):
        fuser = cpb.baseline_fuser(cpb.default_bank())
        cpb.default_bank.cache_clear()
        builds = []
        build = cpb.build_bank

        def counting(*levels):
            bank = build(*levels)
            builds.append(bank.size)
            return bank

        monkeypatch.setattr(cpb, "build_bank", counting)
        frame, zero = static_scene(4, 3)
        opts = PipelineOptions(
            fit=FitConfig(iterations=0), refine_iterations=0, fuser=fuser
        )
        interpolate(frame, frame, (zero, zero), [0.5], 1.0, opts)
        assert builds == [320]

    def test_fit_and_render_share_one_default_radius(self):
        radius = FitConfig().truncation_radius
        assert radius == RenderConfig(scale=1.0).truncation_radius
        assert radius == PipelineOptions.truncation_radius


class TestBench:
    def test_repeats_floor(self):
        with pytest.raises(ValidationError):
            pipeline.run_bench((32, 24), 2.0, [2], repeats=2)

    def test_record_invariants(self):
        with pytest.raises(ValidationError):
            BenchRecord(2, 4.0, 10.0, 1.0, 5.0, 3)  # total < shared
        with pytest.raises(ValidationError):
            BenchRecord(2, 4.0, 1.0, 1.0, 2.0, 0)  # runs < 1

    def test_small_bench_runs(self):
        records = pipeline.run_bench((32, 24), 2.0, [2, 4], repeats=3)
        assert [r.temporal_scale for r in records] == [2, 4]
        for r in records:
            assert r.total_ms >= r.shared_ms and r.runs == 3

    def test_one_shared_stage_per_repeat_serves_every_scale(self, monkeypatch):
        builds = []

        def counted(*args):
            builds.append(args)
            return build_shared_context(*args)

        monkeypatch.setattr(pipeline, "build_shared_context", counted)
        records = pipeline.run_bench((32, 24), 2.0, [2, 4, 8], repeats=3)
        assert len(builds) == 3
        assert len({r.shared_ms for r in records}) == 1
        for r in records:
            n = r.temporal_scale
            assert r.total_ms == r.shared_ms + r.per_frame_ms_mean * (n - 1)

    def test_every_scale_times_at_least_four_frames_per_repeat(self, monkeypatch):
        # x2 and x3 cycle their timestamps; x8 renders each of its 7 once.
        times = []

        def counted(ctx, t):
            times.append(t)
            return derive_field(ctx, t)

        monkeypatch.setattr(pipeline, "derive_field", counted)
        pipeline.run_bench((16, 12), 1.0, [2, 3, 8], repeats=3)
        per_repeat = [1 / 2] * 4 + [1 / 3, 2 / 3] * 2 + [i / 8 for i in range(1, 8)]
        assert times == per_repeat * 3

    def test_no_temporal_scale_is_rejected_before_fitting(self, monkeypatch):
        fits = []
        monkeypatch.setattr(fit_mod, "fit_frames", lambda *a: fits.append(a))
        with pytest.raises(ValidationError):
            pipeline.run_bench((32, 24), 2.0, [], repeats=3)
        assert fits == []


class TestCli:
    def test_fit_render_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        target = FrameBuffer(rng.uniform(0.2, 0.8, (8, 8, 3)))
        frm = tmp_path / "target.frm"
        fileio.save_frm(frm, target)
        gsf = tmp_path / "field.gsf"
        out = tmp_path / "render.frm"
        assert cli.main(["fit", str(frm), str(gsf), "--iterations", "40"]) == 0
        assert cli.main(["render", str(gsf), str(out), "--scale", "1"]) == 0
        rendered = fileio.load_frm(out)
        assert psnr_y(rendered, target) >= 20.0

    def test_default_fit_render_round_trip_keeps_the_fit_contract(self, tmp_path):
        # Measured: 66.24 dB through the CLI against 66.24 dB for the field
        # rendered at its own fit contract; 52.91 dB when fit defaults to
        # radius 8 and render to radius 3.
        frame = synth.translating_blob_pair(16, 12, (2.0, 0.0), radius=2.0)[0]
        frm, gsf, out = tmp_path / "f.frm", tmp_path / "f.gsf", tmp_path / "r.frm"
        fileio.save_frm(frm, frame)
        assert cli.main(["fit", str(frm), str(gsf), "--iterations", "100"]) == 0
        assert cli.main(["render", str(gsf), str(out)]) == 0
        own = dataclasses.replace(FitConfig().render_config(), clamp_output=True)
        reference = psnr_y(render_windows(fileio.load_gsf(gsf), own), frame)
        assert psnr_y(fileio.load_frm(out), frame) >= reference - 0.5

    @staticmethod
    def interpolate_args(tmp_path, w, h):
        frame0, frame1, m01, m10 = synth.translating_blob_pair(w, h, (2.0, 0.0))
        p0, p1 = tmp_path / "f0.frm", tmp_path / "f1.frm"
        fileio.save_frm(p0, frame0)
        fileio.save_frm(p1, frame1)
        fl01, fl10 = tmp_path / "m01.flo", tmp_path / "m10.flo"
        fileio.save_flo(fl01, m01)
        fileio.save_flo(fl10, m10)
        out_dir = tmp_path / "out"
        return out_dir, [
            "interpolate",
            str(p0), str(p1), str(fl01), str(fl10), str(out_dir),
            "--iterations", "30",
            "--format", "frm",
        ]

    def test_interpolate_writes_frames(self, tmp_path):
        out_dir, args = self.interpolate_args(tmp_path, 12, 10)
        code = cli.main(args + ["--timestamps", "0.25,0.75", "--scale", "2"])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "t0.2500.frm",
            "t0.7500.frm",
        ]

    def test_interpolate_quarter_density(self, tmp_path):
        # Odd frame sizes: the last kernel row and column cover one pixel.
        out_dir, args = self.interpolate_args(tmp_path, 13, 9)
        code = cli.main(args + ["--timestamps", "0,0.5,1", "--density", "4"])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["t0.0000.frm", "t0.5000.frm", "t1.0000.frm"]
        for name in names:
            assert fileio.load_frm(out_dir / name).pixels.shape == (9, 13, 3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "in.frm", "out.gsf", "--scale", "2"],
            ["bench", "--output", "b.csv", "--normalization", "sqrt-det"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_corr_writes_csv(self, tmp_path):
        base = synth.ridge_texture(16, 12, seed=1)
        paths = []
        for i, frame in enumerate(synth.rolled_sequence(base, 3, step=2)):
            p = tmp_path / f"frame{i}.frm"
            fileio.save_frm(p, frame)
            paths.append(str(p))
        out = tmp_path / "stab.csv"
        code = cli.main(["corr", *paths, "--output", str(out), "--iterations", "20"])
        assert code == 0
        assert out.read_text().startswith("gap,")

    def test_bench_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main(
            [
                "bench",
                "--resolution", "32x24",
                "--temporal-scales", "2",
                "--repeats", "3",
                "--scale", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("temporal_scale,")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--temporal-scales", "1"),
            ("--temporal-scales", "0"),
            ("--temporal-scales", "2,-4"),
            ("--resolution", "0x8"),
            ("--resolution", "8x0"),
            ("--scale", "0.5"),
            ("--scale", "nan"),
            ("--scale", "inf"),
            ("--scale", "1e300"),
        ],
    )
    def test_bench_rejects_bad_input_before_fitting(self, tmp_path, monkeypatch, flag, value):
        fits = []
        monkeypatch.setattr(fit_mod, "fit_frames", lambda *a: fits.append(a))
        argv = ["bench", flag, value, "--output", str(tmp_path / "b.csv")]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert fits == []

    @pytest.mark.parametrize("scale", ["nan", "inf", "1e300"])
    def test_interpolate_rejects_a_bad_scale_before_fitting(
        self, tmp_path, monkeypatch, scale
    ):
        _, args = self.interpolate_args(tmp_path, 8, 6)
        fits = []
        monkeypatch.setattr(fit_mod, "fit_frames", lambda *a: fits.append(a))
        code = cli.main(args + ["--timestamps", "0.5", "--scale", scale])
        assert code == cli.EXIT_VALIDATION
        assert fits == []

    @pytest.mark.parametrize("scale", ["nan", "inf", "1e300"])
    def test_render_rejects_a_bad_scale(self, tmp_path, scale):
        f = synth.random_field(np.random.default_rng(6), 8, 6, Density.ONE_PER_PIXEL)
        gsf = tmp_path / "f.gsf"
        fileio.save_gsf(gsf, f)
        out = tmp_path / "out.frm"
        code = cli.main(["render", str(gsf), str(out), "--scale", scale])
        assert code == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("timestamps", ["0.12341,0.12344", "0.5,0.5"])
    def test_interpolate_rejects_timestamps_naming_one_file_before_fitting(
        self, tmp_path, monkeypatch, timestamps
    ):
        out_dir, args = self.interpolate_args(tmp_path, 8, 6)
        fits = []
        monkeypatch.setattr(fit_mod, "fit_frames", lambda *a: fits.append(a))
        assert cli.main(args + ["--timestamps", timestamps]) == cli.EXIT_VALIDATION
        assert fits == []
        assert not out_dir.exists()

    def test_format_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.gsf"
        bad.write_bytes(b"JUNKJUNKJUNK")
        out = tmp_path / "out.frm"
        assert cli.main(["render", str(bad), str(out)]) == cli.EXIT_FORMAT

    def test_k_mismatched_fuser_exits_before_fitting(self, tmp_path, monkeypatch):
        out_dir, args = self.interpolate_args(tmp_path, 8, 6)
        weights = tmp_path / "fuser.json"
        fileio.save_fuser(weights, cpb.baseline_fuser(cpb.build_bank([0.5, 1.0], [0.0])))
        fits = []
        monkeypatch.setattr(fit_mod, "fit_frames", lambda *a: fits.append(a))
        code = cli.main(args + ["--timestamps", "0.5", "--weights", str(weights)])
        assert code == cli.EXIT_VALIDATION
        assert fits == []

    def test_gsf_with_a_nan_timestamp_exits_3(self, tmp_path):
        f = synth.random_field(np.random.default_rng(5), 4, 3, Density.ONE_PER_PIXEL)
        gsf = tmp_path / "f.gsf"
        fileio.save_gsf(gsf, f)
        data = bytearray(gsf.read_bytes())
        data[13:17] = np.float32(np.nan).tobytes()
        gsf.write_bytes(bytes(data))
        code = cli.main(["render", str(gsf), str(tmp_path / "out.frm")])
        assert code == cli.EXIT_FORMAT

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_fit_prints_the_loss_of_the_fitted_field(self, tmp_path, capsys, iterations):
        target = FrameBuffer(np.random.default_rng(6).uniform(0.2, 0.8, (5, 6, 3)))
        frm = tmp_path / "t.frm"
        fileio.save_frm(frm, target)
        gsf = tmp_path / "t.gsf"
        argv = ["fit", str(frm), str(gsf), "--iterations", str(iterations)]
        assert cli.main(argv) == 0
        cfg = FitConfig(iterations=iterations)
        field = fit_mod.fit_frame(target, Density.ONE_PER_PIXEL, cfg)
        expected = ""
        if iterations:
            final = fit_mod.loss(field, target, cfg)[0]
            expected = f"final loss {final:.6f} after {iterations} iterations\n"
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("column, value", [(4, 1.0), (2, 0.0), (3, 5e-4)])
    def test_gsf_breaking_the_covariance_rule_exits_3(self, tmp_path, column, value):
        f = synth.random_field(np.random.default_rng(4), 4, 3, Density.ONE_PER_PIXEL)
        gsf = tmp_path / "f.gsf"
        fileio.save_gsf(gsf, f)
        data = bytearray(gsf.read_bytes())
        data[21 + 4 * column : 25 + 4 * column] = np.float32(value).tobytes()
        gsf.write_bytes(bytes(data))
        code = cli.main(["render", str(gsf), str(tmp_path / "out.frm")])
        assert code == cli.EXIT_FORMAT

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "in.frm", "out.gsf", "--density", "2"],
            ["render", "in.gsf", "out.frm", "--normalization", "det"],
        ],
    )
    def test_enum_flags_accept_only_the_enum_values(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_enum_flags_parse_to_the_enums(self, tmp_path):
        target = FrameBuffer(np.random.default_rng(3).uniform(0.2, 0.8, (6, 8, 3)))
        frm = tmp_path / "t.frm"
        fileio.save_frm(frm, target)
        gsf = tmp_path / "t.gsf"
        argv = ["fit", str(frm), str(gsf), "--iterations", "0", "--density", "4"]
        assert cli.main(argv + ["--normalization", "sqrt-det"]) == 0
        assert fileio.load_gsf(gsf).density is Density.ONE_PER_FOUR_PIXELS

    @pytest.mark.parametrize(
        "doc",
        [
            "[1, 2]",
            '{"format": "gsw1", "entries": [1]}',
            '{"format": "gsw1", "entries": {"bank": 5}}',
            pytest.param(DEEP_DOC, id="deep-nesting"),
            pytest.param(LONG_INT_DOC, id="long-int"),
        ],
    )
    def test_malformed_bank_exit_code(self, tmp_path, doc):
        out_dir, args = self.interpolate_args(tmp_path, 8, 6)
        bank = tmp_path / "bank.json"
        bank.write_text(doc)
        for flag in ("--bank", "--weights"):
            code = cli.main(args + ["--timestamps", "0.5", flag, str(bank)])
            assert code == cli.EXIT_FORMAT

    def test_ppm_header_tokens(self, tmp_path):
        # Width 3 written with 5000 leading zeros fits; a width of 5000
        # digits fits in no file and is a format error, not a validation one.
        frm = tmp_path / "f.ppm"
        for width, code in ((b"0" * 5000 + b"3", 0), (b"9" * 5000, cli.EXIT_FORMAT)):
            frm.write_bytes(b"P6\n" + width + b" 2\n255\n" + bytes(range(18)))
            argv = ["fit", str(frm), str(tmp_path / "f.gsf"), "--iterations", "2"]
            assert cli.main(argv) == code

    def test_bank_that_is_not_utf8_exits_3(self, tmp_path):
        out_dir, args = self.interpolate_args(tmp_path, 8, 6)
        bank = tmp_path / "bank.json"
        fileio.save_bank(bank, cpb.default_bank())
        bank.write_bytes(bank.read_bytes()[:40] + b"\xc3\x28" + bank.read_bytes()[40:])
        code = cli.main(args + ["--timestamps", "0.5", "--bank", str(bank)])
        assert code == cli.EXIT_FORMAT

    def test_validation_error_exit_code(self, tmp_path):
        rng = np.random.default_rng(2)
        f = FrameBuffer(rng.uniform(0, 1, (6, 6, 3)))
        frm = tmp_path / "f.frm"
        fileio.save_frm(frm, f)
        gsf = tmp_path / "f.gsf"
        assert cli.main(["fit", str(frm), str(gsf), "--iterations", "5"]) == 0
        out = tmp_path / "out.frm"
        # Scale 0.5 is below the scale floor of 1.
        code = cli.main(["render", str(gsf), str(out), "--scale", "0.5"])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["fit", "render", "interpolate", "corr"])
    def test_a_missing_input_exits_2_naming_its_path(
        self, tmp_path, monkeypatch, capsys, command
    ):
        fits = []
        monkeypatch.setattr(fit_mod, "fit_frames", lambda *a: fits.append(a))
        monkeypatch.setattr(fit_mod, "fit_frame", lambda *a: fits.append(a))
        missing = str(tmp_path / "missing.frm")
        _, interp = self.interpolate_args(tmp_path, 8, 6)
        argv = {
            "fit": ["fit", missing, str(tmp_path / "out.gsf")],
            "render": ["render", missing, str(tmp_path / "out.ppm")],
            # Both frames exist; the flow m01 does not.
            "interpolate": [*interp[:3], missing, *interp[4:], "--timestamps", "0.5"],
            "corr": ["corr", interp[1], missing, "--output", str(tmp_path / "s.csv")],
        }[command]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert fits == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and missing in err[0]

    def test_corr_rejects_one_frame_before_fitting(self, tmp_path, monkeypatch):
        fits = []
        monkeypatch.setattr(fit_mod, "fit_frames", lambda *a: fits.append(a))
        monkeypatch.setattr(fit_mod, "fit_frame", lambda *a: fits.append(a))
        frm = tmp_path / "f.frm"
        fileio.save_frm(frm, FrameBuffer(np.full((6, 8, 3), 0.5)))
        argv = ["corr", str(frm), "--output", str(tmp_path / "s.csv")]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert fits == []

    @pytest.mark.parametrize("other", [(8, 6), (5, 5)])  # (h, w)
    def test_corr_rejects_frames_of_differing_size_before_fitting(
        self, tmp_path, monkeypatch, capsys, other
    ):
        # A 6x8 frame has the 8x6 frame's pixel count, so only the size
        # check tells them apart; a 5x5 frame used to be fitted first.
        fits = []
        monkeypatch.setattr(fit_mod, "fit_frames", lambda *a: fits.append(a))
        monkeypatch.setattr(fit_mod, "fit_frame", lambda *a: fits.append(a))
        paths = []
        for i, shape in enumerate([(6, 8), other]):
            paths.append(str(tmp_path / f"f{i}.frm"))
            fileio.save_frm(paths[-1], FrameBuffer(np.full(shape + (3,), 0.5)))
        argv = ["corr", *paths, "--output", str(tmp_path / "s.csv")]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert fits == []
        err = capsys.readouterr().err
        assert "8x6" in err and f"{other[1]}x{other[0]}" in err
        assert not (tmp_path / "s.csv").exists()

    def test_oracle_check_passes(self):
        assert cli.main(["oracle-check"]) == 0

    def test_oracle_check_reports_bank_candidates(self, capsys):
        assert cli.main(["oracle-check", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        line = next(x for x in lines if x.startswith("bank-candidates-vs-full"))
        assert float(line.split(":")[1]) <= 1e-12
        # Snapped queries at and next to ties, against the full difference.
        line = next(x for x in lines if x.startswith("snap-vs-full-difference"))
        mismatches, _, queries = line.split(":")[1].split()
        assert (int(mismatches), int(queries)) == (0, 2 * 11 * 320)
        solve = "color-solve-vs-projected-gradient"
        line = next(x for x in lines if x.startswith(solve))
        assert float(line.split(":")[1]) <= 1e-5
        assert lines[-1] == "oracle check: PASS"
