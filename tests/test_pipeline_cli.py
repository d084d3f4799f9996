"""Shared-context pipeline structure, benchmarking, and the CLI front end."""

import dataclasses

import numpy as np
import pytest

from splatvid import cli, cpb, fileio, motion, nnops, pipeline, synth
from splatvid.core import Density, FrameBuffer, ValidationError
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
from splatvid.raster import RenderConfig, render_tiled

FAST_OPTS = PipelineOptions(
    fit=FitConfig(iterations=60, truncation_radius=4.0), refine_iterations=20
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
        with pytest.raises(ValidationError):
            interpolate(frame, frame, (zero, zero), [0.5], 1.0, quarter)

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
        logits = cpb.fuse(ctx.cov0, ctx.cov1, t, ctx.fuser)
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
        frame0, frame1, flows = self.blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, self.OPTS)
        assert ctx.cov_t is not None  # the baseline fuser ignores t
        timestamps = [0.0, 0.3, 1.0]
        for t, f in zip(timestamps, self.derive_and_render(ctx, timestamps)):
            ref = self.reference_cov(ctx, t)
            assert np.array_equal(f.sigmas, ref[:, 0:2])
            assert np.array_equal(f.rhos, ref[:, 2])

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


    @pytest.mark.parametrize("convention", list(motion.FlowConvention))
    def test_offsets_match_scaling_both_flows(self, monkeypatch, convention):
        # derive_field scales only m_t0; the offsets must equal those derived
        # from the m_t0 half of scale_flows, as before.
        opts = dataclasses.replace(self.OPTS, flow_convention=convention)
        frame0, frame1, flows = self.blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, opts)
        timestamps = [0.0, 0.3, 1.0]
        fields = [derive_field(ctx, t) for t in timestamps]
        monkeypatch.setattr(
            motion, "scale_flow_t0", lambda *args: motion.scale_flows(*args)[0]
        )
        for t, f in zip(timestamps, fields):
            assert np.array_equal(f.offsets, derive_field(ctx, t).offsets)
        assert np.abs(fields[2].offsets - fields[1].offsets).max() > 0.1


class TestBankCandidatesDerive:
    """A t-dependent fuser derives covariances from the context's per-cell
    bank candidates: no bank conv, fuse or K-wide resample per frame."""

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
        frame0, frame1, flows = TestDeriveCache().blob_pair()
        ctx = build_shared_context(frame0, frame1, flows, self.t_dependent_options())
        timestamps = [0.0, 0.25, 0.5, 1.0]
        refs = [TestDeriveCache().reference_cov(ctx, t) for t in timestamps]

        def forbidden(*args, **kwargs):
            raise AssertionError("per-frame bank fuse, resample or conv")

        for mod, name in [
            (cpb, "fuse"),
            (cpb, "resample"),
            (cpb, "conv2d"),
            (nnops, "conv2d"),
        ]:
            monkeypatch.setattr(mod, name, forbidden)
        fields = TestDeriveCache().derive_and_render(ctx, timestamps)
        for f, ref in zip(fields, refs):
            assert np.abs(f.sigmas - ref[:, 0:2]).max() <= 1e-12
            assert np.abs(f.rhos - ref[:, 2]).max() <= 1e-12
        assert np.abs(fields[0].sigmas - fields[3].sigmas).max() > 1e-6


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

    def test_interpolate_writes_frames(self, tmp_path):
        frame0, frame1, m01, m10 = synth.translating_blob_pair(12, 10, (2.0, 0.0))
        p0, p1 = tmp_path / "f0.frm", tmp_path / "f1.frm"
        fileio.save_frm(p0, frame0)
        fileio.save_frm(p1, frame1)
        fl01, fl10 = tmp_path / "m01.flo", tmp_path / "m10.flo"
        fileio.save_flo(fl01, m01)
        fileio.save_flo(fl10, m10)
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "interpolate",
                str(p0), str(p1), str(fl01), str(fl10), str(out_dir),
                "--timestamps", "0.25,0.75",
                "--scale", "2",
                "--iterations", "30",
                "--format", "frm",
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "t0.2500.frm",
            "t0.7500.frm",
        ]

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

    def test_format_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.gsf"
        bad.write_bytes(b"JUNKJUNKJUNK")
        out = tmp_path / "out.frm"
        assert cli.main(["render", str(bad), str(out)]) == cli.EXIT_FORMAT

    def test_validation_error_exit_code(self, tmp_path):
        rng = np.random.default_rng(2)
        f = FrameBuffer(rng.uniform(0, 1, (6, 6, 3)))
        frm = tmp_path / "f.frm"
        fileio.save_frm(frm, f)
        gsf = tmp_path / "f.gsf"
        assert cli.main(["fit", str(frm), str(gsf), "--iterations", "5"]) == 0
        out = tmp_path / "out.frm"
        # Scale 0.5 is below the per-pixel density floor of 1.
        code = cli.main(["render", str(gsf), str(out), "--scale", "0.5"])
        assert code == cli.EXIT_VALIDATION

    def test_oracle_check_passes(self):
        assert cli.main(["oracle-check"]) == 0

    def test_oracle_check_reports_bank_candidates(self, capsys):
        assert cli.main(["oracle-check", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        line = next(x for x in lines if x.startswith("bank-candidates-vs-full"))
        assert float(line.split(":")[1]) <= 1e-12
        assert lines[-1] == "oracle check: PASS"
