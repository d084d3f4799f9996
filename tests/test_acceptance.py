"""Acceptance suite: the eleven contract-level checks, one per test.

Each test prints a single PASS/FAIL line with the measured quantity so the
run log doubles as an acceptance report.
"""

import dataclasses
import time

import numpy as np
import pytest

from splatvid import fileio, pipeline, synth
from splatvid.core import Density, FlowField, FrameBuffer, FeatureMap
from splatvid.cpb import LogitField, default_bank, resample, softmax
from splatvid.fileio import FormatError
from splatvid.fit import FitConfig, ParamVector, fit_frame, gradients, loss
from splatvid.metrics import psnr_y, ssim_y, stability_report
from splatvid.motion import (
    WindowMap,
    WindowSet,
    apply_window,
    backward_warp,
    compute_window_map,
    fuse_features,
    scale_flows,
)
from splatvid.pipeline import PipelineOptions, build_shared_context, derive_field, render_at
from splatvid.raster import RenderConfig, render_dense, render_tiled, render_windows
from conftest import fields_equal, random_field
from test_fileio import f32_field
from test_metrics import SSIM_FIXTURE_ORACLE, ssim_fixture


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_rasterizer_oracle_equivalence():
    rng = np.random.default_rng(11)
    cfg = RenderConfig(scale=1.0, truncation_radius=6.0, clamp_output=False)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = random_field(rng, 8, 8)
        diff = np.abs(render_tiled(f, cfg).pixels - render_dense(f, cfg).pixels)
        worst = max(worst, float(diff.max()))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-5 and elapsed < 30.0,
        f"tiled-vs-dense max abs diff {worst:.3e} over 100 fields in {elapsed:.1f}s",
    )


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(12)
    cfg = FitConfig()
    eps = 1e-4
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(20):
        f = random_field(rng, 4, 4)
        target = FrameBuffer(rng.uniform(0, 1, (4, 4, 3)))
        g = gradients(f, target, cfg)
        theta = ParamVector.from_field(f).raw
        mid = loss(ParamVector(theta).to_field(f), target, cfg)[1]
        for i in range(theta.shape[0]):
            for j in range(theta.shape[1]):
                tp = theta.copy()
                tp[i, j] += eps
                tm = theta.copy()
                tm[i, j] -= eps
                lp = loss(ParamVector(tp).to_field(f), target, cfg)[1]
                lm = loss(ParamVector(tm).to_field(f), target, cfg)[1]
                fd = (lp - lm) / (2 * eps)
                rel = abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j]), 1e-8)
                if rel > 1e-3 and abs((lp - mid) + (lm - mid)) > 1e-6:
                    continue  # residual sign change inside the FD stencil
                worst = max(worst, rel)
                checked += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-3 and elapsed < 60.0,
        f"analytic-vs-FD max rel err {worst:.3e} over {checked} params in {elapsed:.1f}s",
    )


def test_criterion_03_exact_recovery():
    rng = np.random.default_rng(7)
    truth = random_field(
        rng,
        16,
        16,
        offset_range=(0.3, 0.7),
        sigma_range=(0.6, 1.0),
        rho_range=(-0.3, 0.3),
        color_range=(0.1, 0.9),
    )
    cfg = FitConfig(iterations=500)
    rcfg = cfg.render_config()
    target = FrameBuffer(np.clip(render_windows(truth, rcfg).pixels, 0.0, 1.0))
    t0 = time.perf_counter()
    fitted = fit_frame(target, Density.ONE_PER_PIXEL, cfg)
    elapsed = time.perf_counter() - t0
    recon = FrameBuffer(np.clip(render_windows(fitted, rcfg).pixels, 0.0, 1.0))
    psnr = psnr_y(recon, target)
    report(
        3,
        psnr >= 50.0 and elapsed < 120.0,
        f"recovery PSNR {psnr:.2f} dB after 500 iterations in {elapsed:.1f}s",
    )


def test_criterion_04_cpb_manifold_anchoring():
    rng = np.random.default_rng(13)
    bank = default_bank()
    lo = bank.params.min(axis=0)
    hi = bank.params.max(axis=0)
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        logits = rng.normal(0, 15, (2, 2, bank.size))
        w = softmax(logits, axis=-1)
        out = resample(LogitField(logits), bank).params
        ok &= bool(np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12))
        ok &= bool(np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-9)
    elapsed = time.perf_counter() - t0
    report(
        4,
        ok and elapsed < 10.0,
        f"1000 resampled fields inside bank hull, weight sums within 1e-9, {elapsed:.1f}s",
    )


def test_criterion_05_motion_endpoint_identities():
    rng = np.random.default_rng(14)
    f0 = FeatureMap(rng.uniform(0, 1, (6, 8, 5)))
    f1 = FeatureMap(rng.uniform(0, 1, (6, 8, 5)))
    m01 = FlowField(rng.normal(0, 4, (6, 8, 2)))
    m10 = FlowField(rng.normal(0, 4, (6, 8, 2)))
    mt0_a = scale_flows(m01, m10, 0.0)
    mt1_b = scale_flows(m10, m01, 0.0)  # m_t1 = (1 - t) * m01 at t = 1
    ok = np.array_equal(backward_warp(f0, mt0_a).data, f0.data)
    ok &= np.array_equal(backward_warp(f1, mt1_b).data, f1.data)
    ones = FeatureMap(np.ones((6, 8, 1)))
    zeros = FeatureMap(np.zeros((6, 8, 1)))
    no_res = FeatureMap(np.zeros((6, 8, 5)))
    ok &= np.array_equal(fuse_features(f0, f1, ones, no_res).data, f0.data)
    ok &= np.array_equal(fuse_features(f0, f1, zeros, no_res).data, f1.data)
    report(5, bool(ok), "t=0/t=1 warps and mask-1/mask-0 fusions bit-exact")


def test_criterion_06_aow_range_law():
    rng = np.random.default_rng(15)
    s = WindowSet()
    ok = True
    for scale in (1.0, 10.0, 100.0):
        logits = rng.normal(0, scale, (4, 4, 10))
        wm = compute_window_map(LogitField(logits), s)
        ok &= bool(np.all(wm.values >= 1.0) and np.all(wm.values <= 10.0))
    offsets = rng.uniform(0, 1, (4, 4, 2))
    gated = apply_window(offsets, WindowMap(np.ones((4, 4))))
    ok &= bool(np.all(gated >= 0.0) and np.all(gated <= 1.0))
    report(6, ok, "window map within [1,10]; unit window keeps offsets in [0,1]")


def test_criterion_07_translation_tracking():
    frame0, frame1, m01, m10 = synth.translating_blob_pair(48, 32, (8.0, 0.0), radius=2.5)
    opts = PipelineOptions(
        fit=FitConfig(iterations=150, truncation_radius=4.0), refine_iterations=50
    )
    scale = 2.0
    ctx = build_shared_context(frame0, frame1, (m01, m10), opts)
    c0 = ((48 - 8.0) / 2.0, 16.0)
    expected = ((c0[0] + 4.0 + 0.5) * scale - 0.5, (c0[1] + 0.5) * scale - 0.5)

    def center_error(aow: bool) -> float:
        local = dataclasses.replace(
            ctx, options=dataclasses.replace(opts, aow=aow)
        )
        out = render_at(local, derive_field(local, 0.5), scale)
        cx, cy = synth.centroid(out)
        return float(np.hypot(cx - expected[0], cy - expected[1]))

    err_on = center_error(True)
    err_off = center_error(False)
    report(
        7,
        err_on <= 1.0 and err_off > 1.0,
        f"midpoint center error {err_on:.2f} px with AOW, {err_off:.2f} px without",
    )


def test_criterion_08_covariance_temporal_stability():
    base = synth.ridge_texture(48, 32, seed=5)
    frames = synth.rolled_sequence(base, 8, step=3)
    cfg = FitConfig(iterations=150, truncation_radius=4.0)
    t0 = time.perf_counter()
    fields = [fit_frame(f, Density.ONE_PER_PIXEL, cfg) for f in frames]
    r = stability_report(frames, fields)
    elapsed = time.perf_counter() - t0
    ok = all(
        r.cov_pearson[g] > r.pixel_pearson[g] and r.cov_cosine[g] > r.pixel_cosine[g]
        for g in range(2, 8)
    )
    worst_gap = min(
        min(r.cov_pearson[g] - r.pixel_pearson[g], r.cov_cosine[g] - r.pixel_cosine[g])
        for g in range(2, 8)
    )
    report(
        8,
        ok and elapsed < 300.0,
        f"covariance beats pixel correlation at every gap >= 2 "
        f"(min margin {worst_gap:.3f}) in {elapsed:.1f}s",
    )


def test_criterion_09_near_constant_latency(tmp_path):
    records = pipeline.run_bench((180, 120), 4.0, [2, 4, 8, 16, 32], repeats=3)
    csv_path = tmp_path / "bench.csv"
    fileio.save_bench_csv(csv_path, records)
    header_ok = csv_path.read_text().splitlines()[0] == (
        "temporal_scale,spatial_scale,shared_ms,per_frame_ms_mean,total_ms,runs"
    )
    by_scale = {r.temporal_scale: r for r in records}
    ratio = by_scale[32].per_frame_ms_mean / by_scale[2].per_frame_ms_mean
    # Stage counters are asserted inside run_bench on every repeat.
    report(
        9,
        header_ok and 0.5 <= ratio <= 2.0,
        f"per-frame x32/x2 time ratio {ratio:.2f} (shared counters exact); "
        f"per-frame means "
        + ", ".join(f"x{n}={by_scale[n].per_frame_ms_mean:.0f}ms" for n in (2, 32)),
    )


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(16)
    ok = True
    for i in range(40):
        density = Density.ONE_PER_PIXEL if i % 2 else Density.ONE_PER_FOUR_PIXELS
        f = f32_field(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)), density)
        p = tmp_path / "f.gsf"
        fileio.save_gsf(p, f)
        ok &= fields_equal(f, fileio.load_gsf(p))
    for _ in range(20):
        vec = rng.normal(0, 5, (4, 5, 2)).astype(np.float32).astype(np.float64)
        p = tmp_path / "f.flo"
        fileio.save_flo(p, FlowField(vec))
        ok &= np.array_equal(fileio.load_flo(p).vectors, vec)
    for _ in range(20):
        px = rng.uniform(0, 1, (4, 5, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "f.frm"
        fileio.save_frm(p, FrameBuffer(px))
        ok &= np.array_equal(fileio.load_frm(p).pixels, px)
    for _ in range(20):
        entries = {"w": rng.normal(0, 1, (3, 2)), "b": rng.normal(0, 1, 4)}
        p = tmp_path / "w.json"
        fileio.save_weights(p, entries)
        back = fileio.load_weights(p)
        ok &= all(np.array_equal(back[k], entries[k]) for k in entries)

    errors = 0
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXXXXXXXXXXXXXX")
    for loader in (fileio.load_gsf, fileio.load_flo, fileio.load_frm):
        with pytest.raises(FormatError):
            loader(bad)
        errors += 1
    f = f32_field(rng, 4, 4)
    p = tmp_path / "trunc.gsf"
    fileio.save_gsf(p, f)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(FormatError):
        fileio.load_gsf(p)
    errors += 1
    report(
        10,
        ok and errors == 4,
        "100 random objects round-trip bit-exactly; corrupted files raise format errors",
    )


def test_criterion_11_metric_fixtures():
    a = FrameBuffer(np.full((16, 16, 3), 0.5))
    b = FrameBuffer(np.full((16, 16, 3), 0.6))
    c = FrameBuffer(np.full((16, 16, 3), 0.51))
    ok = abs(psnr_y(a, b) - 20.0) <= 1e-9
    ok &= abs(psnr_y(a, c) - 40.0) <= 1e-9
    ok &= abs(ssim_y(a, a) - 1.0) <= 1e-12
    fa, fb = ssim_fixture()
    err = abs(ssim_y(fa, fb) - SSIM_FIXTURE_ORACLE)
    ok &= err <= 1e-6
    report(
        11,
        bool(ok),
        f"PSNR fixtures exact; SSIM fixture within {err:.2e} of the high-precision value",
    )
