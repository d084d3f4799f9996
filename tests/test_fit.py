"""Fitting: initialization, loss, analytic gradients, Adam descent."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splatvid.core import Density, FrameBuffer, SIGMA_MIN, ShapeError, validate_field
from splatvid.fit import (
    FitConfig,
    ParamVector,
    _field_gradient,
    _luma_spectrum,
    _pixel_weight_freq,
    _pixel_weight_l1,
    fit_frame,
    gradients,
    init_field,
    loss,
)
from splatvid.metrics import LUMA_WEIGHTS
from splatvid.raster import Normalization, render_windows
from conftest import random_field


class TestFitConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FitConfig(iterations=-1).validate()
        with pytest.raises(ValueError):
            FitConfig(learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            FitConfig(freq_loss_weight=-0.1).validate()

    def test_default_scale_follows_density(self):
        cfg = FitConfig()
        assert cfg.effective_scale(Density.ONE_PER_PIXEL) == 1.0
        assert cfg.effective_scale(Density.ONE_PER_FOUR_PIXELS) == 2.0


class TestInitField:
    def test_uniform_gray(self):
        target = FrameBuffer(np.full((3, 3, 3), 0.5))
        f = init_field(target, Density.ONE_PER_PIXEL)
        assert np.allclose(f.colors, 0.5)
        assert np.allclose(f.offsets, 0.5)
        assert np.allclose(f.sigmas, 0.7) and np.allclose(f.rhos, 0.0)

    def test_one_per_pixel_colors_match_target(self):
        checker = np.indices((2, 2)).sum(axis=0) % 2
        target = FrameBuffer(np.repeat(checker[..., None], 3, axis=2).astype(float))
        f = init_field(target, Density.ONE_PER_PIXEL)
        assert np.array_equal(f.colors, target.pixels.reshape(-1, 3))

    def test_quarter_density_block_means(self):
        rng = np.random.default_rng(0)
        target = FrameBuffer(rng.uniform(0, 1, (4, 4, 3)))
        f = init_field(target, Density.ONE_PER_FOUR_PIXELS)
        assert f.grid_shape == (2, 2)
        ref = target.pixels.reshape(2, 2, 2, 2, 3).mean(axis=(1, 3)).reshape(4, 3)
        assert np.allclose(f.colors, ref, atol=1e-15)

    def test_gain_correction_brings_render_near_target(self):
        target = FrameBuffer(np.full((6, 6, 3), 0.5))
        cfg = FitConfig()
        raw = init_field(target, Density.ONE_PER_PIXEL)
        corrected = init_field(
            target, Density.ONE_PER_PIXEL, cfg.render_config(Density.ONE_PER_PIXEL)
        )
        rcfg = cfg.render_config(Density.ONE_PER_PIXEL)
        err_raw = np.abs(render_windows(raw, rcfg).pixels - 0.5).mean()
        err_corr = np.abs(render_windows(corrected, rcfg).pixels - 0.5).mean()
        assert err_corr < err_raw


class TestLoss:
    def test_exact_render_zero_loss(self):
        f = random_field(np.random.default_rng(1), 6, 6)
        cfg = FitConfig()
        target = FrameBuffer(render_windows(f, cfg.render_config(f.density)).pixels)
        total, l1, freq = loss(f, target, cfg)
        assert total == 0.0 and l1 == 0.0 and freq == 0.0

    def test_constant_offset(self):
        f = random_field(np.random.default_rng(2), 6, 6, color_range=(0.2, 0.8))
        cfg = FitConfig()
        rendered = render_windows(f, cfg.render_config(f.density)).pixels
        target = FrameBuffer(rendered - 0.1)
        total, l1, freq = loss(f, target, cfg)
        assert l1 == pytest.approx(0.1, abs=1e-12)
        # The spectral difference lives only in the zero-frequency bin.
        d = np.abs(
            np.abs(np.fft.fft2(rendered @ LUMA_WEIGHTS))
            - np.abs(np.fft.fft2(target.pixels @ LUMA_WEIGHTS))
        )
        assert d[0, 0] > 1e-6
        d[0, 0] = 0.0
        assert d.max() <= 1e-9
        assert total == pytest.approx(l1 + cfg.freq_loss_weight * freq, abs=1e-12)

    def test_against_naive_dft_oracle(self):
        rng = np.random.default_rng(3)
        f = random_field(rng, 8, 8)
        cfg = FitConfig()
        target = FrameBuffer(rng.uniform(0, 1, (8, 8, 3)))
        total, l1, freq = loss(f, target, cfg)
        rendered = render_windows(f, cfg.render_config(f.density)).pixels
        # Independent oracle: mean-abs + O(N^4) direct DFT of the luma planes.
        assert l1 == pytest.approx(np.abs(rendered - target.pixels).mean(), abs=1e-12)
        def naive_spectrum(img):
            y = img @ LUMA_WEIGHTS
            h, w = y.shape
            out = np.zeros((h, w))
            for u in range(h):
                for v in range(w):
                    acc = 0.0 + 0.0j
                    for yy in range(h):
                        for xx in range(w):
                            acc += y[yy, xx] * np.exp(
                                -2j * np.pi * (u * yy / h + v * xx / w)
                            )
                    out[u, v] = abs(acc)
            return out
        ref = np.abs(
            naive_spectrum(rendered) - naive_spectrum(target.pixels)
        ).mean()
        assert freq == pytest.approx(ref, rel=1e-9, abs=1e-9)


def fd_worst(rng, cfg, w, h, density=Density.ONE_PER_PIXEL, total=False):
    """Worst relative error of the analytic gradient against central FD.

    Differentiates the L1 term, or with total=True the full loss including
    the weighted spectral term.  Parameters whose FD stencil straddles a
    kink of the loss are skipped; most must be checked.
    """
    eps = 1e-4
    col = 0 if total else 1
    worst = 0.0
    checked = skipped = 0
    for _ in range(3):
        f = random_field(rng, w, h, density)
        rcfg = cfg.render_config(density)
        rendered = render_windows(f, rcfg).pixels
        target = FrameBuffer(rng.uniform(0, 1, rendered.shape))
        weight = _pixel_weight_l1(rendered, target.pixels)
        if total:
            weight = weight + cfg.freq_loss_weight * _pixel_weight_freq(
                rendered, _luma_spectrum(target.pixels)
            )
        g = _field_gradient(f, weight, cfg)
        theta = ParamVector.from_field(f).raw
        mid = loss(ParamVector(theta).to_field(f), target, cfg)[col]
        for i in range(theta.shape[0]):
            for j in range(theta.shape[1]):
                tp = theta.copy()
                tp[i, j] += eps
                tm = theta.copy()
                tm[i, j] -= eps
                lp = loss(ParamVector(tp).to_field(f), target, cfg)[col]
                lm = loss(ParamVector(tm).to_field(f), target, cfg)[col]
                fd = (lp - lm) / (2 * eps)
                # Skip parameters straddling a kink.
                if abs(fd - g[i, j]) > 1e-3 * max(abs(fd), abs(g[i, j])):
                    if abs((lp - mid) + (lm - mid)) > 1e-6:
                        skipped += 1
                        continue
                checked += 1
                denom = max(abs(fd), abs(g[i, j]), 1e-8)
                worst = max(worst, abs(fd - g[i, j]) / denom)
    assert checked >= 4 * skipped, (checked, skipped)
    return worst


class TestGradients:
    def test_exact_recovery_zero_gradient(self):
        f = random_field(np.random.default_rng(4), 4, 4)
        cfg = FitConfig()
        target = FrameBuffer(render_windows(f, cfg.render_config(f.density)).pixels)
        assert np.array_equal(gradients(f, target, cfg), np.zeros((16, 8)))

    def test_position_gradient_sign(self):
        # Pull target brightness to the right of the kernel: moving the kernel
        # right must decrease the loss, so the u_x gradient is negative.
        f = random_field(
            np.random.default_rng(5), 5, 5, color_range=(0.0, 0.0)
        )
        colors = f.colors.copy()
        colors[12] = [1.0, 1.0, 1.0]
        f = f.replace(
            colors=colors,
            offsets=np.full((25, 2), 0.5),
            sigmas=np.full((25, 2), 0.7),
            rhos=np.zeros(25),
        )
        cfg = FitConfig()
        base = render_windows(f, cfg.render_config(f.density)).pixels
        target = FrameBuffer(np.roll(base, 1, axis=1))
        g = gradients(f, target, cfg)
        eps = 1e-4
        theta = ParamVector.from_field(f).raw
        tp = theta.copy()
        tp[12, 0] += eps
        tm = theta.copy()
        tm[12, 0] -= eps
        fd = (
            loss(ParamVector(tp).to_field(f), target, cfg)[1]
            - loss(ParamVector(tm).to_field(f), target, cfg)[1]
        ) / (2 * eps)
        assert np.sign(g[12, 0]) == np.sign(fd) != 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        cfg = FitConfig()
        eps = 1e-4
        worst = 0.0
        for _ in range(3):
            f = random_field(rng, 4, 4)
            target = FrameBuffer(rng.uniform(0, 1, (4, 4, 3)))
            g = gradients(f, target, cfg)
            theta = ParamVector.from_field(f).raw
            for i in range(theta.shape[0]):
                for j in range(theta.shape[1]):
                    tp = theta.copy()
                    tp[i, j] += eps
                    tm = theta.copy()
                    tm[i, j] -= eps
                    lp = loss(ParamVector(tp).to_field(f), target, cfg)[1]
                    lm = loss(ParamVector(tm).to_field(f), target, cfg)[1]
                    fd = (lp - lm) / (2 * eps)
                    # Skip parameters straddling an L1 kink.
                    if abs(fd - g[i, j]) > 1e-3 * max(abs(fd), abs(g[i, j])):
                        mid = loss(ParamVector(theta).to_field(f), target, cfg)[1]
                        if abs((lp - mid) + (lm - mid)) > 1e-6:
                            continue
                    denom = max(abs(fd), abs(g[i, j]), 1e-8)
                    worst = max(worst, abs(fd - g[i, j]) / denom)
        assert worst <= 1e-3

    def test_matches_finite_differences_sqrt_det(self):
        rng = np.random.default_rng(13)
        cfg = FitConfig(normalization=Normalization.SQRT_DET)
        assert fd_worst(rng, cfg, 4, 4) <= 1e-3

    def test_matches_finite_differences_quarter_density(self):
        # 1:4 density fits at scale 2: an 8x8 frame of 4x4 kernels.
        rng = np.random.default_rng(14)
        assert fd_worst(rng, FitConfig(), 8, 8, Density.ONE_PER_FOUR_PIXELS) <= 1e-3

    def test_matches_finite_differences_with_freq_term(self):
        rng = np.random.default_rng(15)
        cfg = FitConfig(freq_in_gradient=True)
        assert fd_worst(rng, cfg, 4, 4, total=True) <= 1e-3

    def test_matches_finite_differences_fractional_scale(self):
        # Scale 2.5 and radius 3: truncation steps are skipped like L1 kinks.
        rng = np.random.default_rng(16)
        cfg = FitConfig(scale=2.5, truncation_radius=3.0)
        assert fd_worst(rng, cfg, 4, 4) <= 1e-3


class TestParamVector:
    def test_round_trip(self):
        f = random_field(np.random.default_rng(7), 4, 4)
        back = ParamVector.from_field(f).to_field(f)
        assert np.allclose(back.offsets, f.offsets, atol=1e-9)
        assert np.allclose(back.sigmas, f.sigmas, atol=1e-9)
        assert np.allclose(back.rhos, f.rhos, atol=1e-9)
        assert np.allclose(back.colors, f.colors, atol=1e-9)

    def test_reparameterization_soundness_bulk(self):
        rng = np.random.default_rng(8)
        template = random_field(rng, 4, 4)
        raw = rng.normal(0, 20, (100_000, 8))
        # Full-object spot check on a handful of 16-row slices...
        for start in range(0, raw.shape[0], 10_000):
            f = ParamVector(raw[start : start + 16]).to_field(template)
            assert validate_field(f) == []
        # ...plus a vectorized invariant check over all 1e5 rows.
        offsets = 1.0 / (1.0 + np.exp(-raw[:, 0:2]))
        sigmas = np.logaddexp(0.0, raw[:, 2:4]) + SIGMA_MIN
        rhos = np.tanh(raw[:, 4])
        assert np.all((offsets >= 0) & (offsets <= 1))
        assert np.all(sigmas >= SIGMA_MIN)
        assert np.all(np.abs(rhos) <= 1.0)

    @settings(max_examples=100, deadline=None)
    @given(row=arrays(np.float64, (8,), elements=st.floats(-50, 50, allow_nan=False)))
    def test_any_row_maps_to_valid_field(self, row):
        template = random_field(np.random.default_rng(9), 1, 1)
        f = ParamVector(row[None, :]).to_field(template)
        assert validate_field(f) == []


class TestFitFrame:
    def test_zero_iterations_returns_init(self):
        target = FrameBuffer(np.full((4, 4, 3), 0.4))
        cfg = FitConfig(iterations=0)
        f, trace = fit_frame(target, Density.ONE_PER_PIXEL, cfg)
        assert trace == []
        ref = init_field(
            target, Density.ONE_PER_PIXEL, cfg.render_config(Density.ONE_PER_PIXEL)
        )
        assert np.array_equal(f.colors, ref.colors)

    def test_descent_on_uniform_target(self):
        target = FrameBuffer(np.full((6, 6, 3), 0.5))
        cfg = FitConfig(iterations=40)
        f, trace = fit_frame(target, Density.ONE_PER_PIXEL, cfg)
        init = init_field(
            target, Density.ONE_PER_PIXEL, cfg.render_config(Density.ONE_PER_PIXEL)
        )
        l1_init = loss(init, target, cfg)[1]
        l1_final = loss(f, target, cfg)[1]
        assert l1_final <= l1_init
        assert len(trace) == 40

    @pytest.mark.parametrize(
        "cfg",
        [FitConfig(iterations=6), FitConfig(iterations=6, freq_in_gradient=True)],
    )
    def test_trace_matches_recomputed_loss(self, cfg):
        # Step k of a longer run is the whole of a k-step run, so entry k-1
        # of the trace must be loss() of the k-step field, bit for bit.
        rng = np.random.default_rng(11)
        target = FrameBuffer(rng.uniform(0, 1, (5, 6, 3)))
        _, trace = fit_frame(target, Density.ONE_PER_PIXEL, cfg)
        assert len(trace) == cfg.iterations
        for k in range(1, cfg.iterations + 1):
            short = dataclasses.replace(cfg, iterations=k)
            f_k, _ = fit_frame(target, Density.ONE_PER_PIXEL, short)
            assert trace[k - 1] == loss(f_k, target, cfg)[0]

    @pytest.mark.parametrize(
        "shape, name", [((3, 5), "height"), ((1, 4), "height"), ((4, 1), "width")]
    )
    def test_quarter_density_rejects_odd_or_unit_dimension(self, shape, name):
        target = FrameBuffer(np.full(shape + (3,), 0.5))
        with pytest.raises(ShapeError, match=f"target {name} is .* to be even"):
            fit_frame(target, Density.ONE_PER_FOUR_PIXELS, FitConfig(iterations=1))

    def test_quarter_density_even_target_fits(self):
        target = FrameBuffer(np.random.default_rng(3).uniform(0, 1, (4, 6, 3)))
        cfg = FitConfig(iterations=2)
        f, trace = fit_frame(target, Density.ONE_PER_FOUR_PIXELS, cfg)
        assert (f.lr_width, f.lr_height) == (3, 2)
        assert f.grid_shape == (2, 1)
        assert len(trace) == 2 and np.all(np.isfinite(trace))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        target = FrameBuffer(rng.uniform(0, 1, (6, 6, 3)))
        cfg = FitConfig(iterations=15)
        fa, ta = fit_frame(target, Density.ONE_PER_PIXEL, cfg)
        fb, tb = fit_frame(target, Density.ONE_PER_PIXEL, cfg)
        assert np.array_equal(fa.offsets, fb.offsets)
        assert np.array_equal(fa.colors, fb.colors)
        assert ta == tb
