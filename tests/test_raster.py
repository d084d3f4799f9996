"""Rasterizer: kernel evaluation, dense oracle, truncated fast paths."""

import math

import numpy as np
import pytest

from splatvid import raster
from splatvid.core import (
    CovParams,
    Density,
    FrameBuffer,
    Gaussian2D,
    GaussianField,
    ValidationError,
)
from splatvid.fit import FitConfig, _field_gradient
from splatvid.raster import (
    Normalization,
    RenderConfig,
    eval_gaussian,
    output_shape,
    render_dense,
    render_tiled,
    render_windows,
)
from conftest import random_field

CFG1 = RenderConfig(scale=1.0, clamp_output=False)

# Reference value of one kernel weight, frozen from an independent 50-digit
# arbitrary-precision evaluation before the implementation was written.
# Kernel: anchor (2,1), offset (0.25,0.75), cov (1.2,0.8,0.3), scale 1.5,
# query point (4,3).  Exponent q = 0.09830543684710351.
ORACLE_W_PAPER_DET = 0.03568818673446432
ORACLE_W_SQRT_DET = 0.07353581836354646


def unit_gaussian(color=(1.0, 0.0, 0.0)) -> Gaussian2D:
    return Gaussian2D(
        anchor=(0, 0),
        offset=np.array([0.5, 0.5]),
        cov=CovParams(1.0, 1.0, 0.0),
        color=np.array(color),
    )


def naive_render(f: GaussianField, cfg: RenderConfig) -> np.ndarray:
    """Independent brute-force oracle: plain python loops, no truncation."""
    out_w, out_h = output_shape(f.lr_width, f.lr_height, cfg.scale)
    img = np.zeros((out_h, out_w, 3))
    for i in range(f.n_gaussians):
        g = f.gaussian(i)
        for y in range(out_h):
            for x in range(out_w):
                img[y, x] += eval_gaussian(g, x + 0.5, y + 0.5, cfg, f.density)
    if cfg.clamp_output:
        img = np.clip(img, 0.0, 1.0)
    return img


class TestEvalGaussian:
    def test_value_at_center(self):
        g = unit_gaussian()
        v = eval_gaussian(g, 1.0, 1.0, CFG1)  # center is anchor (0.5,0.5)+offset
        assert v == pytest.approx([1.0 / (2 * math.pi), 0.0, 0.0], abs=1e-12)

    def test_value_one_pixel_off(self):
        g = unit_gaussian()
        v = eval_gaussian(g, 2.0, 1.0, CFG1)
        assert v[0] == pytest.approx(math.exp(-0.5) / (2 * math.pi), abs=1e-12)

    @pytest.mark.parametrize(
        "normalization,expected",
        [
            (Normalization.PAPER_DET, ORACLE_W_PAPER_DET),
            (Normalization.SQRT_DET, ORACLE_W_SQRT_DET),
        ],
    )
    def test_frozen_high_precision_oracle(self, normalization, expected):
        g = Gaussian2D(
            anchor=(2, 1),
            offset=np.array([0.25, 0.75]),
            cov=CovParams(1.2, 0.8, 0.3),
            color=np.array([1.0, 0.5, 0.25]),
        )
        cfg = RenderConfig(scale=1.5, normalization=normalization, clamp_output=False)
        v = eval_gaussian(g, 4.0, 3.0, cfg)
        assert v == pytest.approx(np.array([1.0, 0.5, 0.25]) * expected, rel=1e-14)


class TestRenderDense:
    def test_zero_colors_zero_output(self):
        f = random_field(np.random.default_rng(0), 4, 4, color_range=(0.0, 0.0))
        assert np.array_equal(render_dense(f, CFG1).pixels, np.zeros((4, 4, 3)))

    def test_single_kernel_matches_eval(self):
        rng = np.random.default_rng(1)
        f = random_field(rng, 4, 4, color_range=(0.0, 0.0))
        colors = f.colors.copy()
        colors[5] = [0.8, 0.4, 0.2]
        f = f.replace(colors=colors)
        cfg = RenderConfig(scale=2.0, clamp_output=False)
        img = render_dense(f, cfg)
        assert img.pixels.shape == (8, 8, 3)
        g = f.gaussian(5)
        x, y = 3, 4
        assert np.allclose(
            img.pixels[y, x], eval_gaussian(g, x + 0.5, y + 0.5, cfg), atol=1e-12
        )

    def test_against_naive_loop_oracle(self):
        f = random_field(np.random.default_rng(2), 2, 2)
        cfg = RenderConfig(scale=2.0, clamp_output=False)
        assert np.allclose(render_dense(f, cfg).pixels, naive_render(f, cfg), atol=1e-12)

    def test_scale_floor_enforced(self):
        # The floor is scale 1 at every density, where a field renders at its
        # LR size.
        for density in Density:
            f = random_field(np.random.default_rng(3), 5, 3, density)
            for render in (render_dense, render_windows):
                with pytest.raises(ValidationError):
                    render(f, RenderConfig(scale=0.5))
                assert render(f, RenderConfig(scale=1.0)).pixels.shape == (3, 5, 3)


class TestTruncatedPaths:
    def test_tiled_matches_dense_radius6(self):
        rng = np.random.default_rng(4)
        cfg = RenderConfig(scale=1.0, truncation_radius=6.0, clamp_output=False)
        for _ in range(10):
            f = random_field(rng, 8, 8)
            diff = np.abs(render_tiled(f, cfg).pixels - render_dense(f, cfg).pixels)
            assert diff.max() <= 1e-5

    def test_render_tiled_is_the_windowed_render(self):
        rng = np.random.default_rng(5)
        for scale in (1.0, 2.0, 2.5):
            cfg = RenderConfig(scale=scale, truncation_radius=4.0, clamp_output=False)
            for _ in range(5):
                f = random_field(rng, 7, 5)
                a = render_tiled(f, cfg).pixels
                b = render_windows(f, cfg).pixels
                assert np.array_equal(a, b)

    def test_zero_colors(self):
        f = random_field(np.random.default_rng(6), 4, 4, color_range=(0.0, 0.0))
        assert np.array_equal(render_tiled(f, CFG1).pixels, np.zeros((4, 4, 3)))

    def test_truncation_cuts_far_pixels(self):
        # Single isotropic kernel, radius 3: pixels beyond 3*sigma*s are 0.
        f = random_field(np.random.default_rng(7), 9, 9, color_range=(0.0, 0.0))
        colors = f.colors.copy()
        colors[40] = [1.0, 1.0, 1.0]  # center cell of the 9x9 grid
        sigmas = np.full_like(f.sigmas, 0.8)
        f = f.replace(
            colors=colors,
            sigmas=sigmas,
            rhos=np.zeros(81),
            offsets=np.full((81, 2), 0.5),
        )
        cfg = RenderConfig(scale=1.0, truncation_radius=3.0, clamp_output=False)
        img = render_tiled(f, cfg).pixels
        mu = f.gaussian(40).center()  # (5.0, 5.0)
        ys, xs = np.mgrid[0:9, 0:9]
        dist = np.hypot(xs + 0.5 - mu[0], ys + 0.5 - mu[1])
        assert np.all(img[dist > 3 * 0.8] == 0.0)
        assert img[int(mu[1]), int(mu[0]), 0] > 0.0


class TestRenderProperties:
    def test_color_linearity(self):
        rng = np.random.default_rng(8)
        f = random_field(rng, 6, 6)
        cfg = RenderConfig(scale=1.0, truncation_radius=5.0, clamp_output=False)
        base = render_tiled(f, cfg).pixels
        scaled = render_tiled(f.replace(colors=0.37 * f.colors), cfg).pixels
        assert np.abs(scaled - 0.37 * base).max() <= 1e-9

    def test_additivity(self):
        rng = np.random.default_rng(9)
        a = random_field(rng, 6, 6)
        b = a.replace(
            colors=rng.uniform(0, 1, a.colors.shape),
            offsets=rng.uniform(0.05, 0.95, a.offsets.shape),
        )
        cfg = RenderConfig(scale=1.0, truncation_radius=5.0, clamp_output=False)
        # A union B realized as the sum of the two renders (unordered sum).
        ra = render_tiled(a, cfg).pixels
        rb = render_tiled(b, cfg).pixels
        both = render_dense(a, cfg).pixels + render_dense(b, cfg).pixels
        assert np.abs((ra + rb) - both).max() <= 1e-5  # truncation-bounded

    def test_translation_equivariance(self):
        # Shift every kernel one LR cell right: image shifts s pixels right.
        rng = np.random.default_rng(10)
        gw, gh = 16, 8
        f = random_field(rng, gw, gh, sigma_range=(0.3, 0.6))
        cfg = RenderConfig(scale=2.0, truncation_radius=3.0, clamp_output=False)
        base = render_windows(f, cfg).pixels  # 16x32
        # Re-anchor by rolling the grid: kernel (ix, iy) -> (ix+1, iy).
        idx = np.arange(gw * gh).reshape(gh, gw)
        src = np.roll(idx, 1, axis=1).ravel()
        shifted = f.replace(
            offsets=f.offsets[src],
            sigmas=f.sigmas[src],
            rhos=f.rhos[src],
            colors=f.colors[src],
        )
        moved = render_windows(shifted, cfg).pixels
        # Interior columns: beyond the influence of the wrapped-around kernel
        # column on the left and the vacated one on the right (reach <= 8 px).
        assert np.abs(moved[:, 10:27] - base[:, 8:25]).max() <= 1e-12

    def test_scale_consistency(self):
        rng = np.random.default_rng(11)
        f = random_field(rng, 8, 8, sigma_range=(0.6, 1.5))
        c1 = RenderConfig(scale=2.0, truncation_radius=6.0, clamp_output=False)
        c2 = RenderConfig(scale=4.0, truncation_radius=6.0, clamp_output=False)
        lo = render_windows(f, c1).pixels
        hi = render_windows(f, c2).pixels
        pooled = hi.reshape(16, 2, 16, 2, 3).mean(axis=(1, 3))
        corr = np.corrcoef(pooled.ravel(), lo.ravel())[0, 1]
        assert corr >= 0.99

    def test_output_shape_rounding(self):
        assert output_shape(10, 8, 2.5) == (25, 20)
        assert output_shape(7, 5, 1.5) == (10, 8)


class TestWindowCore:
    """The one windowed-kernel core behind render_windows and the gradient."""

    R6 = RenderConfig(scale=2.5, truncation_radius=6.0, clamp_output=False)

    def windows_vs_dense(self, f, cfg):
        return np.abs(render_windows(f, cfg).pixels - render_dense(f, cfg).pixels).max()

    def test_matches_dense_at_non_integer_scale(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            assert self.windows_vs_dense(random_field(rng, 7, 5), self.R6) <= 1e-5

    def test_matches_dense_sqrt_det(self):
        rng = np.random.default_rng(21)
        cfg = RenderConfig(
            scale=2.0,
            truncation_radius=6.0,
            normalization=Normalization.SQRT_DET,
            clamp_output=False,
        )
        for _ in range(5):
            assert self.windows_vs_dense(random_field(rng, 6, 6), cfg) <= 1e-5

    def test_kernels_centred_outside_the_frame(self):
        rng = np.random.default_rng(22)
        f = random_field(rng, 6, 5, offset_range=(-4.0, 5.0))
        mu = f.mu()
        outside = (mu[:, 0] < 0) | (mu[:, 0] > 6) | (mu[:, 1] < 0) | (mu[:, 1] > 5)
        assert outside.sum() >= 5
        assert self.windows_vs_dense(f, self.R6) <= 1e-5

    def test_window_wider_than_the_image(self):
        rng = np.random.default_rng(23)
        f = random_field(rng, 3, 2, sigma_range=(2.0, 3.0))
        cfg = RenderConfig(scale=1.0, truncation_radius=6.0, clamp_output=False)
        # Half-extent 6 * sigma >= 12 px against a 3x2 px image.
        assert self.windows_vs_dense(f, cfg) <= 1e-5

    @staticmethod
    def two_level_field(rng):
        # Two sigma levels: four window sizes, each shared by ~30 kernels, so
        # buckets split into several chunks plus a partial one.
        f = random_field(rng, 12, 10, offset_range=(-2.0, 3.0))
        return f.replace(sigmas=rng.choice([0.5, 0.8], f.sigmas.shape))

    @pytest.mark.parametrize("chunk", [1, 300, 2000])
    def test_chunk_size_does_not_change_results(self, monkeypatch, chunk):
        rng = np.random.default_rng(24)
        f = self.two_level_field(rng)
        rcfg = RenderConfig(scale=2.5, truncation_radius=4.0, clamp_output=False)
        cfg = FitConfig(truncation_radius=4.0)
        weight = rng.normal(0.0, 1.0, (10, 12, 3))
        img = render_windows(f, rcfg).pixels
        grad = _field_gradient(f, weight, cfg)
        monkeypatch.setattr(raster, "CHUNK", chunk)
        assert np.abs(render_windows(f, rcfg).pixels - img).max() <= 1e-12
        assert np.abs(_field_gradient(f, weight, cfg) - grad).max() <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 300, 2000, raster.CHUNK])
    def test_chunks_are_bounded_and_cover_every_kernel_once(self, monkeypatch, chunk):
        monkeypatch.setattr(raster, "CHUNK", chunk)
        f = self.two_level_field(np.random.default_rng(25))
        s, r = 2.5, 4.0
        mu = f.mu() * s
        out_w, out_h = output_shape(12, 10, s)
        chunks, size = raster._windows(
            mu, r * s * f.sigmas[:, 0], r * s * f.sigmas[:, 1], out_w, out_h
        )
        seen = np.concatenate([gi for gi, _, _ in chunks])
        assert np.array_equal(np.sort(seen), np.arange(f.n_gaussians))
        biggest_window = 0
        for gi, px, py in chunks:
            window = px.shape[1] * py.shape[1]
            biggest_window = max(biggest_window, window)
            assert gi.size * window <= max(chunk, window)
            assert px.min() >= 0 and px.max() < out_w
            assert py.min() >= 0 and py.max() < out_h
        assert size <= max(chunk, biggest_window)
