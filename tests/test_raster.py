"""Rasterizer: kernel evaluation, dense oracle, truncated fast paths."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatvid import raster
from splatvid.core import (
    CovParams,
    Density,
    FrameBuffer,
    Gaussian2D,
    GaussianField,
    ValidationError,
)
from splatvid.fit import FitConfig, _field_gradient, _step, solve_colors
from splatvid.raster import (
    Normalization,
    RenderConfig,
    eval_gaussian,
    output_shape,
    render_dense,
    render_tiled,
    render_windows,
)
from conftest import layout_px, random_field, segments, window_pixels

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
        f = dataclasses.replace(f, colors=colors)
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


class TestNonFiniteFrame:
    def test_singular_kernel_raises_naming_rasterize(self):
        # rho = 1 makes a covariance singular; both paths finish a render
        # through one step that names the stage, the timestamp and the scale.
        f = random_field(np.random.default_rng(3), 4, 3)
        rhos = f.rhos.copy()
        rhos[5] = 1.0
        f = dataclasses.replace(f, rhos=rhos, timestamp=0.25)
        for render in (render_dense, render_windows):
            for clamp in (True, False):
                cfg = RenderConfig(scale=2.0, clamp_output=clamp)
                with np.errstate(all="ignore"), pytest.raises(
                    FloatingPointError, match=r"^rasterize: .* t=0\.25 at scale 2\.0$"
                ):
                    render(f, cfg)

    def test_config_checks_itself_when_built(self):
        with pytest.raises(ValidationError, match="scale"):
            RenderConfig(scale=0.5)
        with pytest.raises(ValidationError, match="truncation_radius"):
            RenderConfig(scale=1.0, truncation_radius=0.5)


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
        f = dataclasses.replace(
            f,
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
        dimmed = dataclasses.replace(f, colors=0.37 * f.colors)
        scaled = render_tiled(dimmed, cfg).pixels
        assert np.abs(scaled - 0.37 * base).max() <= 1e-9

    def test_additivity(self):
        rng = np.random.default_rng(9)
        a = random_field(rng, 6, 6)
        b = dataclasses.replace(
            a,
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
        shifted = dataclasses.replace(
            f,
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
        # Two sigma levels: four window sizes (12 or 18 px per axis at scale
        # 2.5 and radius 4), each shared by ~30 kernels, so buckets split
        # into several segments plus a partial one.
        f = random_field(rng, 12, 10, offset_range=(-2.0, 3.0))
        return dataclasses.replace(f, sigmas=rng.choice([0.5, 0.8], f.sigmas.shape))

    @staticmethod
    def many_size_field(rng):
        # Over 100 window sizes at scale 2.5 and radius 4, so that at the
        # default CHUNK a chunk holds segments of many sizes.
        return random_field(rng, 30, 20, sigma_range=(0.4, 2.0))

    @pytest.mark.parametrize("chunk", [1, 40, 300, 2000])
    @pytest.mark.parametrize("field", ["two-level", "many-sizes"])
    def test_chunk_size_does_not_change_results(self, monkeypatch, field, chunk):
        # Bit for bit: each kernel's weights, products and window sums are
        # its own, the same bits wherever it sits in a segment or a chunk,
        # and every pixel sums its kernels in one order.  At CHUNK = 1 each
        # chunk is one kernel.
        rng = np.random.default_rng(24)
        make = self.two_level_field if field == "two-level" else self.many_size_field
        fields = [make(rng) for _ in range(2)]
        shape = (fields[0].lr_height, fields[0].lr_width, 3)
        cfg = FitConfig(truncation_radius=4.0)
        targets = [FrameBuffer(rng.uniform(0.0, 1.0, shape)) for _ in range(2)]
        pixels = np.stack([t.pixels for t in targets])
        weight = rng.normal(0.0, 1.0, shape)

        def outputs():
            renders = [
                render_windows(
                    fields[0],
                    RenderConfig(scale=s, truncation_radius=4.0, clamp_output=False),
                ).pixels
                for s in (1.0, 2.5)
            ]
            return [
                *renders,
                _field_gradient(fields[0], weight, cfg),
                *_step(fields, pixels, cfg),
                *(g.colors for g in solve_colors(fields, targets, cfg, 3)),
            ]

        ref = outputs()
        if field == "many-sizes":
            lay = raster._Weights(fields[:1], RenderConfig(2.5, truncation_radius=4.0))
            sizes = {seg.offs.shape for seg in segments(lay.chunks)}
            assert len(sizes) >= 100 and len(lay.chunks) * 20 < len(sizes)
        monkeypatch.setattr(raster, "CHUNK", chunk)
        for a, b in zip(outputs(), ref, strict=True):
            assert np.array_equal(a, b)

    # Largest exponent difference allowed between the centred basis and
    # the direct (dx, dy) form, fixed from float64 rounding before any run.
    # An admitted pixel's exponent sums six terms of at most about 2e3 in
    # magnitude (a clamped window's centre can sit tens of pixels from its
    # kernel's centre), each side rounding within 6 * 2e3 * 2.2e-16 = 2.6e-12.
    EXP_TOL = 1e-11

    @pytest.mark.parametrize("scale", [1.0, 2.0, 3.0, 4.0])
    def test_weights_match_the_direct_exponent(self, scale):
        # Reference: e = -q/2 from each pixel's (dx, dy), as the core formed
        # it before the centred basis.
        rng = np.random.default_rng(27)
        r = 4.0
        cfg = RenderConfig(scale=scale, truncation_radius=r, clamp_output=False)
        clamped = 0
        for _ in range(5):
            f = random_field(
                rng, 7, 5, sigma_range=(0.3, 3.0), offset_range=(-4.0, 5.0)
            )
            lay = raster._Weights([f], cfg)
            mu = f.mu() * scale
            start = np.floor(mu - r * scale * f.sigmas - 0.5)
            for chunk, w_chunk, _, _ in lay:
                for seg in chunk:
                    gi = seg.gi
                    px, py = window_pixels(seg, lay.out_w, lay.out_h)
                    moved = (px[:, 0] != start[gi, 0]) | (py[:, 0] != start[gi, 1])
                    clamped += moved.sum()
                    dx = (px + 0.5) - mu[gi, 0, None]
                    dy = (py + 0.5) - mu[gi, 1, None]
                    e = (-lay.ixy[gi, None] * dy)[:, :, None] * dx[:, None, :]
                    e += (-0.5 * lay.ixx[gi, None] * dx**2)[:, None, :]
                    e += (-0.5 * lay.iyy[gi, None] * dy**2)[:, :, None]
                    w = w_chunk[seg.span].reshape(gi.size, -1)
                    e = e.reshape(w.shape)
                    ref = np.exp(e) * (e >= -0.5 * r * r)
                    # Off the boundary band both masks agree; there, w is
                    # exp(e) to within the exponent's error, as exp(e) <= 1.
                    sure = np.abs(e + 0.5 * r * r) > self.EXP_TOL
                    err = np.abs(w - ref)
                    assert err[sure].max(initial=0.0) <= self.EXP_TOL
        assert clamped >= 20

    @pytest.mark.parametrize("chunk", [1, 300, 2000, raster.CHUNK])
    def test_chunks_are_bounded_and_cover_every_kernel_once(self, monkeypatch, chunk):
        monkeypatch.setattr(raster, "CHUNK", chunk)
        f = self.two_level_field(np.random.default_rng(25))
        s, r = 2.5, 4.0
        mu = f.mu() * s
        out_w, out_h = output_shape(12, 10, s)
        plane = np.arange(f.n_gaussians) % 3 * (out_w * out_h)
        half = r * s * f.sigmas
        chunks, size, centre = raster._windows(
            mu, half[:, 0], half[:, 1], out_w, out_h, plane
        )
        seen = np.concatenate([seg.gi for seg in segments(chunks)])
        assert np.array_equal(np.sort(seen), np.arange(f.n_gaussians))
        # Each window's start, from the rule _windows documents.
        width = np.minimum(np.floor(2.0 * half).astype(np.int64) + 2, (out_w, out_h))
        start = np.floor(mu - half - 0.5).astype(np.int64)
        start = np.clip(start, 0, np.array([out_w, out_h]) - width)
        sizes = []
        for c, segs in enumerate(chunks):
            at = 0
            for gi, corner, offs, basis, span in segs:
                wy, wx = offs.shape
                window = wx * wy
                assert span == slice(at, at + gi.size * window)
                at = span.stop
                assert np.all(width[gi] == (wx, wy))
                px = start[gi, 0, None] + np.arange(wx)
                py = start[gi, 1, None] + np.arange(wy)
                assert px.min() >= 0 and px.max() < out_w
                assert py.min() >= 0 and py.max() < out_h
                flat = py[:, :, None] * out_w + px[:, None, :] + plane[gi, None, None]
                assert np.array_equal(corner[:, None, None] + offs, flat)
                # The basis holds each window pixel's offsets (i, j) from the
                # window's centre pixel, whose offset from mu is centre.
                mid_x, mid_y = px[:, wx // 2], py[:, wy // 2]
                mid = np.column_stack([mid_x, mid_y])
                assert np.array_equal(centre[gi], mid + 0.5 - mu[gi])
                j = np.tile(px[0] - mid_x[0], wy)
                i = np.repeat(py[0] - mid_y[0], wx)
                want = np.stack([j**0, j, i, j * j, i * j, i * i])
                assert np.array_equal(basis, want)
                assert not offs.flags.writeable and not basis.flags.writeable
            # At most CHUNK pixels, unless one window alone is larger; and a
            # chunk closes only when its successor's first segment would
            # overflow it.
            assert at <= chunk or (len(segs) == 1 and segs[0].gi.size == 1)
            if c + 1 < len(chunks):
                assert at + chunks[c + 1][0].span.stop > chunk
            sizes.append(at)
        assert size == max(sizes)
        assert layout_px(chunks) == sum(sizes)

    @pytest.mark.parametrize("chunk", [1, 300, raster.CHUNK])
    def test_segments_match_a_per_key_grouping(self, monkeypatch, chunk):
        # Reference: scan every kernel's key once per distinct window size.
        monkeypatch.setattr(raster, "CHUNK", chunk)
        rng = np.random.default_rng(26)
        f = random_field(rng, 30, 20, sigma_range=(0.4, 2.0))
        s, r = 4.0, 3.0
        mu = f.mu() * s
        half_x, half_y = r * s * f.sigmas[:, 0], r * s * f.sigmas[:, 1]
        out_w, out_h = output_shape(30, 20, s)
        chunks, size, _ = raster._windows(mu, half_x, half_y, out_w, out_h, 0)
        wx = np.minimum(np.floor(2.0 * half_x).astype(np.int64) + 2, out_w)
        wy = np.minimum(np.floor(2.0 * half_y).astype(np.int64) + 2, out_h)
        keys = wx * (out_h + 1) + wy
        assert np.unique(keys).size >= 100
        ref = []
        for key in np.unique(keys):
            bucket = np.nonzero(keys == key)[0]
            step = max(1, chunk // (wx[bucket[0]] * wy[bucket[0]]))
            ref += [bucket[lo : lo + step] for lo in range(0, bucket.size, step)]
        segs = segments(chunks)
        assert len(segs) == len(ref)
        for seg, want in zip(segs, ref):
            assert np.array_equal(seg.gi, want)
            assert seg.offs.shape == (wy[want[0]], wx[want[0]])
        assert size == max(c[-1].span.stop for c in chunks)
        if chunk == 1:  # one segment, of one kernel, per chunk
            assert len(chunks) == len(segs) == f.n_gaussians
        elif chunk > 300:  # at the default, many window sizes share a chunk
            assert len(chunks) < len(segs) / 4

    @pytest.mark.parametrize("chunk", [1, raster.CHUNK])
    def test_render_equals_a_per_channel_scatter(self, monkeypatch, chunk):
        # Reference: each channel of each kernel's amp * colour * w scattered
        # by its own np.add.at, chunk by chunk in layout order.  Bit for bit,
        # signed zeros included, also for colours of either sign and zeros
        # of either sign (a colour solve's extrapolated point can leave
        # [0, 1]).
        monkeypatch.setattr(raster, "CHUNK", chunk)
        rng = np.random.default_rng(28)
        f = random_field(rng, 30, 20, sigma_range=(0.4, 2.0))
        cfg = RenderConfig(scale=2.5, clamp_output=False)
        lay = raster._Weights([f], cfg, n_scratch=2)
        signed = rng.uniform(-1.0, 1.0, f.colors.shape)
        signed[::5, 0], signed[1::5, 1], signed[2::5, 2] = -0.0, 0.0, -0.0
        for colors in (signed, f.colors):
            img = np.zeros((3, lay.out_h * lay.out_w))
            for chunk, w, flat, _ in lay:
                gi = np.concatenate([np.repeat(seg.gi, seg.offs.size) for seg in chunk])
                for c in range(3):
                    np.add.at(img[c], flat, w * (lay.amp[gi] * colors[gi, c]))
            ref = img.T.reshape(lay.out_h, lay.out_w, 3).tobytes()
            assert raster._render(lay, colors)[0].tobytes() == ref
        assert render_windows(f, cfg).pixels.tobytes() == ref

    @staticmethod
    def core_pairs(f, cfg):
        """Sorted keys kernel * npix + flat pixel of the core's nonzero weights."""
        npix = np.prod(output_shape(f.lr_width, f.lr_height, cfg.scale))
        keys = []
        for chunk, w, flat, _ in raster._Weights([f], cfg):
            gi = np.concatenate([np.repeat(seg.gi, seg.offs.size) for seg in chunk])
            (p,) = np.nonzero(w)
            keys.append(gi[p] * npix + flat[p])
        return np.sort(np.concatenate(keys))

    @staticmethod
    def brute_force_pairs(f, cfg):
        """Sorted keys kernel * npix + flat pixel with q <= r^2, over every
        output pixel.

        The exponent is formed with the core's arithmetic, term for term,
        so that both sides round alike at the q = r^2 boundary: the
        kernel's six coefficients times the basis [1, j, i, j^2, i*j, i^2]
        of a pixel's offsets (i, j) from its window's centre pixel, one
        stacked matmul over window-sized blocks.  BLAS rounds a column by
        its place in the product, so the blocks tile the whole frame from
        the window's corner: every pixel takes the place in its block that
        the window's own pixels take in the core.
        """
        lay = raster._Weights([f], cfg)
        out_w, out_h = lay.out_w, lay.out_h
        r = cfg.truncation_radius
        keys = []
        for seg in segments(lay.chunks):
            px, py = window_pixels(seg, out_w, out_h)
            wy, wx = seg.offs.shape
            for k, x0, y0 in zip(seg.gi, px[:, 0], py[:, 0]):
                # Block columns and rows from before the frame to past it.
                bx = np.arange(-(x0 // wx) - 1, (out_w - x0) // wx + 1)
                by = np.arange(-(y0 // wy) - 1, (out_h - y0) // wy + 1)
                xs = x0 + bx[:, None] * wx + np.arange(wx)  # (Bx, wx)
                ys = y0 + by[:, None] * wy + np.arange(wy)  # (By, wy)
                x = np.broadcast_to(xs[None, :, None, :], (len(ys), len(xs), wy, wx))
                y = np.broadcast_to(ys[:, None, :, None], x.shape)
                j = (x - (x0 + wx // 2)).reshape(len(ys), len(xs), -1).astype(float)
                i = (y - (y0 + wy // 2)).reshape(j.shape).astype(float)
                basis = np.stack([j**0, j, i, j * j, i * j, i * i], axis=2)
                e = np.matmul(lay.coef[k, None, :], basis)[:, :, 0]
                keep = (e >= -0.5 * r * r).reshape(x.shape)
                keep &= (x >= 0) & (x < out_w) & (y >= 0) & (y < out_h)
                keys.append(k * (out_w * out_h) + y[keep] * out_w + x[keep])
        return np.sort(np.concatenate(keys))

    @settings(max_examples=300, deadline=None)
    @given(
        density=st.sampled_from(Density),
        scale=st.sampled_from([1.0, 1.5, 2.5, 4.0]),
        radius=st.floats(1.0, 8.0),
        size=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_windows_hold_exactly_the_admitted_pixels(
        self, density, scale, radius, size, seed
    ):
        f = random_field(
            np.random.default_rng(seed),
            *size,
            density,
            sigma_range=(0.3, 3.0),
            rho_range=(-0.7, 0.7),
            offset_range=(-4.0, 5.0),
        )
        cfg = RenderConfig(scale=scale, truncation_radius=radius, clamp_output=False)
        assert np.array_equal(self.core_pairs(f, cfg), self.brute_force_pairs(f, cfg))

    BOUNDARY_SIGMAS = (0.5, 0.75, 1.0, 1.25, 2.0)

    @staticmethod
    def boundary_field(sx, sy, r, s, rng):
        """rho = 0 kernels with an extreme of the truncation box on a pixel
        centre: per kernel, in turn, its left, right, top or bottom extreme
        (the other axis's centre on a pixel centre too, so the extreme pixel
        has q = r^2 exactly), or its top-left corner.  Centres reach two
        pixels beyond the frame.  Returns the field and the keys (as in
        core_pairs) of the in-frame extreme pixels of the edge kernels."""
        hx, hy = r * s * sx, r * s * sy
        lr = int(np.ceil((2.0 * max(hx, hy) + 6.0) / s))  # no window is capped
        f = random_field(rng, lr, lr, Density.ONE_PER_FOUR_PIXELS)
        out = output_shape(lr, lr, s)[0]
        n = f.n_gaussians
        px, py = rng.integers(-2, out + 2, (2, n))
        side = np.arange(n) % 5
        mux = px + 0.5 + np.select([side == 0, side == 1, side == 4], [hx, -hx, hx], 0.0)
        muy = py + 0.5 + np.select([side == 2, side == 3, side == 4], [hy, -hy, hy], 0.0)
        mu = np.column_stack([mux, muy])
        f = dataclasses.replace(
            f,
            offsets=mu / s - f.cell_centers(),
            sigmas=np.tile([sx, sy], (n, 1)),
            rhos=np.zeros(n),
        )
        assert np.array_equal(f.mu() * s, mu)  # every extreme sits exactly
        inside = (side < 4) & (px >= 0) & (px < out) & (py >= 0) & (py < out)
        g = np.nonzero(inside)[0]
        return f, g * out * out + py[g] * out + px[g]

    @pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
    def test_windows_hold_pixels_on_the_truncation_boundary(self, r, s):
        rng = np.random.default_rng(int(10 * r + s))
        cfg = RenderConfig(scale=s, truncation_radius=float(r), clamp_output=False)
        for sx in self.BOUNDARY_SIGMAS:
            for sy in self.BOUNDARY_SIGMAS:
                f, extremes = self.boundary_field(sx, sy, r, s, rng)
                keys = self.brute_force_pairs(f, cfg)
                assert np.array_equal(self.core_pairs(f, cfg), keys)
                if sx in (0.5, 1.0, 2.0) and sy in (0.5, 1.0, 2.0):
                    # Powers of two: q = r^2 is computed exactly, so the
                    # mask admits every in-frame extreme pixel.
                    assert extremes.size and np.isin(extremes, keys).all()

    @pytest.mark.parametrize("scale", [1.0, 1.5, 2.5, 4.0])
    @pytest.mark.parametrize("radius", [1.0, 3.0, 8.0])
    def test_windows_are_tight(self, scale, radius):
        rng = np.random.default_rng(26)
        f = random_field(rng, 9, 7, sigma_range=(0.3, 3.0), offset_range=(-4.0, 5.0))
        half = radius * scale * f.sigmas
        out_w, out_h = output_shape(9, 7, scale)
        chunks, *_ = raster._windows(
            f.mu() * scale, half[:, 0], half[:, 1], out_w, out_h, 0
        )
        for seg in segments(chunks):
            wy, wx = seg.offs.shape
            tight = np.floor(2.0 * half[seg.gi]).astype(np.int64) + 2
            assert np.all(wx <= np.minimum(tight[:, 0], out_w))
            assert np.all(wy <= np.minimum(tight[:, 1], out_h))
