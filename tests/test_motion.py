"""Flow scaling, warping, fusion, decoding, and the adaptive offset window."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splatvid.core import (
    Density,
    FeatureMap,
    FlowField,
    ShapeError,
    ValidationError,
)
from splatvid.cpb import LogitField
from splatvid.motion import (
    WindowMap,
    WindowSet,
    apply_window,
    backward_warp,
    compute_window_map,
    decode_gaussians,
    flow_magnitude_window_logits,
    fuse_features,
    predict_fusion,
    scale_flows,
)
from splatvid import synth


class TestScaleFlows:
    def setup_method(self):
        self.m01 = synth.uniform_flow(4, 3, 4.0, -2.0)
        self.m10 = synth.uniform_flow(4, 3, -4.0, 2.0)

    # m_t1 = (1 - t) * m01 is scale_flows with the flows swapped at 1 - t.
    def test_endpoint_identity_t0(self):
        mt0 = scale_flows(self.m01, self.m10, 0.0)
        mt1 = scale_flows(self.m10, self.m01, 1.0)
        assert np.array_equal(mt0.vectors, np.zeros((3, 4, 2)))
        assert np.array_equal(mt1.vectors, self.m01.vectors)

    def test_midpoint_halves_magnitudes(self):
        mt0 = scale_flows(self.m01, self.m10, 0.5)
        mt1 = scale_flows(self.m10, self.m01, 0.5)
        assert np.allclose(np.abs(mt0.vectors), 0.5 * np.abs(self.m10.vectors))
        assert np.allclose(np.abs(mt1.vectors), 0.5 * np.abs(self.m01.vectors))

    def test_linear_scaling(self):
        m10 = synth.uniform_flow(4, 3, 4.0, 0.0)
        mt0 = scale_flows(self.m01, m10, 0.25)
        mt1 = scale_flows(m10, self.m01, 0.75)
        assert np.allclose(mt0.vectors, [1.0, 0.0])
        assert np.allclose(mt1.vectors, 0.75 * self.m01.vectors)

    def test_errors(self):
        with pytest.raises(ShapeError):
            scale_flows(self.m01, synth.uniform_flow(5, 3, 0, 0), 0.5)
        for t in (-0.1, 1.5):
            with pytest.raises(ValidationError):
                scale_flows(self.m01, self.m10, t)


class TestBackwardWarp:
    def test_zero_flow_identity(self):
        rng = np.random.default_rng(0)
        f = FeatureMap(rng.uniform(0, 1, (5, 7, 3)))
        out = backward_warp(f, synth.uniform_flow(7, 5, 0.0, 0.0))
        assert np.array_equal(out.data, f.data)

    def test_integer_shift_with_border_clamp(self):
        w, h = 6, 4
        ramp = np.tile(np.arange(w, dtype=np.float64)[None, :, None], (h, 1, 1))
        out = backward_warp(FeatureMap(ramp), synth.uniform_flow(w, h, 1.0, 0.0))
        expected = np.minimum(np.arange(w) + 1, w - 1).astype(np.float64)
        assert np.allclose(out.data[:, :, 0], expected[None, :])

    def test_half_pixel_bilinear_exact_on_ramp(self):
        w, h = 6, 4
        ramp = np.tile(np.arange(w, dtype=np.float64)[None, :, None], (h, 1, 1))
        out = backward_warp(FeatureMap(ramp), synth.uniform_flow(w, h, 0.5, 0.0))
        interior = out.data[:, : w - 1, 0]
        assert np.allclose(interior, np.arange(w - 1) + 0.5)

    def test_dim_mismatch(self):
        f = FeatureMap(np.zeros((4, 4, 2)))
        with pytest.raises(ShapeError):
            backward_warp(f, synth.uniform_flow(5, 4, 0, 0))

    @settings(max_examples=50, deadline=None)
    @given(
        const=st.floats(-10, 10, allow_nan=False),
        flow=arrays(
            np.float64, (3, 4, 2), elements=st.floats(-20, 20, allow_nan=False)
        ),
    )
    def test_constant_map_preserved(self, const, flow):
        f = FeatureMap(np.full((3, 4, 2), const))
        out = backward_warp(f, FlowField(flow))
        assert np.allclose(out.data, const, atol=1e-9)


class TestPredictFusion:
    def test_baseline_t0(self):
        f = FeatureMap(np.ones((2, 3, 5)))
        mask, residual = predict_fusion(f, f, 0.0)
        assert np.array_equal(mask.data, np.ones((2, 3, 1)))
        assert np.array_equal(residual.data, np.zeros((2, 3, 5)))

    def test_baseline_midpoint(self):
        f = FeatureMap(np.ones((2, 3, 5)))
        mask, _ = predict_fusion(f, f, 0.5)
        assert np.allclose(mask.data, 0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            predict_fusion(
                FeatureMap(np.zeros((2, 2, 3))), FeatureMap(np.zeros((2, 3, 3))), 0.5
            )


class TestFuseFeatures:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(2)
        f0 = FeatureMap(rng.uniform(0, 1, (3, 4, 5)))
        f1 = FeatureMap(rng.uniform(0, 1, (3, 4, 5)))
        zero = FeatureMap(np.zeros((3, 4, 5)))
        ones = FeatureMap(np.ones((3, 4, 1)))
        zeros_mask = FeatureMap(np.zeros((3, 4, 1)))
        assert np.array_equal(fuse_features(f0, f1, ones, zero).data, f0.data)
        assert np.array_equal(fuse_features(f0, f1, zeros_mask, zero).data, f1.data)

    def test_uniform_arithmetic(self):
        f0 = FeatureMap(np.full((2, 2, 3), 2.0))
        f1 = FeatureMap(np.full((2, 2, 3), 4.0))
        mask = FeatureMap(np.full((2, 2, 1), 0.5))
        res = FeatureMap(np.full((2, 2, 3), 1.0))
        assert np.allclose(fuse_features(f0, f1, mask, res).data, 4.0, atol=1e-15)

    def test_constant_mask_is_linear_blend(self):
        rng = np.random.default_rng(3)
        f0 = FeatureMap(rng.uniform(0, 1, (3, 4, 2)))
        f1 = FeatureMap(rng.uniform(0, 1, (3, 4, 2)))
        m = 0.37
        out = fuse_features(
            f0, f1, FeatureMap(np.full((3, 4, 1), m)), FeatureMap(np.zeros((3, 4, 2)))
        )
        assert np.allclose(out.data, m * f0.data + (1 - m) * f1.data, atol=1e-15)

    def test_mask_out_of_range_rejected(self):
        f = FeatureMap(np.zeros((2, 2, 3)))
        bad = FeatureMap(np.full((2, 2, 1), 1.5))
        with pytest.raises(ValidationError):
            fuse_features(f, f, bad, f)


class TestDecodeGaussians:
    def test_passthrough_constant(self):
        data = np.tile(np.array([0.5, 0.5, 1.0, 0.0, 0.0]), (2, 3, 1))
        offsets, colors = decode_gaussians(FeatureMap(data))
        assert np.allclose(offsets, 0.5)
        assert np.allclose(colors, [1.0, 0.0, 0.0])

    def test_passthrough_clamps(self):
        data = np.tile(np.array([1.7, -0.2, 1.7, 0.3, -5.0]), (1, 1, 1))
        offsets, colors = decode_gaussians(FeatureMap(data))
        assert np.allclose(offsets, [[1.0, 0.0]])
        assert np.allclose(colors, [[1.0, 0.3, 0.0]])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            decode_gaussians(FeatureMap(np.zeros((2, 2, 4))))


class TestWindowMap:
    def test_one_hot(self):
        s = WindowSet()
        logits = np.zeros((2, 2, 10))
        logits[..., 4] = 50.0
        wm = compute_window_map(LogitField(logits), s)
        assert np.allclose(wm.values, 5.0, atol=1e-9)

    def test_uniform_logits_mean(self):
        wm = compute_window_map(LogitField(np.zeros((2, 2, 10))), WindowSet())
        assert np.allclose(wm.values, 5.5, atol=1e-12)

    def test_two_window_softmax_oracle(self):
        s = WindowSet(sizes=(1.0, 10.0))
        logits = np.array([[[math.log(3.0), math.log(1.0)]]])
        wm = compute_window_map(LogitField(logits), s)
        assert wm.values[0, 0] == pytest.approx(0.75 * 1.0 + 0.25 * 10.0, abs=1e-12)

    def test_k_mismatch(self):
        with pytest.raises(ShapeError):
            compute_window_map(LogitField(np.zeros((1, 1, 3))), WindowSet())

    @settings(max_examples=100, deadline=None)
    @given(
        logits=arrays(
            np.float64, (2, 3, 10), elements=st.floats(-100, 100, allow_nan=False)
        )
    )
    def test_bounded_by_window_set(self, logits):
        wm = compute_window_map(LogitField(logits), WindowSet())
        assert np.all(wm.values >= 1.0) and np.all(wm.values <= 10.0)


class TestFlowMagnitudeLogits:
    def test_static_scene_selects_smallest(self):
        z = synth.uniform_flow(4, 4, 0.0, 0.0)
        logits = flow_magnitude_window_logits(z, z, WindowSet())
        assert np.all(np.argmax(logits.logits, axis=-1) == 0)

    def test_ceil_rule(self):
        m = synth.uniform_flow(4, 4, 4.2, 0.0)
        z = synth.uniform_flow(4, 4, 0.0, 0.0)
        logits = flow_magnitude_window_logits(m, z, WindowSet())
        assert np.all(np.argmax(logits.logits, axis=-1) == 4)  # size 5

    def test_saturates_at_max(self):
        m = synth.uniform_flow(4, 4, 37.0, 0.0)
        logits = flow_magnitude_window_logits(m, m, WindowSet())
        assert np.all(np.argmax(logits.logits, axis=-1) == 9)  # size 10

    def test_quarter_density_pools_by_max(self):
        vec = np.zeros((4, 4, 2))
        vec[1, 1, 0] = 6.5  # one hot pixel inside the top-left 2x2 block
        m = FlowField(vec)
        z = synth.uniform_flow(4, 4, 0.0, 0.0)
        logits = flow_magnitude_window_logits(
            m, z, WindowSet(), Density.ONE_PER_FOUR_PIXELS
        )
        idx = np.argmax(logits.logits, axis=-1)
        assert idx.shape == (2, 2)
        assert idx[0, 0] == 6 and np.all(idx.ravel()[1:] == 0)

        # An odd-sized frame: the last row and column of cells hang over the
        # edge and pool only their in-frame pixels.
        rng = np.random.default_rng(2)
        m01, m10 = (FlowField(rng.uniform(-8.0, 8.0, (3, 5, 2))) for _ in range(2))
        s_win = WindowSet()
        logits = flow_magnitude_window_logits(
            m01, m10, s_win, Density.ONE_PER_FOUR_PIXELS
        )
        idx = np.argmax(logits.logits, axis=-1)
        assert idx.shape == (2, 3)
        mag = np.maximum(*(np.hypot(*m.vectors.transpose(2, 0, 1)) for m in (m01, m10)))
        for iy in range(2):
            for ix in range(3):
                peak = mag[2 * iy : 2 * iy + 2, 2 * ix : 2 * ix + 2].max()
                fits = [i for i, size in enumerate(s_win.sizes) if size >= peak]
                assert idx[iy, ix] == (fits[0] if fits else s_win.k - 1)


class TestApplyWindow:
    def test_identity_window(self):
        rng = np.random.default_rng(5)
        offsets = rng.uniform(0, 1, (3, 4, 2))
        wm = WindowMap(np.ones((3, 4)))
        out = apply_window(offsets, wm)
        assert np.array_equal(out, offsets)
        assert np.all((out >= 0) & (out <= 1))

    def test_scaling(self):
        offsets = np.full((1, 1, 2), 0.5)
        assert np.allclose(apply_window(offsets, WindowMap(np.full((1, 1), 4.0))), 2.0)
        extreme = np.array([[[1.0, 0.0]]])
        out = apply_window(extreme, WindowMap(np.full((1, 1), 10.0)))
        assert np.allclose(out, [[[10.0, 0.0]]])

    def test_grid_mismatch(self):
        with pytest.raises(ShapeError):
            apply_window(np.zeros((2, 2, 2)), WindowMap(np.ones((3, 2))))


class TestWindowSet:
    def test_default_sizes(self):
        s = WindowSet()
        assert s.sizes == tuple(float(i) for i in range(1, 11))
        assert s.k == 10 and s.max_size == 10.0

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            WindowSet(sizes=(1.0, 1.0, 2.0))
        with pytest.raises(ValidationError):
            WindowSet(sizes=(-1.0, 2.0))
