"""Luma metrics, correlation measures, and the temporal-stability report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatvid.core import FrameBuffer, ShapeError
from splatvid.metrics import (
    MetricError,
    cosine,
    pearson,
    psnr_y,
    ssim_y,
    stability_report,
    to_luma,
)
from conftest import random_field

# Reference value for the shipped 16x16 SSIM fixture, frozen from an
# independent 40-digit direct-formula evaluation (11x11 Gaussian window,
# sigma 1.5, K1=0.01, K2=0.03, valid-region aggregation).
SSIM_FIXTURE_ORACLE = 0.9837134832476573


def ssim_fixture() -> tuple[FrameBuffer, FrameBuffer]:
    rng = np.random.default_rng(42)
    a = rng.uniform(0, 1, (16, 16, 3))
    b = np.clip(a + rng.normal(0, 0.05, (16, 16, 3)), 0, 1)
    return FrameBuffer(a), FrameBuffer(b)


class TestLuma:
    def test_primaries(self):
        white = FrameBuffer(np.ones((1, 1, 3)))
        red = FrameBuffer(np.array([[[1.0, 0.0, 0.0]]]))
        blue = FrameBuffer(np.array([[[0.0, 0.0, 1.0]]]))
        assert to_luma(white).data[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert to_luma(red).data[0, 0, 0] == pytest.approx(0.299, abs=1e-12)
        assert to_luma(blue).data[0, 0, 0] == pytest.approx(0.114, abs=1e-12)


class TestPsnr:
    def test_identical_is_infinite(self):
        rng = np.random.default_rng(0)
        a = FrameBuffer(rng.uniform(0, 1, (4, 4, 3)))
        assert psnr_y(a, a) == math.inf

    def test_uniform_luma_errors(self):
        a = FrameBuffer(np.full((8, 8, 3), 0.5))
        b = FrameBuffer(np.full((8, 8, 3), 0.6))
        c = FrameBuffer(np.full((8, 8, 3), 0.51))
        assert psnr_y(a, b) == pytest.approx(20.0, abs=1e-9)
        assert psnr_y(a, c) == pytest.approx(40.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = FrameBuffer(rng.uniform(0, 1, (6, 6, 3)))
        b = FrameBuffer(rng.uniform(0, 1, (6, 6, 3)))
        assert psnr_y(a, b) == psnr_y(b, a)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            psnr_y(
                FrameBuffer(np.zeros((4, 4, 3))), FrameBuffer(np.zeros((4, 5, 3)))
            )


class TestSsim:
    def test_identical(self):
        rng = np.random.default_rng(2)
        a = FrameBuffer(rng.uniform(0, 1, (16, 16, 3)))
        assert ssim_y(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_structural_inversion_low(self):
        checker = (np.indices((16, 16)).sum(axis=0) % 2).astype(float)
        a = FrameBuffer(np.repeat(checker[..., None], 3, axis=2))
        b = FrameBuffer(1.0 - a.pixels)
        assert ssim_y(a, b) < 0.5

    def test_fixture_matches_high_precision_oracle(self):
        a, b = ssim_fixture()
        assert abs(ssim_y(a, b) - SSIM_FIXTURE_ORACLE) <= 1e-6

    def test_symmetric_and_flip_invariant(self):
        a, b = ssim_fixture()
        assert ssim_y(a, b) == pytest.approx(ssim_y(b, a), abs=1e-12)
        fa = FrameBuffer(a.pixels[:, ::-1].copy())
        fb = FrameBuffer(b.pixels[:, ::-1].copy())
        assert ssim_y(fa, fb) == pytest.approx(ssim_y(a, b), abs=1e-12)

    def test_too_small_rejected(self):
        small = FrameBuffer(np.zeros((8, 8, 3)))
        with pytest.raises(ShapeError):
            ssim_y(small, small)


class TestPearson:
    def test_self_and_negation(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, 50)
        assert pearson(a, a) == 1.0
        assert pearson(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, 50)
        assert pearson(a, a + 3.7) == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_undefined(self):
        with pytest.raises(MetricError):
            pearson(np.ones(10), np.arange(10.0))

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(0.01, 100.0),
        beta=st.floats(-100.0, 100.0),
    )
    def test_affine_invariance(self, alpha, beta):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, 30)
        b = rng.uniform(-1, 1, 30)
        assert pearson(alpha * a + beta, b) == pytest.approx(
            pearson(a, b), abs=1e-9
        )


class TestCosine:
    def test_cases(self):
        a = np.array([1.0, 2.0, 3.0])
        assert cosine(a, a) == 1.0
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
        assert cosine(a, 2 * a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_undefined(self):
        with pytest.raises(MetricError):
            cosine(np.zeros(3), np.ones(3))


class TestStabilityReport:
    def test_gap_zero_is_one(self):
        rng = np.random.default_rng(6)
        frames = [FrameBuffer(rng.uniform(0, 1, (6, 6, 3))) for _ in range(3)]
        fields = [random_field(rng, 6, 6) for _ in range(3)]
        r = stability_report(frames, fields)
        assert r.gaps[0] == 0
        assert (
            r.pixel_pearson[0] == r.pixel_cosine[0]
            == r.cov_pearson[0] == r.cov_cosine[0] == 1.0
        )

    def test_static_scene_all_ones(self):
        rng = np.random.default_rng(7)
        frame = FrameBuffer(rng.uniform(0, 1, (6, 6, 3)))
        f = random_field(rng, 6, 6)
        r = stability_report([frame] * 4, [f] * 4)
        for g in range(4):
            assert r.pixel_pearson[g] == 1.0 and r.cov_cosine[g] == 1.0

    @pytest.mark.parametrize("other", [(8, 6), (5, 5)])  # (h, w)
    def test_frames_of_differing_size(self, other):
        rng = np.random.default_rng(9)
        frames = [FrameBuffer(rng.uniform(0, 1, s + (3,))) for s in [(6, 8), other]]
        fields = [random_field(rng, 8, 6)] * 2
        with pytest.raises(ShapeError, match="frames differ in size"):
            stability_report(frames, fields)

    def test_length_mismatch(self):
        rng = np.random.default_rng(8)
        frames = [FrameBuffer(rng.uniform(0, 1, (6, 6, 3)))] * 3
        fields = [random_field(rng, 6, 6)] * 2
        with pytest.raises(ShapeError):
            stability_report(frames, fields)
