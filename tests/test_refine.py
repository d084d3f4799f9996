"""The bank refine: snapped covariances stay exact bank entries while Adam
moves offsets and colors, through the same descent loop as the fit."""

import dataclasses

import numpy as np
import pytest

from splatvid import cpb, pipeline
from splatvid.core import Density, FrameBuffer
from splatvid.fit import FitConfig, descend, fit_frame, loss
from splatvid.pipeline import PipelineOptions
from conftest import random_field

CFG = FitConfig(iterations=6, truncation_radius=3.0)
OPTS = PipelineOptions(fit=CFG, refine_iterations=12)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(21)
    target = FrameBuffer(rng.uniform(0.1, 0.9, (6, 8, 3)))
    f = fit_frame(target, Density.ONE_PER_PIXEL, CFG)
    return f, target, cpb.default_bank()


def refine(fitted, iterations):
    f, target, bank = fitted
    opts = dataclasses.replace(OPTS, refine_iterations=iterations)
    return pipeline._snap_and_refine([f], [target], bank, opts)[0]


def cov_rows(f):
    return np.concatenate([f.sigmas, f.rhos[:, None]], axis=1)


class TestSnapAndRefine:
    def test_zero_iterations_is_the_bare_snap(self, fitted):
        f, _, bank = fitted
        snapped = refine(fitted, 0)
        gw, gh = f.grid_shape
        grid = cpb.CovGrid(cov_rows(f).reshape(gh, gw, 3))
        expected = cpb.project_grid_to_bank(grid, bank).params.reshape(-1, 3)
        assert np.array_equal(cov_rows(snapped), expected)
        assert np.array_equal(snapped.offsets, f.offsets)
        assert np.array_equal(snapped.colors, f.colors)

    def test_covariances_stay_exact_bank_entries(self, fitted):
        _, _, bank = fitted
        rows = cov_rows(refine(fitted, OPTS.refine_iterations))
        entries = {tuple(r) for r in bank.params.tolist()}
        assert all(tuple(r) in entries for r in rows.tolist())
        assert np.array_equal(rows, cov_rows(refine(fitted, 0)))

    def test_offsets_and_colors_move_and_l1_does_not_rise(self, fitted):
        _, target, _ = fitted
        snapped = refine(fitted, 0)
        refined = refine(fitted, OPTS.refine_iterations)
        assert not np.array_equal(refined.offsets, snapped.offsets)
        assert not np.array_equal(refined.colors, snapped.colors)
        assert loss(refined, target, CFG)[1] <= loss(snapped, target, CFG)[1]


class TestDescend:
    def test_frozen_covariance_is_bit_exact(self):
        rng = np.random.default_rng(22)
        f = random_field(rng, 7, 5)
        target = FrameBuffer(rng.uniform(0, 1, (5, 7, 3)))
        (out,) = descend([f], [target], CFG, 4, freeze_covariance=True)
        assert np.array_equal(out.sigmas, f.sigmas)
        assert np.array_equal(out.rhos, f.rhos)
        assert not np.array_equal(out.offsets, f.offsets)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_no_steps_returns_the_start(self, iterations):
        rng = np.random.default_rng(23)
        fields = [random_field(rng, 4, 3) for _ in range(2)]
        targets = [FrameBuffer(rng.uniform(0, 1, (3, 4, 3))) for _ in range(2)]
        out = descend(fields, targets, CFG, iterations)
        assert len(out) == 2 and all(o is f for o, f in zip(out, fields))
