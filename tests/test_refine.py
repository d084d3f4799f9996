"""The bank refine: snapped covariances and the fit's offsets stay fixed
while fit.solve_colors solves the colours, a box-constrained least-squares
problem checked here against a dense projected-gradient reference."""

import dataclasses

import numpy as np
import pytest

from splatvid import cpb, pipeline
from splatvid.core import Density, FrameBuffer
from splatvid.fit import (
    FitConfig,
    _color_lipschitz,
    _color_matrix,
    _projected_gradient_colors,
    descend,
    fit_frame,
    init_field,
    solve_colors,
)
from splatvid.pipeline import PipelineOptions
from splatvid.raster import _Weights, _adjoint, _render, render_windows
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

    def test_only_colors_move_and_squared_error_does_not_rise(self, fitted):
        _, target, _ = fitted
        snapped = refine(fitted, 0)
        refined = refine(fitted, OPTS.refine_iterations)
        assert np.array_equal(refined.offsets, snapped.offsets)
        assert np.array_equal(cov_rows(refined), cov_rows(snapped))
        assert not np.array_equal(refined.colors, snapped.colors)
        assert squared_error(refined, target) <= squared_error(snapped, target)

    def test_moves_colors_that_start_at_the_box_edges(self):
        # Half black, half white: every init colour is exactly 0 or 1, where
        # a descent in logits starts at +-13.8 and barely moves.
        pixels = np.zeros((16, 16, 3))
        pixels[:, 8:] = 1.0
        target = FrameBuffer(pixels)
        f = init_field(target, Density.ONE_PER_PIXEL)
        assert np.all((f.colors == 0.0) | (f.colors == 1.0))
        opts = dataclasses.replace(OPTS, refine_iterations=10)
        (out,) = pipeline._snap_and_refine([f], [target], cpb.default_bank(), opts)
        assert np.abs(out.colors - f.colors).max() > 1e-3


def squared_error(f, target):
    """1/2 ||A c - y||^2 of f's unclamped scale-1 render."""
    rendered = render_windows(f, CFG.render_config()).pixels
    return 0.5 * float(np.sum((rendered - target.pixels) ** 2))


def color_problem(seed):
    """A tiny well-conditioned colour problem: a 1:4 field whose kernels
    sit near their cell centres, and a target A c from colours drawn in
    [-0.5, 1.5], so that the box binds on about half of them."""
    rng = np.random.default_rng(seed)
    f = random_field(
        rng, 8, 6, Density.ONE_PER_FOUR_PIXELS,
        sigma_range=(0.8, 1.2), rho_range=(-0.3, 0.3), offset_range=(0.3, 0.7),
    )
    a = _color_matrix(f, CFG)
    y = a @ rng.uniform(-0.5, 1.5, (f.n_gaussians, 3))
    return f, FrameBuffer(y.reshape(6, 8, 3)), a


class TestSolveColors:
    # Solve iterations, and reference steps, that converge on color_problem.
    ITERATIONS = 1000
    REFERENCE_ITERATIONS = 3000

    @pytest.mark.parametrize("density", list(Density))
    def test_products_match_the_dense_matrix(self, density):
        # The converged colours do not show a product scaled per kernel
        # (a diagonal preconditioner has the same box minimizer), so the
        # products are checked on their own.
        rng = np.random.default_rng(56)
        fields = [random_field(rng, 7, 5, density) for _ in range(2)]
        weights = _Weights(fields, CFG.render_config())
        colors = rng.uniform(0, 1, (weights.rhos.size, 3))
        residual = rng.normal(0, 1, (2, 5, 7, 3))
        image = _render(weights, colors)
        adjoint = _adjoint(weights, residual)
        at = 0
        for b, f in enumerate(fields):
            a = _color_matrix(f, CFG)
            rows = slice(at, at + f.n_gaussians)
            at = rows.stop
            ref = (a @ colors[rows]).reshape(5, 7, 3)
            assert np.allclose(image[b], ref, rtol=0, atol=1e-12)
            ref = a.T @ residual[b].reshape(-1, 3)
            assert np.allclose(adjoint[rows], ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [50, 51])
    def test_matches_the_dense_projected_gradient_reference(self, seed):
        f, target, _ = color_problem(seed)
        (out,) = solve_colors([f], [target], CFG, self.ITERATIONS)
        ref = _projected_gradient_colors(f, target, CFG, self.REFERENCE_ITERATIONS)
        assert np.abs(out.colors - ref).max() <= 1e-5

    @pytest.mark.parametrize("seed", [52, 53])
    def test_result_meets_the_box_kkt_conditions(self, seed):
        f, target, a = color_problem(seed)
        (out,) = solve_colors([f], [target], CFG, self.ITERATIONS)
        c = out.colors
        grad = a.T @ (a @ c - target.pixels.reshape(-1, 3))
        tol = 1e-6
        lower, upper = c == 0.0, c == 1.0
        assert lower.any() and upper.any()
        assert np.all(grad[lower] >= -tol)
        assert np.all(grad[upper] <= tol)
        assert np.all(np.abs(grad[~lower & ~upper]) <= tol)

    @pytest.mark.parametrize("density", list(Density))
    def test_step_bound_is_at_least_the_spectral_norm_squared(self, density):
        rng = np.random.default_rng(54)
        fields = [random_field(rng, 7, 5, density) for _ in range(2)]
        weights = _Weights(fields, CFG.render_config())
        bound = _color_lipschitz(weights, [f.n_gaussians for f in fields])
        for f, lipschitz in zip(fields, bound):
            a = _color_matrix(f, CFG)
            v = np.ones(f.n_gaussians)
            for _ in range(500):  # power iteration on A^T A
                v = a.T @ (a @ v)
                norm = np.linalg.norm(v)
                v /= norm
            assert lipschitz >= norm * (1.0 - 1e-9)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_no_iterations_returns_the_start(self, iterations):
        f, target, _ = color_problem(55)
        (out,) = solve_colors([f], [target], CFG, iterations)
        assert out is f


class TestDescend:
    @pytest.mark.parametrize("iterations", [0, -1])
    def test_no_steps_returns_the_start(self, iterations):
        rng = np.random.default_rng(23)
        fields = [random_field(rng, 4, 3) for _ in range(2)]
        targets = [FrameBuffer(rng.uniform(0, 1, (3, 4, 3))) for _ in range(2)]
        out = descend(fields, targets, CFG, iterations)
        assert len(out) == 2 and all(o is f for o, f in zip(out, fields))
