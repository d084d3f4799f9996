"""Covariance algebra, domain-type invariants, and field validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatvid.core import (
    RHO_MAX,
    SIGMA_MIN,
    CovParams,
    Density,
    FlowField,
    FrameBuffer,
    GaussianField,
    ShapeError,
    ValidationError,
    Violation,
    cov_det,
    cov_inverse,
    cov_matrix,
    validate_field,
)
from conftest import random_field


class TestCovMatrix:
    def test_identity(self):
        assert np.array_equal(cov_matrix(CovParams(1, 1, 0)), np.eye(2))

    def test_anisotropic(self):
        m = cov_matrix(CovParams(2, 1, 0.5))
        assert np.allclose(m, [[4, 1], [1, 1]], atol=1e-15)

    def test_negative_rho(self):
        m = cov_matrix(CovParams(0.5, 0.5, -0.8))
        assert np.allclose(m, [[0.25, -0.2], [-0.2, 0.25]], atol=1e-15)

    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            cov_matrix(CovParams(1, 1, 1.0))
        with pytest.raises(ValidationError):
            cov_matrix(CovParams(1e-9, 1, 0))
        with pytest.raises(ValidationError):
            cov_matrix(CovParams(float("nan"), 1, 0))


class TestCovDet:
    def test_identity(self):
        assert cov_det(CovParams(1, 1, 0)) == 1.0

    def test_correlated(self):
        assert cov_det(CovParams(2, 1, 0.5)) == pytest.approx(3.0, abs=1e-15)

    def test_small(self):
        assert cov_det(CovParams(0.7, 0.7, 0)) == pytest.approx(0.2401, abs=1e-15)


class TestCovInverse:
    def test_identity(self):
        assert np.array_equal(cov_inverse(CovParams(1, 1, 0)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(
            cov_inverse(CovParams(2, 1, 0)), [[0.25, 0], [0, 1]], atol=1e-15
        )

    def test_correlated_against_generic_inverse(self):
        p = CovParams(2, 1, 0.5)
        inv = cov_inverse(p)
        assert np.allclose(
            inv, [[1 / 3, -1 / 3], [-1 / 3, 4 / 3]], atol=1e-12
        )
        # Independent oracle: generic 2x2 inversion of the forward matrix.
        assert np.allclose(inv, np.linalg.inv(cov_matrix(p)), atol=1e-12)

    def test_randomized_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = CovParams(
                float(rng.uniform(0.1, 5.0)),
                float(rng.uniform(0.1, 5.0)),
                float(rng.uniform(-0.95, 0.95)),
            )
            m = cov_matrix(p)
            # Inverse partner within 1e-10, determinant within 1e-12 relative,
            # eigenvalues strictly positive (det > 0 and trace > 0).
            assert np.allclose(m @ cov_inverse(p), np.eye(2), atol=1e-10)
            assert cov_det(p) == pytest.approx(np.linalg.det(m), rel=1e-12)
            assert cov_det(p) > 0 and np.trace(m) > 0


class TestDensity:
    def test_grid_shapes(self):
        assert Density.ONE_PER_PIXEL.grid_shape(5, 3) == (5, 3)
        assert Density.ONE_PER_FOUR_PIXELS.grid_shape(5, 3) == (3, 2)
        assert Density.ONE_PER_FOUR_PIXELS.grid_shape(4, 4) == (2, 2)

    def test_cell_centers(self):
        c = Density.ONE_PER_PIXEL.cell_centers(2, 1)
        assert np.array_equal(c, [[0.5, 0.5], [1.5, 0.5]])
        c4 = Density.ONE_PER_FOUR_PIXELS.cell_centers(4, 2)
        assert np.array_equal(c4, [[1.0, 1.0], [3.0, 1.0]])

    def test_min_scale(self):
        assert Density.ONE_PER_PIXEL.min_scale() == 1.0
        assert Density.ONE_PER_FOUR_PIXELS.min_scale() == 2.0


class TestValidateField:
    def test_valid_field_empty_report(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        assert validate_field(f) == []

    def test_boundary_rho_flagged(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        rhos = f.rhos.copy()
        rhos[5] = 1.0
        report = validate_field(f.replace(rhos=rhos))
        assert len(report) == 1
        assert report[0].cell == 5 and report[0].field == "rho"

    def test_offset_out_of_base_range_flagged(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        offs = f.offsets.copy()
        offs[3] = [1.5, 0.2]
        report = validate_field(f.replace(offsets=offs))
        assert len(report) == 1
        assert report[0].cell == 3 and report[0].field == "offset_x"

    def test_window_scaled_offsets_allowed(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        offs = f.offsets.copy()
        offs[3] = [4.5, 0.2]
        assert validate_field(f.replace(offsets=offs, max_offset=10.0)) == []

    def test_shape_error(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        with pytest.raises(ShapeError):
            validate_field(f.replace(rhos=np.zeros(3)))

    @staticmethod
    def reference_report(f):
        """The per-kernel loop that validate_field replaced."""
        out = []
        if not (0.0 <= f.timestamp <= 1.0):
            out.append(Violation(-1, "timestamp", f.timestamp))
        for i in range(f.n_gaussians):
            sx, sy = f.sigmas[i]
            rho = f.rhos[i]
            if not np.isfinite(sx) or sx < SIGMA_MIN:
                out.append(Violation(i, "sigma_x", float(sx)))
            if not np.isfinite(sy) or sy < SIGMA_MIN:
                out.append(Violation(i, "sigma_y", float(sy)))
            if not np.isfinite(rho) or abs(rho) > RHO_MAX:
                out.append(Violation(i, "rho", float(rho)))
            for k, comp in enumerate("xy"):
                v = f.offsets[i, k]
                if not np.isfinite(v) or v < 0.0 or v > f.max_offset:
                    out.append(Violation(i, f"offset_{comp}", float(v)))
            for k, comp in enumerate("rgb"):
                v = f.colors[i, k]
                if not np.isfinite(v) or v < 0.0 or v > 1.0:
                    out.append(Violation(i, f"color_{comp}", float(v)))
        return out

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(5)
        f = random_field(rng, 7, 5)
        bad = [np.nan, np.inf, -np.inf]
        offs, sig, rho, col = (
            f.offsets.copy(), f.sigmas.copy(), f.rhos.copy(), f.colors.copy()
        )
        # Every field kind gets a NaN, an inf and an out-of-range value, in
        # cells chosen so that one cell carries several violations.
        cells = rng.permutation(f.n_gaussians)[:12]
        for j, v in enumerate(bad + [1e-4]):
            sig[cells[j], j % 2] = v
        for j, v in enumerate(bad + [-1.0, 1.0]):
            rho[cells[j + 2]] = v
        for j, v in enumerate(bad + [-0.1, 2.5]):
            offs[cells[j + 4], j % 2] = v
        for j, v in enumerate(bad + [-0.2, 1.5]):
            col[cells[j + 6], j % 3] = v
        g = f.replace(offsets=offs, sigmas=sig, rhos=rho, colors=col, timestamp=1.5)
        got = validate_field(g)
        want = self.reference_report(g)
        assert len(want) == 20
        assert [str(v) for v in got] == [str(v) for v in want]
        assert {v.field for v in got} == {
            "timestamp", "sigma_x", "sigma_y", "rho", "offset_x", "offset_y",
            "color_r", "color_g", "color_b",
        }


class TestImageTypes:
    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            FrameBuffer(np.full((2, 2, 3), np.nan))
        with pytest.raises(ValidationError):
            FlowField(np.full((2, 2, 2), np.inf))

    def test_gaussian_accessor_round_trip(self):
        f = random_field(np.random.default_rng(2), 3, 2)
        g = f.gaussian(4)
        assert g.anchor == (1, 1)
        assert np.array_equal(g.offset, f.offsets[4])
        assert np.array_equal(g.center(), np.array([1.5, 1.5]) + f.offsets[4])


@settings(max_examples=200, deadline=None)
@given(
    sx=st.floats(0.01, 10.0),
    sy=st.floats(0.01, 10.0),
    rho=st.floats(-0.99, 0.99),
)
def test_valid_params_always_spd(sx, sy, rho):
    p = CovParams(sx, sy, rho)
    m = cov_matrix(p)
    assert cov_det(p) > 0
    assert np.all(np.linalg.eigvalsh(m) > 0)
