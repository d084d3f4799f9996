"""Covariance algebra, domain-type invariants, and field validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatvid.core import (
    RHO_MAX,
    SIGMA_MIN,
    CovParams,
    Density,
    FeatureMap,
    FlowField,
    FrameBuffer,
    GaussianField,
    ShapeError,
    ValidationError,
    Violation,
    cov_det,
    cov_inverse,
    cov_matrix,
    covariance_violations,
    frozen_array,
    validate_field,
)
from splatvid.cpb import BankCandidates, CovGrid, CpbBank, FuserWeights, LogitField
from splatvid.motion import WindowMap
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


class TestValidateField:
    def test_valid_field_empty_report(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        assert validate_field(f) == []

    def test_boundary_rho_flagged(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        rhos = f.rhos.copy()
        rhos[5] = 1.0
        report = validate_field(dataclasses.replace(f, rhos=rhos))
        assert len(report) == 1
        assert report[0].cell == 5 and report[0].field == "rho"

    def test_offset_out_of_base_range_flagged(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        offs = f.offsets.copy()
        offs[3] = [1.5, 0.2]
        report = validate_field(dataclasses.replace(f, offsets=offs))
        assert len(report) == 1
        assert report[0].cell == 3 and report[0].field == "offset_x"

    def test_window_scaled_offsets_allowed(self):
        f = random_field(np.random.default_rng(1), 4, 4)
        offs = f.offsets.copy()
        offs[3] = [4.5, 0.2]
        assert validate_field(dataclasses.replace(f, offsets=offs, max_offset=10.0)) == []

    def test_shape_error(self):
        # A kernel count other than the grid's is rejected when the field is
        # built, so validate_field only ever sees well-shaped arrays.
        f = random_field(np.random.default_rng(1), 4, 4)
        for name in ("offsets", "sigmas", "rhos", "colors"):
            with pytest.raises(ShapeError, match=f"GaussianField.{name}"):
                dataclasses.replace(f, **{name: getattr(f, name)[:-1]})

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
        g = dataclasses.replace(
            f, offsets=offs, sigmas=sig, rhos=rho, colors=col, timestamp=1.5
        )
        got = validate_field(g)
        want = self.reference_report(g)
        assert len(want) == 20
        assert [str(v) for v in got] == [str(v) for v in want]
        assert {v.field for v in got} == {
            "timestamp", "sigma_x", "sigma_y", "rho", "offset_x", "offset_y",
            "color_r", "color_g", "color_b",
        }


    def test_kernel_views_apply_the_same_rule(self):
        # Gaussian2D.validate and CovParams.validate reject exactly the
        # kernels that validate_field reports, and name the first bad value.
        rng = np.random.default_rng(6)
        f = random_field(rng, 6, 5)
        values = {
            "sigmas": f.sigmas.copy(),
            "rhos": f.rhos.copy(),
            "offsets": f.offsets.copy(),
            "colors": f.colors.copy(),
        }
        cells = rng.permutation(f.n_gaussians)[:16]
        injected = [
            ("sigmas", (0, 0), np.nan), ("sigmas", (1, 1), 5e-4),
            ("rhos", 2, 1.0), ("rhos", 3, -np.inf),
            ("offsets", (4, 0), -0.1), ("offsets", (5, 1), 1.5),
            ("colors", (6, 2), np.inf), ("colors", (7, 0), 1.2),
        ]
        for name, at, v in injected:
            idx = (cells[at[0]], at[1]) if isinstance(at, tuple) else cells[at]
            values[name][idx] = v
        # One cell with two bad values: the covariance one is named first.
        values["rhos"][cells[8]] = -1.5
        values["colors"][cells[8], 1] = -0.5
        g = dataclasses.replace(f, **values)
        first = {}
        for v in validate_field(g):
            first.setdefault(v.cell, v.field)
        assert len(first) == 9
        for i in range(g.n_gaussians):
            kernel = g.gaussian(i)
            if i in first:
                with pytest.raises(ValidationError, match=f": {first[i]}="):
                    kernel.validate(max_offset=g.max_offset)
            else:
                kernel.validate(max_offset=g.max_offset)
            cov_bad = first.get(i) in ("sigma_x", "sigma_y", "rho")
            if cov_bad:
                with pytest.raises(ValidationError, match=f": {first[i]}="):
                    kernel.cov.validate()
            else:
                kernel.cov.validate()


# Every value type that stores arrays: (type, valid arrays, other fields,
# arrays whose last axis is checked, arrays whose values must be finite).
# GaussianField and BankCandidates' idx, a and b leave values unchecked:
# validate_field reports a field's, and candidates are padded with -inf.  A
# candidate's bank row must be finite, since a padding slot's zero weight
# meets it in the weighted sum.
VALUE_TYPES = [
    (FlowField, {"vectors": np.zeros((3, 4, 2))}, {}, {"vectors"}, {"vectors"}),
    (FrameBuffer, {"pixels": np.zeros((3, 4, 3))}, {}, {"pixels"}, {"pixels"}),
    (FeatureMap, {"data": np.zeros((3, 4, 5))}, {}, set(), {"data"}),
    (
        GaussianField,
        {
            "offsets": np.full((6, 2), 0.5),
            "sigmas": np.full((6, 2), 0.7),
            "rhos": np.zeros(6),
            "colors": np.full((6, 3), 0.2),
        },
        {"lr_width": 3, "lr_height": 2, "density": Density.ONE_PER_PIXEL},
        {"offsets", "sigmas", "colors"},
        set(),
    ),
    (
        CpbBank,
        {"params": np.array([[1.0, 1.0, 0.0], [0.5, 2.0, 0.3]])},
        {},
        {"params"},
        {"params"},
    ),
    (LogitField, {"logits": np.zeros((2, 3, 4))}, {}, set(), {"logits"}),
    (CovGrid, {"params": np.full((2, 3, 3), 0.5)}, {}, {"params"}, {"params"}),
    (
        FuserWeights,
        {"weights": np.zeros((2, 7, 3, 1)), "bias": np.zeros(2)},
        {},
        set(),
        {"weights", "bias"},
    ),
    (
        BankCandidates,
        {
            "idx": np.zeros((4, 2, 3), dtype=np.int32),
            "a": np.full((4, 2, 3), -np.inf),
            "b": np.zeros((4, 2, 3)),
            "params": np.full((3, 4, 2, 3), 0.5),
        },
        {},
        set(),
        {"params"},
    ),
    (WindowMap, {"values": np.ones((2, 3))}, {}, set(), {"values"}),
]


def build_value(case, name=None, value=None):
    """The case's object, with array ``name`` (if given) set to ``value``."""
    cls, arrays, other = case[:3]
    kwargs = {**other, **{k: v.copy() for k, v in arrays.items()}}
    if name is not None:
        kwargs[name] = value
    return cls(**kwargs)


@pytest.mark.parametrize("case", VALUE_TYPES, ids=[c[0].__name__ for c in VALUE_TYPES])
class TestFrozenValueTypes:
    def test_stores_read_only_contiguous_arrays(self, case):
        obj = build_value(case)
        for name, given in case[1].items():
            arr = getattr(obj, name)
            assert not arr.flags.writeable and arr.flags.c_contiguous
            assert arr.dtype == given.dtype and np.array_equal(arr, given)
            with pytest.raises(ValueError):
                arr.flat[0] = 1

    def test_wrong_ndim_raises_shape_error(self, case):
        for name, given in case[1].items():
            for bad in (given[..., None], given[0]):
                with pytest.raises(ShapeError):
                    build_value(case, name, bad)

    def test_wrong_last_axis_raises_shape_error(self, case):
        for name in case[3]:
            given = case[1][name]
            wider = np.concatenate([given, given[..., :1]], axis=-1)
            with pytest.raises(ShapeError):
                build_value(case, name, wider)

    def test_non_finite_values(self, case):
        for name, given in case[1].items():
            if given.dtype != np.float64:
                continue
            for v in (np.nan, np.inf):
                bad = given.copy()
                bad.flat[-1] = v
                if name in case[4]:
                    with pytest.raises(ValidationError):
                        build_value(case, name, bad)
                else:
                    stored = getattr(build_value(case, name, bad), name)
                    assert np.array_equal(stored, bad, equal_nan=True)


class TestFrozenArray:
    def test_keeps_a_conforming_array_without_copying(self):
        a = np.zeros((2, 3))
        assert frozen_array("a", a, 2, last=3) is a
        assert not a.flags.writeable

    def test_converts_dtype_and_layout(self):
        a = np.arange(6, dtype=np.int64).reshape(2, 3).T
        out = frozen_array("a", a, 2)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert np.array_equal(out, a) and a.flags.writeable

    @settings(max_examples=100, deadline=None)
    @given(
        row=st.tuples(
            st.sampled_from([0.0, 1e-4, SIGMA_MIN, 0.7, np.nan, np.inf]),
            st.sampled_from([-np.inf, 1e-4, SIGMA_MIN, 2.0]),
            st.sampled_from([-1.0, -RHO_MAX, 0.0, 0.999999, 1.0, np.nan]),
        )
    )
    def test_covariance_rule_matches_cov_params(self, row):
        try:
            CovParams(*row).validate()
            valid = True
        except ValidationError:
            valid = False
        assert valid == (not covariance_violations(np.array([row])).any())


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
