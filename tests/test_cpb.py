"""Covariance prior bank: construction, projection, fusion, resampling,
and the per-cell candidate resample that serves every fuser."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splatvid import synth
from splatvid.core import RHO_MAX, SIGMA_MIN, ShapeError, ValidationError
from splatvid.cpb import (
    CANDIDATE_BLOCK,
    FUSER_IN_CHANNELS,
    TAU,
    CovGrid,
    CpbBank,
    FuserWeights,
    LogitField,
    bank_candidates,
    baseline_fuser,
    build_bank,
    default_bank,
    _embed,
    fuse,
    nearest_entry_indices,
    project_grid_to_bank,
    resample,
    resample_candidates,
    softmax,
)


class TestBuildBank:
    def test_single_entry(self):
        bank = build_bank([1.0], [0.0])
        assert bank.size == 1
        assert tuple(bank.params[0]) == (1.0, 1.0, 0.0)

    def test_lexicographic_enumeration(self):
        bank = build_bank([0.5, 1.0], [0.0])
        assert bank.size == 4
        expected = [(0.5, 0.5, 0.0), (0.5, 1.0, 0.0), (1.0, 0.5, 0.0), (1.0, 1.0, 0.0)]
        assert [tuple(r) for r in bank.params] == expected

    def test_default_bank_against_triple_loop(self):
        bank = default_bank()
        sig = np.geomspace(0.3, 3.0, 8)
        rho = np.linspace(-0.6, 0.6, 5)
        # Independent enumeration oracle.
        count = 0
        for i, sx in enumerate(sig):
            for j, sy in enumerate(sig):
                for k, r in enumerate(rho):
                    assert tuple(bank.params[count]) == (sx, sy, r)
                    count += 1
        assert count == bank.size == 320

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValidationError):
            build_bank([], [0.0])
        with pytest.raises(ValidationError):
            build_bank([1.0], [1.0])
        with pytest.raises(ValidationError):
            CpbBank(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))  # duplicate
        with pytest.raises(ValidationError):
            build_bank([1.0, 1e-4], [0.0])  # sigma below SIGMA_MIN
        with pytest.raises(ValidationError):
            CpbBank(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, -1.0]]))  # |rho| = 1


class TestResample:
    def test_one_hot_saturation(self):
        bank = build_bank([0.5, 1.0, 2.0], [-0.4, 0.0, 0.4])
        logits = np.zeros((1, 1, bank.size))
        logits[0, 0, 7] = 50.0
        out = resample(LogitField(logits), bank).params[0, 0]
        assert np.allclose(out, bank.params[7], atol=1e-9)

    def test_uniform_mean(self):
        bank = CpbBank(np.array([[1.0, 1.0, 0.0], [3.0, 3.0, 0.0]]))
        out = resample(LogitField(np.zeros((2, 2, 2))), bank).params
        assert np.allclose(out, [2.0, 2.0, 0.0], atol=1e-12)

    def test_log_weights_against_exponentiation_oracle(self):
        bank = CpbBank(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))
        logits = np.array([[[math.log(1.0), math.log(3.0)]]])
        out = resample(LogitField(logits), bank).params[0, 0]
        # Direct exponentiation oracle: weights = (1, 3)/4 = (0.25, 0.75).
        w = np.array([math.exp(v) for v in logits[0, 0]])
        w /= w.sum()
        assert np.allclose(w, [0.25, 0.75], atol=1e-12)
        assert np.allclose(out, [1.75, 1.75, 0.0], atol=1e-12)

    def test_k_mismatch(self):
        bank = build_bank([1.0, 2.0], [0.0])
        with pytest.raises(ShapeError):
            resample(LogitField(np.zeros((1, 1, 3))), bank)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        bank = default_bank()
        perm = rng.permutation(bank.size)
        logits = rng.normal(0, 3, (3, 4, bank.size))
        a = resample(LogitField(logits), bank).params
        b = resample(LogitField(logits[:, :, perm]), CpbBank(bank.params[perm])).params
        assert np.allclose(a, b, atol=1e-12)


class TestProjectToBank:
    def test_exact_entry(self):
        bank = default_bank()
        j = 123
        assert nearest_entry_indices(bank.params[j], bank) == j

    def test_tie_breaks_low_index(self):
        # Entries 0 and 1 are (sigma_x, sigma_y) transposes, so any isotropic
        # query is exactly equidistant from both; the tie goes to index 0.
        bank = CpbBank(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [3.0, 3.0, 0.0]]))
        assert nearest_entry_indices(np.array([1.5, 1.5, 0.0]), bank) == 0

    def test_against_exhaustive_scan(self):
        bank = default_bank()
        idx = nearest_entry_indices(np.array([1.1, 1.1, 0.05]), bank)
        # Independent oracle: plain python linear scan in embedding space.
        q = (math.log(1.1), math.log(1.1), math.atanh(0.05))
        best, best_d = None, float("inf")
        for i in range(bank.size):
            sx, sy, r = bank.params[i]
            e = (math.log(sx), math.log(sy), math.atanh(r))
            d = sum((a - b) ** 2 for a, b in zip(q, e))
            if d < best_d:
                best, best_d = i, d
        assert idx == best

    def test_grid_matches_full_difference(self):
        # Each cell's nearest entry of a jittered bank must equal the argmin
        # over the whole (cells, K, 3) difference.
        bank = synth.jittered_bank(np.random.default_rng(1))
        grid = random_cov_grid(np.random.default_rng(6), 20, 30).params
        want = full_difference_nearest(grid, bank)
        got = nearest_entry_indices(grid, bank)
        assert got.shape == (20, 30) and np.array_equal(got, want)
        snapped = project_grid_to_bank(CovGrid(grid), bank).params
        assert np.array_equal(snapped, bank.params[want])


def full_difference_nearest(params, bank):
    """The snap's oracle: argmin over the whole (..., K, 3) difference."""
    d = _embed(params)[..., None, :] - bank.embedding()
    return np.argmin(np.sum(d * d, axis=-1), axis=-1)


SNAP_BANKS = {
    "default": default_bank,
    "jittered": lambda: synth.jittered_bank(np.random.default_rng(4)),
}


class TestSnapOracle:
    """nearest_entry_indices (a GEMM screen plus an exact check of its near
    ties) against the full-difference argmin, on queries where the screen's
    rounding could pick another entry."""

    @pytest.fixture(params=list(SNAP_BANKS))
    def bank(self, request):
        return SNAP_BANKS[request.param]()

    def check(self, params, bank):
        got = nearest_entry_indices(params, bank)
        want = full_difference_nearest(params, bank)
        assert got.shape == want.shape and np.array_equal(got, want)
        return got

    def test_random_queries(self, bank):
        self.check(random_cov_grid(np.random.default_rng(8), 30, 40).params, bank)

    def test_every_entry_is_its_own_nearest(self, bank):
        got = self.check(bank.params, bank)
        assert np.array_equal(got, np.arange(bank.size))

    def test_transposed_entries_tie_to_the_lower_index(self):
        # An isotropic query is exactly as far from (a, b, r) as from
        # (b, a, r), in either order of the bank; the lower index wins.
        q = np.array([math.sqrt(2.0), math.sqrt(2.0), 0.1])
        pair = np.array([[2.0, 1.0, 0.1], [1.0, 2.0, 0.1]])
        for entries in (pair, pair[::-1]):
            assert self.check(q, CpbBank(entries)) == 0

    def test_equidistant_midpoints_tie_to_the_lower_index(self):
        # Midpoints between levels placed symmetrically in the embedding
        # (log 0.5 = -log 2, atanh -0.5 = -atanh 0.5): two or four entries
        # tie exactly, and the lowest index wins.
        bank = build_bank([0.5, 2.0], [-0.5, 0.5])
        q = [[1.0, 0.5, 0.5], [0.5, 1.0, -0.5], [2.0, 2.0, 0.0], [1.0, 1.0, 0.0]]
        assert self.check(np.array(q), bank).tolist() == [1, 0, 6, 0]

    def test_midpoints_moved_by_ulps(self, bank):
        # synth.snap_ties: the entries, the entries made isotropic (tied
        # between transposes on the default bank), and nearest-pair
        # midpoints moved by 1-4 ulps.
        self.check(synth.snap_ties(bank), bank)

    @pytest.mark.parametrize(
        "sigmas, rho",
        [
            ((SIGMA_MIN, SIGMA_MIN * 1.5), 0.0),
            ((1e4, 2e6), 0.3),
            ((0.7, 1.3), RHO_MAX),
            ((2.0, 0.4), -RHO_MAX),
            ((SIGMA_MIN, 1e6), -RHO_MAX),
        ],
    )
    def test_extreme_params(self, bank, sigmas, rho):
        q = np.array([[*sigmas, rho], [sigmas[1], sigmas[0], -rho]])
        near = np.nextafter(q, 0.0)
        self.check(np.concatenate([q, near]), bank)

    def test_single_entry_bank(self):
        bank = build_bank([1.3], [0.2])
        got = self.check(random_cov_grid(np.random.default_rng(9), 4, 5).params, bank)
        assert np.all(got == 0)

    def test_zero_dimensional_query(self, bank):
        got = self.check(bank.params[57], bank)
        assert got.shape == () and got == 57

    def test_empty_grid(self, bank):
        got = self.check(np.zeros((0, 3)), bank)
        assert got.shape == (0,)


class TestFuse:
    def test_zero_weights_yield_bias(self):
        bank = build_bank([1.0, 2.0], [0.0])
        bias = np.array([0.3, -1.2, 4.0, 0.0])
        w = FuserWeights(np.zeros((4, 7, 3, 3)), bias)
        grid = CovGrid(np.full((3, 3, 3), [1.0, 1.0, 0.0]))
        logits = fuse(grid, grid, 0.5, w).logits
        assert np.allclose(logits, bias, atol=1e-15)

    def test_one_hot_bias_composition(self):
        bank = build_bank([0.5, 1.0, 2.0], [0.0])
        bias = np.zeros(bank.size)
        j = 4
        bias[j] = 50.0
        w = FuserWeights(np.zeros((bank.size, 7, 1, 1)), bias)
        grid = CovGrid(np.full((2, 2, 3), [1.0, 1.0, 0.0]))
        out = resample(fuse(grid, grid, 0.5, w), bank).params
        assert np.allclose(out, bank.params[j], atol=1e-9)

    def test_against_naive_convolution_oracle(self):
        rng = np.random.default_rng(1)
        k = 6
        w = FuserWeights(rng.normal(0, 1, (k, 7, 3, 3)), rng.normal(0, 1, k))
        cov0 = CovGrid(
            np.stack(
                [
                    rng.uniform(0.3, 3.0, (4, 4)),
                    rng.uniform(0.3, 3.0, (4, 4)),
                    rng.uniform(-0.6, 0.6, (4, 4)),
                ],
                axis=2,
            )
        )
        cov1 = CovGrid(cov0.params[::-1].copy())
        t = 0.3
        logits = fuse(cov0, cov1, t, w).logits
        # Naive nested-loop cross-correlation with zero padding.
        x = np.concatenate(
            [cov0.params, cov1.params, np.full((4, 4, 1), t)], axis=2
        )
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        ref = np.zeros((4, 4, k))
        for y in range(4):
            for xx in range(4):
                for o in range(k):
                    acc = w.bias[o]
                    for c in range(7):
                        for dy in range(3):
                            for dx in range(3):
                                acc += xp[y + dy, xx + dx, c] * w.weights[o, c, dy, dx]
                    ref[y, xx, o] = acc
        assert np.allclose(logits, ref, atol=1e-10)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(2)
        k = 5
        w1 = rng.normal(0, 1, (k, 7, 1, 1))
        w2 = rng.normal(0, 1, (k, 7, 1, 1))
        zero_bias = np.zeros(k)
        grid0 = CovGrid(np.full((3, 2, 3), [1.4, 0.7, 0.2]))
        grid1 = CovGrid(np.full((3, 2, 3), [0.8, 1.1, -0.3]))
        a = fuse(grid0, grid1, 0.25, FuserWeights(w1, zero_bias)).logits
        b = fuse(grid0, grid1, 0.25, FuserWeights(w2, zero_bias)).logits
        ab = fuse(grid0, grid1, 0.25, FuserWeights(w1 + w2, zero_bias)).logits
        assert np.allclose(a + b, ab, atol=1e-10)

    def test_shape_mismatch(self):
        bank = build_bank([1.0], [0.0])
        w = baseline_fuser(bank)
        with pytest.raises(ShapeError):
            fuse(
                CovGrid(np.full((2, 2, 3), [1.0, 1.0, 0.0])),
                CovGrid(np.full((3, 2, 3), [1.0, 1.0, 0.0])),
                0.0,
                w,
            )


class TestBaselineFuser:
    def test_endpoint_sanity_within_quantization_step(self):
        rng = np.random.default_rng(3)
        bank = default_bank()
        fuser = baseline_fuser(bank)
        # Largest gap between adjacent sigma levels: the worst rounding error.
        step = np.max(np.diff(np.unique(bank.params[:, 0])))
        # Temporally stable covariances: endpoint 1 is a small perturbation.
        base = np.stack(
            [
                rng.uniform(0.35, 2.8, (5, 5)),
                rng.uniform(0.35, 2.8, (5, 5)),
                rng.uniform(-0.55, 0.55, (5, 5)),
            ],
            axis=2,
        )
        pert = base + rng.normal(0, 0.01, base.shape) * [1, 1, 0.5]
        pert[..., 2] = np.clip(pert[..., 2], -0.6, 0.6)
        out = resample(fuse(CovGrid(base), CovGrid(pert), 0.0, fuser), bank).params
        err = np.abs(out[..., 0:2] - base[..., 0:2]).mean()
        assert err <= step


def corner_t_tap_fuser():
    """TestDeriveCache's fuser (test_pipeline_cli.py): the baseline 1x1 map
    at the centre of a 3x3 kernel, a t-weight at one corner tap only."""
    bank = default_bank()
    base = baseline_fuser(bank)
    w = np.zeros((bank.size, FUSER_IN_CHANNELS, 3, 3))
    w[:, :, 1, 1] = base.weights[:, :, 0, 0]
    w[:, FUSER_IN_CHANNELS - 1, 0, 0] = np.random.default_rng(4).normal(
        0.0, 100.0, bank.size
    )
    return bank, FuserWeights(w, base.bias)


def jittered_3x3_fuser():
    """A jittered K = 320 bank and a seeded 3x3 fuser of t-tap std 4."""
    rng = np.random.default_rng(7)
    bank = synth.jittered_bank(rng)
    return bank, synth.t_dependent_fuser(rng, bank)


def all_candidates_fuser():
    """A soft 1x1 fuser whose t weights keep every entry a candidate."""
    bank = default_bank()
    base = baseline_fuser(bank, sharpness=1.0)
    w = base.weights.copy()
    w[:, FUSER_IN_CHANNELS - 1] = np.random.default_rng(8).normal(
        0.0, 8.0, (bank.size, 1, 1)
    )
    return bank, FuserWeights(w, base.bias)


def default_baseline_fuser():
    """The t-free fuser of every default run: the baseline on the default bank."""
    bank = default_bank()
    return bank, baseline_fuser(bank)


CANDIDATE_FUSERS = {
    "baseline": default_baseline_fuser,
    "corner-t-tap": corner_t_tap_fuser,
    "jittered-3x3": jittered_3x3_fuser,
    "all-candidates": all_candidates_fuser,
}
CANDIDATE_TIMES = (0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0)


def random_cov_grid(rng, gh=6, gw=7):
    sigmas = rng.uniform(0.4, 2.0, (gh, gw, 2))
    return CovGrid(np.dstack([sigmas, rng.uniform(-0.7, 0.7, (gh, gw))]))


class TestBankCandidates:
    @pytest.fixture(params=list(CANDIDATE_FUSERS))
    def case(self, request):
        bank, fuser = CANDIDATE_FUSERS[request.param]()
        rng = np.random.default_rng(2)
        # 24 rows of 20 cells: five blocks of grid rows, the last one short.
        cov0, cov1 = random_cov_grid(rng, 24, 20), random_cov_grid(rng, 24, 20)
        assert CANDIDATE_BLOCK // (bank.size * 20) == 5
        return bank, fuser, cov0, cov1, bank_candidates(cov0, cov1, fuser, bank)

    def test_matches_full_resample(self, case):
        bank, fuser, cov0, cov1, cands = case
        for t in CANDIDATE_TIMES:
            full = resample(fuse(cov0, cov1, t, fuser), bank).params
            got = resample_candidates(cands, t, bank).params
            assert got.shape == full.shape
            for col in range(3):
                assert np.abs(got[..., col] - full[..., col]).max() <= 1e-12, (t, col)

    def test_dropped_entries_are_tau_below_max(self, case):
        bank, fuser, cov0, cov1, cands = case
        fin = np.isfinite(cands.a)
        gy, gx, _ = np.nonzero(fin)
        entry = cands.idx[fin]  # row-major, as nonzero
        kept = np.zeros(cov0.params.shape[:2] + (bank.size,), dtype=bool)
        kept[gy, gx, entry] = True
        logits = {t: fuse(cov0, cov1, t, fuser).logits for t in (0.0, 1.0)}
        # The kept entries carry the split logits: a at t = 0, a + b at t = 1.
        a, a1 = cands.a[fin], (cands.a + cands.b)[fin]
        assert np.allclose(a, logits[0.0][gy, gx, entry], rtol=0, atol=1e-9)
        assert np.allclose(a1, logits[1.0][gy, gx, entry], rtol=0, atol=1e-9)
        for t, lg in logits.items():
            top = lg.max(axis=2, keepdims=True)
            # 1e-9 leaves room for the rounding of the two logit paths.
            assert np.all((lg <= top - TAU + 1e-9) | kept), t

    def test_candidate_layout(self, case):
        _, _, _, _, cands = case
        counts = np.isfinite(cands.a).sum(axis=2)
        assert counts.min() >= 1
        assert cands.idx.shape[2] == counts.max()
        assert cands.idx.dtype == np.int32
        # Padding: idx 0, a = -inf, b = 0, after each cell's candidates.
        pad = ~np.isfinite(cands.a)
        assert np.all(cands.a[pad] == -np.inf)
        assert np.all(cands.b[pad] == 0.0) and np.all(cands.idx[pad] == 0)
        assert np.all(np.diff(pad.astype(np.int8), axis=2) >= 0)

    def test_all_candidates_fuser_keeps_every_entry(self):
        bank, fuser = all_candidates_fuser()
        rng = np.random.default_rng(2)
        cands = bank_candidates(random_cov_grid(rng), random_cov_grid(rng), fuser, bank)
        assert cands.idx.shape[2] == bank.size
        assert np.all(np.isfinite(cands.a))

    def test_jittered_fuser_prunes(self):
        bank, fuser = jittered_3x3_fuser()
        rng = np.random.default_rng(2)
        cands = bank_candidates(random_cov_grid(rng), random_cov_grid(rng), fuser, bank)
        assert cands.idx.shape[2] < bank.size // 4

    def test_shape_and_k_mismatch(self):
        bank, fuser = corner_t_tap_fuser()
        rng = np.random.default_rng(2)
        cov = random_cov_grid(rng)
        with pytest.raises(ShapeError):
            bank_candidates(cov, random_cov_grid(rng, 5, 7), fuser, bank)
        with pytest.raises(ShapeError):
            bank_candidates(cov, cov, fuser, build_bank([1.0], [0.0]))


@settings(max_examples=100, deadline=None)
@given(
    logits=arrays(
        np.float64,
        (2, 2, 6),
        elements=st.floats(-60, 60, allow_nan=False),
    )
)
def test_softmax_weights_sum_to_one_and_positive(logits):
    w = softmax(logits, axis=-1)
    assert np.all(w > 0)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-9)
