"""Covariance prior bank: construction, snap, fusion into logits, resampling.

All intermediate covariances are produced as softmax-weighted convex
combinations of a fixed, finite bank of (sigma_x, sigma_y, rho) entries.
That anchors every output inside the component-wise convex hull of the bank
(no covariance drift).

With zero padding the fuser's t channel is t inside the grid and 0 outside,
so each cell's logits are exactly linear in t: logits(t) = a + t * b.
``bank_candidates`` splits them once per input pair and keeps, per cell,
only the entries that can come within ``TAU`` of the cell's largest logit
somewhere in t in [0, 1], slot-major, with each kept entry's bank row
gathered there once.  ``resample_candidates`` then reads no bank: per frame
it takes the exp of an (M, N) array of shifted logits and one einsum of it
with the gathered rows over the M slots, with M the widest cell's candidate
count (M = 42 of K = 320 on a jittered bank with a t-dependent 3x3 fuser).
A dropped entry sits at least TAU below the cell maximum at every t in
[0, 1], so the dropped softmax mass is at most K * exp(-TAU) (1.4e-15 at
K = 320).  The pipeline derives every fuser's covariances this way;
``fuse`` and ``resample`` (a conv and a K-wide softmax) are the reference
path.

The snap (``nearest_entry_indices``, ``project_grid_to_bank``) sends each
covariance to its nearest entry in (log sx, log sy, atanh rho) space, ties
to the lowest index.  It screens all K entries with one (N, 4) @ (4, K)
GEMM and recomputes the exact per-axis distances only for the rows where
more than one entry lies within the screen's rounding slack, so it holds
one (N, K) float array and one (N, K) mask.

The value types below store their arrays through ``core.frozen_array``, and
a bank's entries obey the covariance rule of ``core.validate_field``
(``core.covariance_violations``).  Every softmax here is the one in-place
max-subtract / exp / divide of ``_softmax_in_place``, except that
``resample_candidates`` divides the weighted sum of the rows, not the
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from splatvid.core import (
    CovParams,
    ShapeError,
    ValidationError,
    covariance_violations,
    frozen_array,
)
from splatvid.nnops import conv2d, conv_windows

FUSER_IN_CHANNELS = 7  # (sx0, sy0, rho0, sx1, sy1, rho1, t)
ONE_HOT_LOGIT = 50.0
# Logit margin below a cell's maximum beyond which a bank entry is dropped.
TAU = 40.0
# bank_candidates works on blocks of whole grid rows of at most
# CANDIDATE_BLOCK // K cells (one row if that is less), so it never holds an
# (N, K) array.
CANDIDATE_BLOCK = 1 << 15


@dataclass(frozen=True)
class CpbBank:
    """Ordered list of K covariance parameter triples, stored as (K, 3)."""

    params: np.ndarray  # (K, 3) columns: sigma_x, sigma_y, rho

    def __post_init__(self):
        arr = frozen_array("CpbBank", self.params, 2, last=3, finite=False)
        if arr.shape[0] < 1:
            raise ShapeError(f"CpbBank: shape {arr.shape}, expected K >= 1")
        bad = np.flatnonzero(covariance_violations(arr).any(axis=1))
        if bad.size:
            raise ValidationError(f"bank entry {bad[0]} is {CovParams(*arr[bad[0]])}")
        if len({tuple(r) for r in arr.tolist()}) != arr.shape[0]:
            raise ValidationError("bank entries must be distinct")
        object.__setattr__(self, "params", arr)

    @property
    def size(self) -> int:
        return self.params.shape[0]

    def embedding(self) -> np.ndarray:
        """(K, 3) entries mapped to (log sx, log sy, atanh rho) space."""
        return _embed(self.params)


@dataclass(frozen=True)
class LogitField:
    """Per-cell K-vector of bank logits, shape (grid_h, grid_w, K)."""

    logits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "logits", frozen_array("LogitField", self.logits, 3))

    @property
    def k(self) -> int:
        return self.logits.shape[2]


@dataclass(frozen=True)
class CovGrid:
    """Per-cell covariance params, shape (grid_h, grid_w, 3)."""

    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", frozen_array("CovGrid", self.params, 3, last=3))


@dataclass(frozen=True)
class FuserWeights:
    """Loadable linear map from the 7-channel endpoint stack to K logits."""

    weights: np.ndarray  # (K, 7, kh, kw)
    bias: np.ndarray  # (K,)

    def __post_init__(self):
        w = frozen_array("FuserWeights.weights", self.weights, 4)
        b = frozen_array("FuserWeights.bias", self.bias, 1)
        if w.shape[1] != FUSER_IN_CHANNELS:
            raise ShapeError(f"fuser weights shape {w.shape}")
        if w.shape[2] % 2 != 1 or w.shape[3] % 2 != 1:
            raise ShapeError("fuser kernel size must be odd")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"fuser bias shape {b.shape} vs K={w.shape[0]}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def k(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class BankCandidates:
    """Per-cell candidate bank entries, slot-major: idx, a and b are
    (M, grid_h, grid_w) and params is (3, M, grid_h, grid_w).

    Slot m of a cell holds entry idx[m], whose logit at time t is
    a[m] + t * b[m] and whose bank row (sigma_x, sigma_y, rho) is
    params[:, m].  Cells with fewer than M candidates fill their first
    slots and pad the rest with idx 0, a = -inf, b = 0 and entry 0's bank
    row; a padding slot gets zero softmax weight, and its row stays finite,
    since zero times a NaN would poison the weighted sum.
    """

    idx: np.ndarray  # int32
    a: np.ndarray
    b: np.ndarray
    params: np.ndarray

    def __post_init__(self):
        # a holds -inf padding, so values are not checked.
        for name, dtype in (("idx", np.int32), ("a", np.float64), ("b", np.float64)):
            arr = getattr(self, name)
            arr = frozen_array(f"BankCandidates.{name}", arr, 3, finite=False, dtype=dtype)
            object.__setattr__(self, name, arr)
        params = frozen_array("BankCandidates.params", self.params, 4)
        object.__setattr__(self, "params", params)
        shape = self.idx.shape
        if not (self.a.shape == self.b.shape == shape and params.shape == (3, *shape)):
            shapes = (shape, self.a.shape, self.b.shape, params.shape)
            raise ShapeError(f"candidate shapes {shapes}")


def _embed(params: np.ndarray) -> np.ndarray:
    p = np.asarray(params, dtype=np.float64)
    out = np.empty_like(p)
    out[..., 0] = np.log(p[..., 0])
    out[..., 1] = np.log(p[..., 1])
    out[..., 2] = np.arctanh(p[..., 2])
    return out


def _softmax_in_place(w: np.ndarray, axis: int) -> np.ndarray:
    """Max-subtracted softmax of w along axis, written into w; returns w."""
    w -= np.max(w, axis=axis, keepdims=True)
    np.exp(w, out=w)
    w /= np.sum(w, axis=axis, keepdims=True)
    return w


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; weights strictly positive, sum to 1."""
    return _softmax_in_place(np.array(logits, dtype=np.float64), axis)


def build_bank(sigma_levels, rho_levels) -> CpbBank:
    """Cartesian-product bank over sigma_x x sigma_y x rho, lexicographic."""
    sig = [float(s) for s in sigma_levels]
    rho = [float(r) for r in rho_levels]
    if not sig or not rho:
        raise ValidationError("empty level list")
    entries = [(sx, sy, r) for sx in sig for sy in sig for r in rho]
    return CpbBank(np.array(entries, dtype=np.float64))


@cache
def default_bank() -> CpbBank:
    """8 log-spaced sigmas in [0.3, 3.0] x 5 uniform rhos in [-0.6, 0.6]; K=320.

    Built once per process: a CpbBank is immutable, so every caller shares it.
    """
    sig = np.geomspace(0.3, 3.0, 8)
    rho = np.linspace(-0.6, 0.6, 5)
    return build_bank(sig, rho)


def resample(e: LogitField, bank: CpbBank) -> CovGrid:
    """Softmax-weighted recombination of bank entries, per cell."""
    if e.k != bank.size:
        raise ShapeError(f"logit K={e.k} != bank K={bank.size}")
    gh, gw, k = e.logits.shape
    # The softmax on one writable copy, then one (N, K) @ (K, 3).
    w = _softmax_in_place(e.logits.reshape(gh * gw, k).copy(), axis=1)
    return CovGrid((w @ bank.params).reshape(gh, gw, 3))


def resample_candidates(c: BankCandidates, t: float) -> CovGrid:
    """resample(fuse(cov0, cov1, t, w), bank) from the candidates of
    bank_candidates(cov0, cov1, w, bank), to within K * exp(-TAU) relative
    weight per cell, for t in [0, 1], the range the pruning holds for.

    Reads no bank: the weights exp(z - max z) of z = a + t * b meet the
    gathered rows in one einsum over the M slots, and the (3, gh, gw) sum
    is divided by the weights' sum.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:  # also rejects NaN
        raise ValidationError(f"resample_candidates: t = {t} outside [0, 1]")
    z = c.b * t
    z += c.a
    z -= z.max(axis=0)
    np.exp(z, out=z)
    out = np.einsum("mhw,cmhw->chw", z, c.params)
    out /= z.sum(axis=0)
    return CovGrid(np.moveaxis(out, 0, -1))


def _nearest_by_difference(e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin over k of fl((e0-b0)^2 + (e1-b1)^2 + (e2-b2)^2) per row of
    the (N, 3) e, ties to the lowest index; the definition of the snap."""
    # Summed one axis at a time: the same values as np.sum over the last axis
    # of the (N, K, 3) difference, without materialising it.
    d2 = (e[:, 0, None] - b[:, 0]) ** 2
    d2 += (e[:, 1, None] - b[:, 1]) ** 2
    d2 += (e[:, 2, None] - b[:, 2]) ** 2
    return np.argmin(d2, axis=1)


def nearest_entry_indices(params: np.ndarray, bank: CpbBank) -> np.ndarray:
    """Index of the L2-nearest bank entry in (log s, log s, atanh rho) space.

    Works on any (..., 3) array.  The index is the argmin over k of
    fl((e0 - b0)^2 + (e1 - b1)^2 + (e2 - b2)^2), e the query's embedding and
    b_k the entry's, with ties to the lowest index.  It is found in two
    steps, with the same result.

    Screen: one GEMM [e, 1] @ [-2 b^T; |b|^2] gives s_k = |b_k|^2 - 2 e.b_k,
    which is |e - b_k|^2 - |e|^2 up to rounding.  Each computed s_k is a
    4-term dot product whose terms sum in absolute value to at most
    |e|^2 + 2 |b_k|^2 (2 |e_i b_ik| <= e_i^2 + b_ik^2), so it is within about
    5u (|e|^2 + 2 max|b|^2) of the exact value, u = 2^-53, in any order of
    summation.  The difference formula's own value is within about 5u of
    |e - b_k|^2 <= 2 (|e|^2 + |b_k|^2).  Comparing two entries therefore
    errs by less than 40u (|e|^2 + max|b|^2) in all, and an entry whose s_k
    exceeds the row's smallest by more than

        slack = 1e-9 (|e|^2 + max|b|^2 + 1)

    (over 1e5 times that; the + 1 keeps it positive at e = b = 0) is farther
    than the screen's argmin under the difference formula too.

    Exact check: a row with exactly one entry within the slack keeps the
    screen's argmin.  Every other row (a near or exact tie, or a non-finite
    query, which counts none) gets the difference formula over all K.
    """
    emb = _embed(np.asarray(params, dtype=np.float64))
    e = emb.reshape(-1, 3)
    b = bank.embedding()
    b2 = np.sum(b * b, axis=1)
    e1 = np.ones((e.shape[0], 4))
    e1[:, :3] = e
    s = e1 @ np.vstack([-2.0 * b.T, b2])
    idx = np.argmin(s, axis=1)
    cut = np.take_along_axis(s, idx[:, None], axis=1)
    cut += 1e-9 * (np.sum(e * e, axis=1, keepdims=True) + (b2.max() + 1.0))
    rows = np.flatnonzero(np.count_nonzero(s <= cut, axis=1) != 1)
    if rows.size:
        idx[rows] = _nearest_by_difference(e[rows], b)
    return idx.reshape(emb.shape[:-1])


def project_grid_to_bank(grid: CovGrid, bank: CpbBank) -> CovGrid:
    """Snap every cell to its nearest bank entry."""
    idx = nearest_entry_indices(grid.params, bank)
    return CovGrid(bank.params[idx])


def fuse(cov0: CovGrid, cov1: CovGrid, t: float, w: FuserWeights) -> LogitField:
    """Convolve the stacked (cov0, cov1, t) image into per-cell bank logits.

    Zero padding, stride 1; deterministic.
    """
    if cov0.params.shape != cov1.params.shape:
        raise ShapeError("endpoint covariance grids differ in shape")
    gh, gw, _ = cov0.params.shape
    x = np.concatenate(
        [cov0.params, cov1.params, np.full((gh, gw, 1), float(t))], axis=2
    )
    return LogitField(conv2d(x, w.weights, w.bias))


def bank_candidates(
    cov0: CovGrid, cov1: CovGrid, w: FuserWeights, bank: CpbBank
) -> BankCandidates:
    """Split fuse()'s logits into a + t * b and keep each cell's candidates.

    a is the logit at t = 0 and b its slope in t, the t-channel taps that
    fall inside the grid.  Entry k of a cell is kept iff
    max(a_k, a_k + b_k) >= max_j min(a_j, a_j + b_j) - TAU.  Both sides are
    linear in t, so a dropped entry is at least TAU below the cell maximum
    at every t in [0, 1], and the cell's maximum at any t is kept.  Built in
    blocks of grid rows; no (N, K) array is held.  The kept entries' bank
    rows are gathered here, once per pair, so that no frame reads the bank.
    """
    if cov0.params.shape != cov1.params.shape:
        raise ShapeError("endpoint covariance grids differ in shape")
    if w.k != bank.size:
        raise ShapeError(f"fuser K={w.k} != bank K={bank.size}")
    gh, gw, _ = cov0.params.shape
    k, _, kh, kw = w.weights.shape
    win_cov = conv_windows(np.concatenate([cov0.params, cov1.params], axis=2), kh, kw)
    # The t channel's windows at t = 1: 1 for a tap inside the grid, else 0.
    win_t = conv_windows(np.ones((gh, gw, 1)), kh, kw)
    w_cov = w.weights[:, : FUSER_IN_CHANNELS - 1].reshape(k, -1).T
    w_t = w.weights[:, FUSER_IN_CHANNELS - 1].reshape(k, -1).T
    step = max(1, CANDIDATE_BLOCK // (k * gw))  # grid rows per block
    blocks = []
    for r0 in range(0, gh, step):
        a = win_cov[r0 : r0 + step].reshape(-1, w_cov.shape[0]) @ w_cov
        a += w.bias
        b = win_t[r0 : r0 + step].reshape(-1, w_t.shape[0]) @ w_t
        a1 = a + b
        floor = np.max(np.minimum(a, a1), axis=1, keepdims=True)
        floor -= TAU
        np.maximum(a, a1, out=a1)
        keep = a1 >= floor
        flat = np.flatnonzero(keep)
        counts = np.count_nonzero(keep, axis=1)
        blocks.append((counts, flat % k, a.take(flat), b.take(flat)))
    # The arrays the context keeps outlive the next pair's fit, so they are
    # allocated with as little else live as one pass allows: after the block
    # temporaries are freed, and the bank rows after the kept lists are.  On
    # the 48x32 benchmark pair, building blocks from window views rather than
    # from one whole column matrix cut peak RSS by about 0.4 MB.
    del a, b, a1, floor, keep, flat, counts, win_cov, win_t
    counts, cols, a_kept, b_kept = (np.concatenate(v) for v in zip(*blocks))
    del blocks
    m, n = int(counts.max()), gh * gw
    # Candidates come out cell by cell, each cell's filling its first slots,
    # so each array is laid out cell-major and then transposed once.
    slot = np.arange(m) < counts[:, None]

    def slot_major(pad, kept, dtype):
        out = np.full((n, m), pad, dtype=dtype)
        out[slot] = kept
        return np.ascontiguousarray(out.T).reshape(m, gh, gw)

    idx = slot_major(0, cols, np.int32)
    a_out = slot_major(-np.inf, a_kept, np.float64)
    b_out = slot_major(0.0, b_kept, np.float64)
    del slot, cols, a_kept, b_kept
    # take() along the bank's columns gathers far faster than params[idx].
    params = np.take(bank.params.T, idx, axis=1)  # (3, m, gh, gw)
    return BankCandidates(idx, a_out, b_out, params)


def baseline_fuser(bank: CpbBank, sharpness: float = 200.0) -> FuserWeights:
    """Calibrated training-free fuser.

    Construction: for entry e_k, logit_k = b*(e_k . (p0 + p1) - |e_k|^2),
    a 1x1 linear map.  Up to a per-cell constant (which softmax ignores)
    this equals -b * |pmid - e_k|^2 with pmid = (p0 + p1)/2, so the softmax
    concentrates on the bank entry nearest the averaged endpoint params.
    For temporally stable covariances (p0 ~ p1) this approximates snapping
    the per-parameter linear interpolation onto the bank; the time channel
    carries zero weight, so static inputs yield time-independent output.
    """
    e = bank.params  # (K, 3)
    k = bank.size
    w = np.zeros((k, FUSER_IN_CHANNELS, 1, 1), dtype=np.float64)
    w[:, 0:3, 0, 0] = sharpness * e
    w[:, 3:6, 0, 0] = sharpness * e
    bias = -sharpness * np.sum(e * e, axis=1)
    return FuserWeights(w, bias)
