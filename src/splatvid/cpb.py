"""Covariance prior bank: construction, fusion into logits, and resampling.

All intermediate covariances are produced as softmax-weighted convex
combinations of a fixed, finite bank of (sigma_x, sigma_y, rho) entries.
That anchors every output inside the component-wise convex hull of the bank
(no covariance drift).

With zero padding the fuser's t channel is t inside the grid and 0 outside,
so each cell's logits are exactly linear in t: logits(t) = a + t * b.
``bank_candidates`` splits them once per input pair and keeps, per cell,
only the entries that can come within ``TAU`` of the cell's largest logit
somewhere in t in [0, 1]; ``resample_candidates`` then costs an (N, M)
softmax per frame, with M the widest cell's candidate count (M = 42 of
K = 320 on a jittered bank with a t-dependent 3x3 fuser).  A dropped entry
sits at least TAU below the cell maximum at every t in [0, 1], so the
dropped softmax mass is at most K * exp(-TAU) (1.4e-15 at K = 320).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from splatvid.core import CovParams, ShapeError, ValidationError
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
        arr = np.ascontiguousarray(self.params, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
            raise ShapeError(f"bank params shape {arr.shape}")
        for row in arr:
            CovParams(*row).validate()
        if len({tuple(r) for r in arr.tolist()}) != arr.shape[0]:
            raise ValidationError("bank entries must be distinct")
        arr.setflags(write=False)
        object.__setattr__(self, "params", arr)

    @property
    def size(self) -> int:
        return self.params.shape[0]

    def entry(self, i: int) -> CovParams:
        return CovParams(*self.params[i])

    def embedding(self) -> np.ndarray:
        """(K, 3) entries mapped to (log sx, log sy, atanh rho) space."""
        return _embed(self.params)


@dataclass(frozen=True)
class LogitField:
    """Per-cell K-vector of bank logits, shape (grid_h, grid_w, K)."""

    logits: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.logits, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"logits shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("non-finite logits")
        arr.setflags(write=False)
        object.__setattr__(self, "logits", arr)

    @property
    def k(self) -> int:
        return self.logits.shape[2]


@dataclass(frozen=True)
class CovGrid:
    """Per-cell covariance params, shape (grid_h, grid_w, 3)."""

    params: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.params, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ShapeError(f"cov grid shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("non-finite covariance grid")
        arr.setflags(write=False)
        object.__setattr__(self, "params", arr)


@dataclass(frozen=True)
class FuserWeights:
    """Loadable linear map from the 7-channel endpoint stack to K logits."""

    weights: np.ndarray  # (K, 7, kh, kw)
    bias: np.ndarray  # (K,)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        b = np.ascontiguousarray(self.bias, dtype=np.float64)
        if w.ndim != 4 or w.shape[1] != FUSER_IN_CHANNELS:
            raise ShapeError(f"fuser weights shape {w.shape}")
        if w.shape[2] % 2 != 1 or w.shape[3] % 2 != 1:
            raise ShapeError("fuser kernel size must be odd")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"fuser bias shape {b.shape} vs K={w.shape[0]}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValidationError("non-finite fuser weights")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def k(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class BankCandidates:
    """Per-cell candidate bank entries, each array (grid_h, grid_w, M).

    Entry idx[..., m] of a cell has logit a[..., m] + t * b[..., m] at time
    t.  Cells with fewer than M candidates are padded with idx 0, a = -inf
    and b = 0, which get zero softmax weight.
    """

    idx: np.ndarray  # int32
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.idx, dtype=np.int32)
        a = np.ascontiguousarray(self.a, dtype=np.float64)
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        if idx.ndim != 3 or a.shape != idx.shape or b.shape != idx.shape:
            raise ShapeError(f"candidate shapes {idx.shape}, {a.shape}, {b.shape}")
        for arr in (idx, a, b):
            arr.setflags(write=False)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _embed(params: np.ndarray) -> np.ndarray:
    p = np.asarray(params, dtype=np.float64)
    out = np.empty_like(p)
    out[..., 0] = np.log(p[..., 0])
    out[..., 1] = np.log(p[..., 1])
    out[..., 2] = np.arctanh(p[..., 2])
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; weights strictly positive, sum to 1."""
    z = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def build_bank(sigma_levels, rho_levels) -> CpbBank:
    """Cartesian-product bank over sigma_x x sigma_y x rho, lexicographic."""
    sig = [float(s) for s in sigma_levels]
    rho = [float(r) for r in rho_levels]
    if not sig or not rho:
        raise ValidationError("empty level list")
    entries = [(sx, sy, r) for sx in sig for sy in sig for r in rho]
    return CpbBank(np.array(entries, dtype=np.float64))


def default_bank() -> CpbBank:
    """8 log-spaced sigmas in [0.3, 3.0] x 5 uniform rhos in [-0.6, 0.6]; K=320."""
    sig = np.geomspace(0.3, 3.0, 8)
    rho = np.linspace(-0.6, 0.6, 5)
    return build_bank(sig, rho)


def bank_quantization_step(bank: CpbBank) -> float:
    """Largest gap between adjacent sigma levels (worst-case rounding error)."""
    levels = np.unique(bank.params[:, 0])
    if levels.size < 2:
        return float(levels[0])
    return float(np.max(np.diff(levels)))


def resample(e: LogitField, bank: CpbBank) -> CovGrid:
    """Softmax-weighted recombination of bank entries, per cell."""
    if e.k != bank.size:
        raise ShapeError(f"logit K={e.k} != bank K={bank.size}")
    gh, gw, k = e.logits.shape
    # softmax() on one writable copy, in place, then one (N, K) @ (K, 3).
    w = e.logits.reshape(gh * gw, k).copy()
    w -= np.max(w, axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= np.sum(w, axis=1, keepdims=True)
    return CovGrid((w @ bank.params).reshape(gh, gw, 3))


def resample_candidates(c: BankCandidates, t: float, bank: CpbBank) -> CovGrid:
    """resample(fuse(cov0, cov1, t, w), bank) from the candidates of
    bank_candidates(cov0, cov1, w, bank), to within K * exp(-TAU) relative
    weight per cell."""
    w = c.b * float(t)
    w += c.a
    w -= np.max(w, axis=2, keepdims=True)
    np.exp(w, out=w)
    w /= np.sum(w, axis=2, keepdims=True)
    # take() along the bank's columns gathers far faster than params[idx].
    cols = np.take(bank.params.T, c.idx, axis=1)  # (3, gh, gw, M)
    return CovGrid(np.einsum("hwm,chwm->hwc", w, cols))


def nearest_entry_indices(params: np.ndarray, bank: CpbBank) -> np.ndarray:
    """Index of the L2-nearest bank entry in (log s, log s, atanh rho) space.

    Ties break toward the lowest index.  Works on any (..., 3) array.
    """
    emb = _embed(np.asarray(params, dtype=np.float64))
    b = bank.embedding()
    # Summed one axis at a time: the same values as np.sum over the last axis
    # of the (..., K, 3) difference, without materialising it.
    d2 = (emb[..., 0, None] - b[:, 0]) ** 2
    d2 += (emb[..., 1, None] - b[:, 1]) ** 2
    d2 += (emb[..., 2, None] - b[:, 2]) ** 2
    return np.argmin(d2, axis=-1)


def project_to_bank(p: CovParams, bank: CpbBank) -> np.ndarray:
    """One-hot logits (+50 at the nearest entry, 0 elsewhere)."""
    p.validate()
    idx = int(nearest_entry_indices(np.array([p.sigma_x, p.sigma_y, p.rho]), bank))
    out = np.zeros(bank.size, dtype=np.float64)
    out[idx] = ONE_HOT_LOGIT
    return out


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
    blocks of grid rows; no (N, K) array is held.
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
        blocks.append((counts, flat + r0 * gw * k, a.take(flat), b.take(flat)))
    # The arrays the context keeps outlive the next pair's fit, so they are
    # allocated with as little else live as one pass allows: after the block
    # temporaries are freed and before the blocks are gathered.  On the 48x32
    # benchmark pair, that order and building blocks from window views rather
    # than from one whole column matrix each cut peak RSS by about 0.4 MB.
    del a, b, a1, floor, keep, flat, counts
    n = gh * gw
    m = max(int(counts.max()) for counts, _, _, _ in blocks)
    idx = np.zeros(n * m, dtype=np.int32)
    a_out = np.full(n * m, -np.inf)
    b_out = np.zeros(n * m)
    counts, flat, a_kept, b_kept = (np.concatenate(v) for v in zip(*blocks))
    rows, cols = np.divmod(flat, k)
    # Candidates come out row by row; pos is each one's place in its row.
    pos = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pos += rows * m
    idx[pos] = cols
    a_out[pos] = a_kept
    b_out[pos] = b_kept
    return BankCandidates(
        idx.reshape(gh, gw, m), a_out.reshape(gh, gw, m), b_out.reshape(gh, gw, m)
    )


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
