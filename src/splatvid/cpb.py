"""Covariance prior bank: construction, fusion into logits, and resampling.

All intermediate covariances are produced as softmax-weighted convex
combinations of a fixed, finite bank of (sigma_x, sigma_y, rho) entries.
That anchors every output inside the component-wise convex hull of the bank
(no covariance drift) while keeping the per-frame cost a single linear map
plus a softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from splatvid.core import CovParams, ShapeError, ValidationError
from splatvid.nnops import conv2d

FUSER_IN_CHANNELS = 7  # (sx0, sy0, rho0, sx1, sy1, rho1, t)
ONE_HOT_LOGIT = 50.0


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
