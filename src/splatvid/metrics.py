"""Quality and correlation metrics.

Y-channel PSNR/SSIM (BT.601 full-range luma, the single Y definition used
repo-wide), Pearson and cosine correlation, and the temporal-stability
report comparing pixel-domain decay against covariance-parameter decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from splatvid.core import FeatureMap, FrameBuffer, GaussianField, ShapeError

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


class MetricError(ValueError):
    """Metric undefined for the given inputs (constant or zero vectors)."""


def to_luma(frame: FrameBuffer) -> FeatureMap:
    """Y = 0.299 R + 0.587 G + 0.114 B per pixel."""
    return FeatureMap((frame.pixels @ LUMA_WEIGHTS)[..., None])


def psnr_y(a: FrameBuffer, b: FrameBuffer) -> float:
    """Luma PSNR with peak 1.0; identical inputs report +inf."""
    if a.pixels.shape != b.pixels.shape:
        raise ShapeError("frame shapes differ")
    ya = to_luma(a).data
    yb = to_luma(b).data
    mse = float(np.mean((ya - yb) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-0.5 * (ax / sigma) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


def _local_weighted(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    win = np.lib.stride_tricks.sliding_window_view(img, kernel.shape)
    return np.einsum("hwkl,kl->hw", win, kernel)


def ssim_y(a: FrameBuffer, b: FrameBuffer) -> float:
    """Mean local SSIM over luma; 11x11 Gaussian window, valid region only."""
    if a.pixels.shape != b.pixels.shape:
        raise ShapeError("frame shapes differ")
    if a.height < SSIM_WINDOW or a.width < SSIM_WINDOW:
        raise ShapeError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    x = to_luma(a).data[:, :, 0]
    y = to_luma(b).data[:, :, 0]
    k = _gaussian_window()
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    mx = _local_weighted(x, k)
    my = _local_weighted(y, k)
    mxx = _local_weighted(x * x, k)
    myy = _local_weighted(y * y, k)
    mxy = _local_weighted(x * y, k)
    vx = mxx - mx * mx
    vy = myy - my * my
    cxy = mxy - mx * my
    ssim_map = ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return float(np.mean(ssim_map))


def pearson(a, b) -> float:
    """Sample Pearson correlation coefficient of two flat vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise ShapeError("pearson needs equal lengths >= 2")
    if np.array_equal(a, b):
        return 1.0
    da = a - a.mean()
    db = b - b.mean()
    na = float(np.sqrt(np.sum(da * da)))
    nb = float(np.sqrt(np.sum(db * db)))
    if na == 0.0 or nb == 0.0:
        raise MetricError("pearson undefined for constant input")
    return float(np.clip(np.dot(da, db) / (na * nb), -1.0, 1.0))


def cosine(a, b) -> float:
    """dot(a, b) / (|a| |b|)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ShapeError("cosine needs equal lengths")
    if np.array_equal(a, b) and np.any(a != 0.0):
        return 1.0
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise MetricError("cosine undefined for zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class StabilityReport:
    gaps: list[int]
    pixel_pearson: list[float]
    pixel_cosine: list[float]
    cov_pearson: list[float]
    cov_cosine: list[float]

    def __post_init__(self):
        n = len(self.gaps)
        for name in ("pixel_pearson", "pixel_cosine", "cov_pearson", "cov_cosine"):
            vals = getattr(self, name)
            if len(vals) != n:
                raise ShapeError(f"{name} length {len(vals)} != {n}")
            if any(not (-1.0 <= v <= 1.0) for v in vals):
                raise ValueError(f"{name} value outside [-1, 1]")


def _cov_vector(f: GaussianField) -> np.ndarray:
    return np.concatenate([f.sigmas[:, 0], f.sigmas[:, 1], f.rhos])


def check_one_size(frames: list[FrameBuffer]) -> None:
    """ShapeError naming their sizes unless the frames share one size."""
    sizes = sorted({f"{f.width}x{f.height}" for f in frames})
    if len(sizes) > 1:
        raise ShapeError(f"frames differ in size: {', '.join(sizes)}")


def stability_report(
    frames: list[FrameBuffer], fields: list[GaussianField]
) -> StabilityReport:
    """Correlation of frame/field g against frame/field 0, per gap g."""
    if len(frames) != len(fields) or len(frames) < 2:
        raise ShapeError("need equal-length frame/field sequences of length >= 2")
    check_one_size(frames)
    y0 = to_luma(frames[0]).data.ravel()
    c0 = _cov_vector(fields[0])
    gaps, pp, pc, cp, cc = [], [], [], [], []
    for g in range(len(frames)):
        yg = to_luma(frames[g]).data.ravel()
        cg = _cov_vector(fields[g])
        gaps.append(g)
        pp.append(pearson(y0, yg))
        pc.append(cosine(y0, yg))
        cp.append(pearson(c0, cg))
        cc.append(cosine(c0, cg))
    return StabilityReport(gaps, pp, pc, cp, cc)
