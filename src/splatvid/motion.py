"""Temporal evolution of kernel position and color.

Linear flow scaling, bilinear backward warping (clamp-to-edge), mask plus
residual feature fusion, parameter decoding, and the motion-adaptive offset
window that widens each cell's position range in proportion to local flow
magnitude.

One flow scaling serves every time step: the flows from time t back to the
endpoints are m_t0 = t * m10 and m_t1 = (1 - t) * m01, so each is zero at
its own endpoint and warping at t = 0 or t = 1 is the identity.

Fusion and decoding are the training-free baseline of the paper's learned
motion module: the mask is 1 - t with no residual, so the fused map is the
linear blend of the endpoint maps, and the decoder passes the fused
(offset, color) channels through, clamped to [0, 1].  ``pipeline.derive_field``
computes that blend and the window gate on two aligned fields;
``predict_fusion``, ``fuse_features``, ``decode_gaussians`` and
``apply_window`` are its reference path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from splatvid.core import (
    Density,
    FeatureMap,
    FlowField,
    ShapeError,
    ValidationError,
    edge_blocks,
    frozen_array,
)
from splatvid.cpb import LogitField, ONE_HOT_LOGIT, softmax


@dataclass(frozen=True)
class WindowSet:
    """Ordered base window sizes; default {1, ..., 10} LR pixels."""

    sizes: tuple[float, ...] = tuple(float(i) for i in range(1, 11))

    def __post_init__(self):
        s = tuple(float(v) for v in self.sizes)
        if not s or any(v <= 0 for v in s) or any(b <= a for a, b in zip(s, s[1:])):
            raise ValidationError(f"window sizes must be positive and strictly increasing: {s}")
        object.__setattr__(self, "sizes", s)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def max_size(self) -> float:
        return self.sizes[-1]


@dataclass(frozen=True)
class WindowMap:
    """Per-cell positive window size, bounded by the window set."""

    values: np.ndarray  # (grid_h, grid_w)

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_array("WindowMap", self.values, 2))
        if np.any(self.values <= 0):
            raise ValidationError("window map values must be positive")


def scale_flows(m01: FlowField, m10: FlowField, t: float) -> FlowField:
    """The flow m_t0 = t * m10 from intermediate time t back to frame 0.

    m01 is read only to check that the endpoint flows share one shape.  The
    flow back to frame 1, m_t1 = (1 - t) * m01, is scale_flows(m10, m01,
    1 - t).
    """
    if m01.vectors.shape != m10.vectors.shape:
        raise ShapeError("flow fields differ in shape")
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"t={t} outside [0, 1]")
    return FlowField(t * m10.vectors)


def backward_warp(f: FeatureMap, flow: FlowField) -> FeatureMap:
    """Bilinear backward warp: out(x, y) = f(x + dx, y + dy), clamp-to-edge."""
    if (f.height, f.width) != (flow.height, flow.width):
        raise ShapeError(
            f"feature map {f.height}x{f.width} vs flow {flow.height}x{flow.width}"
        )
    h, w = f.height, f.width
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    sx = np.clip(xs + flow.vectors[:, :, 0], 0.0, w - 1.0)
    sy = np.clip(ys + flow.vectors[:, :, 1], 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = sx - x0
    wy = sy - y0
    d = f.data
    top = (1.0 - wx)[..., None] * d[y0, x0] + wx[..., None] * d[y0, x1]
    bot = (1.0 - wx)[..., None] * d[y1, x0] + wx[..., None] * d[y1, x1]
    return FeatureMap((1.0 - wy)[..., None] * top + wy[..., None] * bot)


def predict_fusion(
    f0t: FeatureMap, f1t: FeatureMap, t: float
) -> tuple[FeatureMap, FeatureMap]:
    """The training-free fusion head: mask = 1 - t everywhere, residual = 0."""
    if f0t.data.shape != f1t.data.shape:
        raise ShapeError("warped endpoint features differ in shape")
    h, w, c = f0t.data.shape
    return FeatureMap(np.full((h, w, 1), 1.0 - t)), FeatureMap(np.zeros((h, w, c)))


def fuse_features(
    f0t: FeatureMap, f1t: FeatureMap, mask: FeatureMap, residual: FeatureMap
) -> FeatureMap:
    """F_t = mask * f0t + (1 - mask) * f1t + residual."""
    if f0t.data.shape != f1t.data.shape or f0t.data.shape != residual.data.shape:
        raise ShapeError("fuse_features: operand shapes differ")
    if mask.data.shape[:2] != f0t.data.shape[:2] or mask.channels != 1:
        raise ShapeError(f"mask shape {mask.data.shape}")
    m = mask.data
    if np.any(m < 0.0) or np.any(m > 1.0):
        raise ValidationError("mask values outside [0, 1]")
    return FeatureMap(m * f0t.data + (1.0 - m) * f1t.data + residual.data)


def decode_gaussians(f_t: FeatureMap) -> tuple[np.ndarray, np.ndarray]:
    """The pass-through decoder of a 5-channel (dmu_x, dmu_y, r, g, b) map.

    Returns (offsets (H, W, 2), colors (H, W, 3)), each clamped to [0, 1].
    """
    if f_t.channels != 5:
        raise ShapeError(f"passthrough decode needs 5 channels, got {f_t.channels}")
    offsets = np.clip(f_t.data[:, :, 0:2], 0.0, 1.0)
    colors = np.clip(f_t.data[:, :, 2:5], 0.0, 1.0)
    return offsets, colors


def compute_window_map(v_logits: LogitField, s_win: WindowSet) -> WindowMap:
    """Softmax-weighted combination of base window sizes, per cell."""
    if v_logits.k != s_win.k:
        raise ShapeError(f"logit K={v_logits.k} != window set K={s_win.k}")
    weights = softmax(v_logits.logits, axis=-1)
    return WindowMap(weights @ np.asarray(s_win.sizes))


def flow_magnitude_window_logits(
    m01: FlowField,
    m10: FlowField,
    s_win: WindowSet,
    density: Density = Density.ONE_PER_PIXEL,
) -> LogitField:
    """Analytic window selector: one-hot on the smallest window covering the
    cell's peak flow magnitude (ceil-to-window rule, saturating at the max).
    """
    if m01.vectors.shape != m10.vectors.shape:
        raise ShapeError("flow fields differ in shape")
    mag = np.maximum(
        np.linalg.norm(m01.vectors, axis=2), np.linalg.norm(m10.vectors, axis=2)
    )
    h, w = mag.shape
    gw, gh = density.grid_shape(w, h)
    # Pool each cell's s x s LR block by max.
    s = density.stride
    g = np.minimum(edge_blocks(mag, gh, s, gw, s).max(axis=(1, 3)), s_win.max_size)
    sizes = np.asarray(s_win.sizes)
    idx = np.searchsorted(sizes, g, side="left")
    idx = np.minimum(idx, s_win.k - 1)
    logits = np.zeros((gh, gw, s_win.k))
    np.put_along_axis(logits, idx[..., None], ONE_HOT_LOGIT, axis=-1)
    return LogitField(logits)


def apply_window(offsets: np.ndarray, w: WindowMap) -> np.ndarray:
    """Scale per-cell offset vectors by the window map (same factor for x, y)."""
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.shape[:2] != w.values.shape or offsets.shape[2] != 2:
        raise ShapeError(f"offsets {offsets.shape} vs window map {w.values.shape}")
    return offsets * w.values[..., None]
