"""Rasterize a GaussianField to a FrameBuffer at arbitrary spatial scale.

A render at scale s has round(s * LR size) pixels, at every density; s must
be at least 1.  Fitting renders at scale 1, so a fitted field renders back
at its target's shape.

Two paths with identical contracts:
  * render_dense   - brute force, every kernel against every pixel (oracle);
  * render_windows - one windowed-kernel core: each kernel is evaluated over
    the tightest integer pixel box whose pixel centres can lie inside its
    truncation ellipse, and contributes only within Mahalanobis distance
    <= truncation_radius.  The same core feeds the fitting gradient
    (fit._field_gradient).  render_tiled is kept as a name for
    render_windows.

The core buckets kernels by window size and evaluates each bucket in chunks
of at most CHUNK window pixels, in buffers allocated once per call and
reused for every chunk, so memory stays bounded at any scale and sigma.

The kernel weight is w = 1/(2*pi*N) * exp(-0.5 * d^T S^-1 d) where S is the
scale-adjusted covariance and N is either det(S) (PAPER_DET, the default) or
sqrt(det(S)) (SQRT_DET, the standard bivariate normal constant).

Accumulation is in 64-bit floats; clamping (when enabled) happens exactly
once at the end, never mid-accumulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from splatvid.core import (
    Density,
    FrameBuffer,
    Gaussian2D,
    GaussianField,
    ValidationError,
)

# Window pixels evaluated per chunk; a single larger window is its own chunk.
CHUNK = 1 << 17


class Normalization(enum.Enum):
    PAPER_DET = "paper-det"
    SQRT_DET = "sqrt-det"


@dataclass(frozen=True)
class RenderConfig:
    scale: float
    truncation_radius: float = 3.0
    normalization: Normalization = Normalization.PAPER_DET
    clamp_output: bool = True

    def validate(self) -> None:
        if self.scale < 1.0:
            raise ValidationError(f"scale {self.scale} below 1")
        if self.truncation_radius < 1.0:
            raise ValidationError(f"truncation_radius {self.truncation_radius} < 1")


def output_shape(lr_width: int, lr_height: int, scale: float) -> tuple[int, int]:
    """(out_w, out_h) = round(s * LR dims)."""
    return int(round(scale * lr_width)), int(round(scale * lr_height))


def _kernel_terms(sigmas, rhos, scale, normalization):
    """Per-kernel inverse-covariance components and prefactor at render scale.

    Returns (ixx, ixy, iyy, amp) where q = ixx*dx^2 + 2*ixy*dx*dy + iyy*dy^2
    and the contribution is amp * exp(-q/2).
    """
    a = scale * sigmas[:, 0]
    b = scale * sigmas[:, 1]
    det = a**2 * b**2 * (1.0 - rhos**2)
    ixx = b**2 / det
    iyy = a**2 / det
    ixy = -rhos * a * b / det
    norm = det if normalization is Normalization.PAPER_DET else np.sqrt(det)
    amp = 1.0 / (2.0 * np.pi * norm)
    return ixx, ixy, iyy, amp


def eval_gaussian(
    g: Gaussian2D,
    x: float,
    y: float,
    cfg: RenderConfig,
    density: Density = Density.ONE_PER_PIXEL,
) -> np.ndarray:
    """RGB contribution of one kernel at output-pixel coordinates (x, y)."""
    g.validate(max_offset=np.inf)
    cfg.validate()
    mu = g.center(density) * cfg.scale
    sigmas = np.array([[g.cov.sigma_x, g.cov.sigma_y]])
    rhos = np.array([g.cov.rho])
    ixx, ixy, iyy, amp = _kernel_terms(sigmas, rhos, cfg.scale, cfg.normalization)
    dx, dy = x - mu[0], y - mu[1]
    q = ixx[0] * dx * dx + 2.0 * ixy[0] * dx * dy + iyy[0] * dy * dy
    return np.asarray(g.color, dtype=np.float64) * (amp[0] * np.exp(-0.5 * q))


def _prepare(f: GaussianField, cfg: RenderConfig):
    cfg.validate()
    mu = f.mu() * cfg.scale  # kernel centers in output pixel coordinates
    ixx, ixy, iyy, amp = _kernel_terms(f.sigmas, f.rhos, cfg.scale, cfg.normalization)
    out_w, out_h = output_shape(f.lr_width, f.lr_height, cfg.scale)
    return mu, ixx, ixy, iyy, amp, out_w, out_h


def render_dense(f: GaussianField, cfg: RenderConfig) -> FrameBuffer:
    """Sum every kernel at every output pixel center; no truncation."""
    mu, ixx, ixy, iyy, amp, out_w, out_h = _prepare(f, cfg)
    xs = np.arange(out_w) + 0.5
    ys = np.arange(out_h) + 0.5
    px, py = np.meshgrid(xs, ys)  # (H, W)
    px, py = px.ravel(), py.ravel()
    npix = px.size
    acc = np.zeros((npix, 3), dtype=np.float64)
    n = mu.shape[0]
    chunk = max(1, int(4e6 // max(npix, 1)))
    for i0 in range(0, n, chunk):
        i1 = min(n, i0 + chunk)
        dx = px[None, :] - mu[i0:i1, 0:1]
        dy = py[None, :] - mu[i0:i1, 1:2]
        q = (
            ixx[i0:i1, None] * dx * dx
            + 2.0 * ixy[i0:i1, None] * dx * dy
            + iyy[i0:i1, None] * dy * dy
        )
        w = amp[i0:i1, None] * np.exp(-0.5 * q)  # (chunk, npix)
        acc += w.T @ f.colors[i0:i1]
    img = acc.reshape(out_h, out_w, 3)
    if cfg.clamp_output:
        img = np.clip(img, 0.0, 1.0)
    return FrameBuffer(img)


def _windows(mu, half_x, half_y, out_w, out_h):
    """Chunks of same-size pixel windows, and the buffer size they need.

    half is the half-extent of a kernel's truncation box, so a pixel p can
    pass the q <= r^2 mask only if its centre p + 0.5 lies within half of mu,
    that is p in [mu - half - 0.5, mu + half - 0.5].  A kernel's window is the
    tightest integer box that holds that interval on each axis: it starts at
    floor(mu - half - 0.5) and is floor(2 * half) + 2 pixels wide.  Its size
    is capped at the image and its start clamped so the window always covers
    the in-image part of the truncation box, even for kernels centred outside
    the frame.  Kernels are bucketed by window size and each bucket is split
    into chunks of at most CHUNK window pixels; a single larger window forms
    its own chunk.  Returns ([(gi, px, py), ...], size): px (G, Wx) and
    py (G, Wy) are the pixel columns and rows of each kernel's window, and
    size is the largest chunk's pixel count.
    """
    wx_all = np.minimum(np.floor(2.0 * half_x).astype(np.int64) + 2, out_w)
    wy_all = np.minimum(np.floor(2.0 * half_y).astype(np.int64) + 2, out_h)
    sx_all = np.floor(mu[:, 0] - half_x - 0.5).astype(np.int64)
    sy_all = np.floor(mu[:, 1] - half_y - 0.5).astype(np.int64)
    sx_all = np.clip(sx_all, 0, out_w - wx_all)
    sy_all = np.clip(sy_all, 0, out_h - wy_all)
    keys = wx_all * (out_h + 1) + wy_all
    # One stable sort groups the kernels by window size, ascending, each
    # bucket in kernel order.
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    chunks = []
    size = 0
    for b0, b1 in zip(starts, np.append(starts[1:], keys.size)):
        bucket = order[b0:b1]
        wx, wy = int(wx_all[bucket[0]]), int(wy_all[bucket[0]])
        step = max(1, CHUNK // (wx * wy))
        for lo in range(0, bucket.size, step):
            gi = bucket[lo : lo + step]
            px = sx_all[gi, None] + np.arange(wx)
            py = sy_all[gi, None] + np.arange(wy)
            chunks.append((gi, px, py))
            size = max(size, gi.size * wx * wy)
    return chunks, size


def _window_weights(f: GaussianField, cfg: RenderConfig, n_scratch: int = 0):
    """Truncated kernel weights over every window, one chunk at a time.

    Yields (gi, dx, dy, w, flat, scratch) per chunk of _windows: dx (G, Wx)
    and dy (G, Wy) are the pixel-centre offsets from each kernel centre,
    w (G, Wy, Wx) the weights and flat (G, Wy, Wx) each weight's row-major
    pixel index.  scratch holds n_scratch float arrays shaped like w for the
    caller.  w, flat and scratch are views of buffers allocated once per call
    and overwritten by the next chunk.
    """
    mu, ixx, ixy, iyy, amp, out_w, out_h = _prepare(f, cfg)
    r = cfg.truncation_radius
    half = r * cfg.scale * f.sigmas
    chunks, size = _windows(mu, half[:, 0], half[:, 1], out_w, out_h)
    e_buf = np.empty(size)
    mask_buf = np.empty(size, dtype=bool)
    flat_buf = np.empty(size, dtype=np.int64)
    scratch_bufs = [np.empty(size) for _ in range(n_scratch)]
    for gi, px, py in chunks:
        shape = (gi.size, py.shape[1], px.shape[1])
        n = shape[0] * shape[1] * shape[2]
        dx = (px + 0.5) - mu[gi, 0][:, None]
        dy = (py + 0.5) - mu[gi, 1][:, None]
        # e = -q/2 directly: halving is exact, so e equals -0.5 * q bit for bit.
        e = e_buf[:n].reshape(shape)
        np.multiply((-ixy[gi, None] * dy)[:, :, None], dx[:, None, :], out=e)
        e += (-0.5 * ixx[gi, None] * dx**2)[:, None, :]
        e += (-0.5 * iyy[gi, None] * dy**2)[:, :, None]
        mask = mask_buf[:n].reshape(shape)
        np.greater_equal(e, -0.5 * r * r, out=mask)  # q <= r^2
        np.exp(e, out=e)
        e *= mask
        e *= amp[gi, None, None]
        flat = flat_buf[:n].reshape(shape)
        np.add((py * out_w)[:, :, None], px[:, None, :], out=flat)
        scratch = [b[:n].reshape(shape) for b in scratch_bufs]
        yield gi, dx, dy, e, flat, scratch


def render_windows(f: GaussianField, cfg: RenderConfig) -> FrameBuffer:
    """Windowed fast path; matches render_dense within truncation error."""
    out_w, out_h = output_shape(f.lr_width, f.lr_height, cfg.scale)
    img = np.zeros((3, out_h * out_w), dtype=np.float64)
    colors = f.colors
    for gi, _, _, w, flat, (cw,) in _window_weights(f, cfg, n_scratch=1):
        idx = flat.ravel()
        for c in range(3):
            np.multiply(w, colors[gi, c, None, None], out=cw)
            np.add.at(img[c], idx, cw.ravel())
    img = np.ascontiguousarray(img.reshape(3, out_h, out_w).transpose(1, 2, 0))
    if cfg.clamp_output:
        img = np.clip(img, 0.0, 1.0)
    return FrameBuffer(img)


def render_tiled(f: GaussianField, cfg: RenderConfig) -> FrameBuffer:
    """Former name of render_windows, kept for callers; same output."""
    return render_windows(f, cfg)
