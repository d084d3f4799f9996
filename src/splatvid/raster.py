"""Rasterize a GaussianField to a FrameBuffer at arbitrary spatial scale.

A render at scale s has round(s * LR size) pixels, at every density; s must
be at least 1.  Fitting renders at scale 1, so a fitted field renders back
at its target's shape.

Two paths with identical contracts:
  * render_dense   - brute force, every kernel against every pixel (oracle);
  * render_windows - one windowed-kernel core: each kernel is evaluated over
    the pixels whose centres lie inside the bounding box of its truncation
    ellipse (on each axis, from ceil(mu - half - 1/2) to floor(mu + half -
    1/2), half widened by a rounding margin, EDGE_MARGIN), and contributes
    only within Mahalanobis distance <= truncation_radius.  render_tiled is
    kept as a name for render_windows.

Every pass over the core runs here; its other callers, the fit gradient
(fit._step, fit._field_gradient) and the colour solve (fit.solve_colors),
do only per-kernel maths on the passes' results.  With A the window
weights amp * w: _render is A c; _adjoint is A^T r, per kernel and
channel the window sum of an image r times amp * w; _basis_sums is the
(N, 3, 6) amp-scaled sums of an image against each window's basis
(below), which the gradient reads.  The last two share one gather.

The core (_Weights) lays the windows of a batch of same-size fields out
once, each clipped to its own field's plane of one (B, H, W) image (a
render is the one-field batch), in chunks of at most CHUNK window pixels
(see _windows).  A window's exponents are one small matmul of its
kernel's six coefficients with its window size's pixel basis, so each
kernel's weights are the same bits wherever it sits in a chunk or a batch
(a single 2-D product is faster, but BLAS rounds a row by its place in
it), and every pixel sums its kernels in the same order at any CHUNK.
Memory stays bounded at any scale and sigma: buffers of one chunk's size,
plus at most B * STORE_CAP kept pixels in a layout over B fields that
keeps its weights (a fit step, a colour solve).

The kernel weight is w = 1/(2*pi*N) * exp(-0.5 * d^T S^-1 d) where S is the
scale-adjusted covariance and N = det(S)^p, with the det power p of the
Normalization: 1 for PAPER_DET (the default), 1/2 for SQRT_DET (the standard
bivariate normal constant).  TRUNCATION_RADIUS is the default radius of
RenderConfig, fit.FitConfig and pipeline.PipelineOptions alike, so a field
fitted and rendered with the defaults renders under its fit's contract.

Accumulation is in 64-bit floats; clamping (when enabled) happens exactly
once at the end, never mid-accumulation.  Both paths end in _finish, whose
non-finite check raises FloatingPointError naming ``rasterize``.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from splatvid.core import (
    Density,
    FrameBuffer,
    Gaussian2D,
    GaussianField,
    ShapeError,
    ValidationError,
)

# Window pixels evaluated per chunk; a single larger window is its own chunk.
# A chunk's buffers take 41 bytes a pixel (exponent, flat index, mask and
# three scratch planes), so at 2^15 pixels they fit a 2 MB L2 cache.
CHUNK = 1 << 15
# Most window pixels per field whose weights a fit step keeps from its
# render for its gradient (see _Weights): a float64 weight and an int64
# pixel index each, so at most 16 MiB per field.  A step over B fields with
# more than B * STORE_CAP windowed pixels keeps none.
STORE_CAP = 1 << 20
# Default Mahalanobis truncation radius of fitting and rendering alike.
TRUNCATION_RADIUS = 3.0
# A window's box reaches EDGE_MARGIN * (1 + half) px past the truncation box
# on every side: the mask's quadratic and the box's edges round apart, so
# the mask can admit a pixel whose centre lies a few ulps outside the box
# (up to 7e-15 px on the boundary tests' rho = 0 kernels).
EDGE_MARGIN = 1e-8


class Normalization(enum.Enum):
    PAPER_DET = "paper-det"
    SQRT_DET = "sqrt-det"

    @property
    def det_power(self) -> float:
        """p in the prefactor 1 / (2 pi det(S)^p)."""
        return 1.0 if self is Normalization.PAPER_DET else 0.5


@dataclass(frozen=True)
class RenderConfig:
    scale: float
    truncation_radius: float = TRUNCATION_RADIUS
    normalization: Normalization = Normalization.PAPER_DET
    clamp_output: bool = True

    def __post_init__(self):
        # Written so that nan fails too.
        if not 1.0 <= self.scale < math.inf:
            raise ValidationError(f"scale {self.scale} below 1 or not finite")
        if not 1.0 <= self.truncation_radius < math.inf:
            raise ValidationError(
                f"truncation_radius {self.truncation_radius} < 1 or not finite"
            )


def output_shape(lr_width: int, lr_height: int, scale: float) -> tuple[int, int]:
    """(out_w, out_h) = round(s * LR dims), out_w * out_h within the core's
    int64 flat pixel index."""
    out_w, out_h = int(round(scale * lr_width)), int(round(scale * lr_height))
    if out_w * out_h > np.iinfo(np.int64).max:
        raise ValidationError(
            f"scale {scale} makes a {out_w}x{out_h} frame, too large to index"
        )
    return out_w, out_h


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
    amp = 1.0 / (2.0 * np.pi * det**normalization.det_power)
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
    mu = g.center(density) * cfg.scale
    sigmas = np.array([[g.cov.sigma_x, g.cov.sigma_y]])
    rhos = np.array([g.cov.rho])
    ixx, ixy, iyy, amp = _kernel_terms(sigmas, rhos, cfg.scale, cfg.normalization)
    dx, dy = x - mu[0], y - mu[1]
    q = ixx[0] * dx * dx + 2.0 * ixy[0] * dx * dy + iyy[0] * dy * dy
    return np.asarray(g.color, dtype=np.float64) * (amp[0] * np.exp(-0.5 * q))


def lr_size(fields: Sequence[GaussianField]) -> tuple[int, int]:
    """The one (lr_width, lr_height) of a batch of fields; ShapeError if
    the batch is empty or its fields differ in size."""
    sizes = {(f.lr_width, f.lr_height) for f in fields}
    if len(sizes) != 1:
        raise ShapeError(f"a batch of fields must share one LR size: {sorted(sizes)}")
    return sizes.pop()


def _prepare(
    templates: Sequence[GaussianField], offsets, sigmas, rhos, cfg: RenderConfig
):
    """The kernels of a batch of same-size fields at cfg's scale.

    templates give the batch's LR size and every kernel's cell; offsets,
    sigmas and rhos are their kernels' values, stacked in field order.
    Returns (mu, ixx, ixy, iyy, amp, out_w, out_h): mu the kernel centres in
    output pixel coordinates, the _kernel_terms of sigmas and rhos, and the
    render's output_shape.
    """
    out_w, out_h = output_shape(*lr_size(templates), cfg.scale)
    cells = np.concatenate([t.cell_centers() for t in templates])
    mu = (cells + offsets) * cfg.scale
    ixx, ixy, iyy, amp = _kernel_terms(sigmas, rhos, cfg.scale, cfg.normalization)
    return mu, ixx, ixy, iyy, amp, out_w, out_h


def render_dense(f: GaussianField, cfg: RenderConfig) -> FrameBuffer:
    """Sum every kernel at every output pixel center; no truncation."""
    mu, ixx, ixy, iyy, amp, out_w, out_h = _prepare(
        [f], f.offsets, f.sigmas, f.rhos, cfg
    )
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
    return _finish(acc.reshape(out_h, out_w, 3), f, cfg)


def _finish(img: np.ndarray, f: GaussianField, cfg: RenderConfig) -> FrameBuffer:
    """The render's frame: clamped if cfg asks, then checked finite."""
    if cfg.clamp_output:
        img = np.clip(img, 0.0, 1.0)
    try:
        return FrameBuffer(img)  # checks the pixels finite
    except ValidationError:
        raise FloatingPointError(
            f"rasterize: non-finite pixels rendering the field at t={f.timestamp}"
            f" at scale {cfg.scale}"
        ) from None


class _Segment(NamedTuple):
    """One piece of a window-size bucket: kernels gi (G,) whose Wy x Wx
    windows start at flat batch-image index corner (G,).  offs (Wy, Wx) is
    every window pixel's flat index less its corner's and basis (6, P), with
    P = Wy * Wx, the window size's basis; both are the read-only arrays of
    _window_basis.  span is the segment's G * P pixels in its chunk's flat
    arrays, kernel-major and row-major within a window."""

    gi: np.ndarray
    corner: np.ndarray
    offs: np.ndarray
    basis: np.ndarray
    span: slice


@functools.lru_cache(maxsize=256)
def _window_basis(wx: int, wy: int, out_w: int) -> tuple[np.ndarray, np.ndarray]:
    """(offs, basis) of every Wy x Wx window of an out_w-wide image, built
    once per process: offs (Wy, Wx) the flat index of each window pixel
    less its corner's, and basis (6, Wy * Wx) [1, j, i, j^2, i*j, i^2] of
    each pixel's offsets (i, j) from the window's centre pixel
    (Wy // 2, Wx // 2), row-major.  Both are read-only.  The 256 most
    recently used sizes are kept: 56 bytes per window pixel each."""
    xs, ys = np.arange(wx), np.arange(wy)
    offs = ys[:, None] * out_w + xs
    j = (xs - wx // 2).astype(np.float64)
    i = (ys - wy // 2).astype(np.float64)[:, None]
    basis = np.empty((6, wy, wx))
    basis[0] = 1.0
    basis[1] = j
    basis[2] = i
    basis[3] = j * j
    basis[4] = i * j
    basis[5] = i * i
    basis = basis.reshape(6, -1)
    offs.flags.writeable = False
    basis.flags.writeable = False
    return offs, basis


def _windows(mu, half_x, half_y, out_w, out_h, plane):
    """Chunks of segments of same-size pixel windows, their centres, and
    the buffer size they need.

    half is the half-extent of a kernel's truncation box, so a pixel p can
    pass the q <= r^2 mask only if its centre p + 0.5 lies within half of mu,
    that is p in [mu - half - 0.5, mu + half - 0.5].  A kernel's window holds
    the integers of that interval on each axis, with half widened to reach =
    half + EDGE_MARGIN * (1 + half) against rounding: it starts at
    ceil(mu - reach - 0.5) and is floor(mu + reach - 0.5) - ceil(mu - reach
    - 0.5) + 1 pixels wide, the number of pixel centres in the box.  Its
    width is at least 1 (a box holding no pixel centre gets one pixel, which
    the mask zeroes) and capped at the image, and its start is clamped so
    the window always covers the in-image part of the truncation box, even
    for kernels centred outside the frame.  plane is each kernel's offset
    into a batch image of out_h x out_w planes (0 for a lone field).

    Kernels are bucketed by window size, ascending, and each bucket is split
    into segments of at most CHUNK window pixels (a single larger window
    forms its own segment).  A chunk is a run of consecutive segments that
    holds at most CHUNK window pixels, or one segment larger than that.
    Packing segments into chunks moves no kernel: the chunks list the
    kernels in the order of the buckets either way.

    A window of Wy x Wx pixels is centred on its pixel (Wy // 2, Wx // 2),
    and its pixels sit at integer offsets (i, j) from that pixel (see
    _window_basis).

    Returns ([(segment, ...), ...], size, centre): each chunk a tuple of
    _Segment, size the largest chunk's pixel count, and centre (N, 2) the
    offset (dx, dy) of each kernel's window centre pixel from its kernel
    centre.
    """
    reach_x = half_x + EDGE_MARGIN * (1.0 + half_x)
    reach_y = half_y + EDGE_MARGIN * (1.0 + half_y)
    sx_all = np.ceil(mu[:, 0] - reach_x - 0.5).astype(np.int64)
    sy_all = np.ceil(mu[:, 1] - reach_y - 0.5).astype(np.int64)
    wx_all = np.floor(mu[:, 0] + reach_x - 0.5).astype(np.int64) - sx_all + 1
    wy_all = np.floor(mu[:, 1] + reach_y - 0.5).astype(np.int64) - sy_all + 1
    wx_all = np.clip(wx_all, 1, out_w)
    wy_all = np.clip(wy_all, 1, out_h)
    sx_all = np.clip(sx_all, 0, out_w - wx_all)
    sy_all = np.clip(sy_all, 0, out_h - wy_all)
    corner_all = sy_all * out_w + sx_all + plane
    mid = np.column_stack([sx_all + wx_all // 2, sy_all + wy_all // 2])
    centre = (mid + 0.5) - mu
    keys = wx_all * (out_h + 1) + wy_all
    # One stable sort groups the kernels by window size, ascending, each
    # bucket in kernel order.
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    chunks = []
    run = []  # the open chunk's segments
    at = 0  # its pixel count
    size = 0
    for b0, b1 in zip(starts, np.append(starts[1:], keys.size)):
        bucket = order[b0:b1]
        wx, wy = int(wx_all[bucket[0]]), int(wy_all[bucket[0]])
        offs, basis = _window_basis(wx, wy, out_w)
        step = max(1, CHUNK // (wx * wy))
        for lo in range(0, bucket.size, step):
            gi = bucket[lo : lo + step]
            n = gi.size * wx * wy
            if run and at + n > CHUNK:
                chunks.append(tuple(run))
                run, at = [], 0
            run.append(_Segment(gi, corner_all[gi], offs, basis, slice(at, at + n)))
            at += n
            size = max(size, at)
    if run:
        chunks.append(tuple(run))
    return chunks, size, centre


class _Weights:
    """A batch of same-size fields' truncated window weights, by chunk.

    Construction is the layout: _prepare and _windows, computed once over
    the kernels of every field, stacked in field order.  templates give the
    batch's LR size and cells; params, if given, is the stacked (offsets,
    sigmas, rhos, colors) of their kernels, and otherwise the templates'
    own (a lone field's own arrays).  Field b's image is the b-th H x W
    plane of one (B, H, W) image: each kernel's window is clipped to its
    own frame, and its flat pixel indices carry its field's offset
    b * H * W.  A one-field batch is a field's own render.

    Over its window, a kernel's exponent e = -q/2 is a quadratic in the
    pixel offsets (i, j) from the window's centre pixel, whose (dx, dy) is
    centre[k] = (cx, cy): with dx = cx + j and dy = cy + i, e = coef[k] @
    [1, j, i, j^2, i*j, i^2], the window basis of _window_basis.  coef
    (N, 6) holds those six coefficients per kernel.

    Each iteration then yields (chunk, w, flat) per chunk of _windows,
    every chunk's weights coming from _chunk_weights: chunk is the tuple of
    its _Segment, w (n,) the chunk's unit-amplitude weights exp(e), zero
    where q > r^2, and flat (n,) each weight's index into the batch image,
    both laid out segment by segment as the spans say.  A segment's
    weights w[span] are (G, P), one row per kernel gi over its window basis.
    A kernel's weight is amp times w: the passes fold amp into their
    per-kernel factors, one small product per segment, and gather or
    scatter once per chunk in _scratch's planes.  w, flat and the scratch
    are views of buffers allocated once and overwritten by the next chunk,
    unless kept (below).

    With keep, and when all windows hold at most B * STORE_CAP pixels, the
    first iteration writes every chunk's weights to buffers of their own and
    a later iteration yields them again instead of evaluating them: a fit
    step renders and then takes its gradient from one evaluation, and a
    colour solve (fit.solve_colors) runs all its passes on one.  Above
    the cap nothing is kept and every iteration evaluates every chunk.
    """

    def __init__(
        self,
        templates: Sequence[GaussianField],
        cfg: RenderConfig,
        keep: bool = False,
        params: tuple | None = None,
    ):
        names = ("offsets", "sigmas", "rhos", "colors")
        if params is None and len(templates) == 1:
            params = [getattr(templates[0], a) for a in names]
        elif params is None:
            params = [np.concatenate([getattr(t, a) for t in templates]) for a in names]
        self.offsets, self.sigmas, self.rhos, self.colors = params
        mu, self.ixx, self.ixy, self.iyy, self.amp, self.out_w, self.out_h = _prepare(
            templates, self.offsets, self.sigmas, self.rhos, cfg
        )
        self.n_fields = len(templates)
        plane = np.repeat(
            np.arange(self.n_fields, dtype=np.int64) * (self.out_w * self.out_h),
            [t.n_gaussians for t in templates],
        )
        self.radius = cfg.truncation_radius
        half = self.radius * cfg.scale * self.sigmas
        self.chunks, size, self.centre = _windows(
            mu, half[:, 0], half[:, 1], self.out_w, self.out_h, plane
        )
        cx, cy = self.centre[:, 0], self.centre[:, 1]
        hx = self.ixx * cx + self.ixy * cy  # half the gradient of q in dx
        hy = self.ixy * cx + self.iyy * cy
        self.coef = np.column_stack([
            -0.5 * (hx * cx + hy * cy),
            -hx,
            -hy,
            -0.5 * self.ixx,
            -self.ixy,
            -0.5 * self.iyy,
        ])
        px = sum(chunk[-1].span.stop for chunk in self.chunks)
        self.keep = keep and px <= self.n_fields * STORE_CAP
        self.stored_px = px if self.keep else 0
        self._kept: list[tuple] = []
        self._e_buf = np.empty(max(self.stored_px, size))
        self._flat_buf = np.empty(self._e_buf.size, dtype=np.int64)
        self._mask_buf = np.empty(size, dtype=bool)
        self._scratch_buf = None

    def _scratch(self, n: int) -> np.ndarray:
        """(3, n) scratch planes for a pass over a chunk of n pixels: views
        of one buffer, allocated by the first pass that asks and kept."""
        if self._scratch_buf is None:
            self._scratch_buf = np.empty(3 * self._mask_buf.size)
        return self._scratch_buf[: 3 * n].reshape(3, n)

    def __iter__(self):
        at = 0  # where the next kept chunk starts in the buffers
        for j, chunk in enumerate(self.chunks):
            if j < len(self._kept):
                w, flat = self._kept[j]
            else:
                w, flat = _chunk_weights(
                    self, chunk, self._e_buf[at:], self._mask_buf, self._flat_buf[at:]
                )
                if self.keep:
                    self._kept.append((w, flat))
            if self.keep:
                at += w.size
            yield chunk, w, flat


def _chunk_weights(lay: _Weights, chunk, e_buf, mask_buf, flat_buf):
    """Truncated unit-amplitude kernel weights of one chunk of lay's windows.

    The one copy of the weight math.  Returns (w, flat) as _Weights yields
    them; w is written into the head of e_buf, flat into the head of
    flat_buf, and mask_buf is overwritten.  Each kernel's exponents are one
    small product of its six coefficients with its segment's window basis
    (a stacked matmul), so they do not depend on the kernel's place in the
    chunk; the mask and exp then run once over the whole chunk.
    """
    n = chunk[-1].span.stop
    e = e_buf[:n]
    flat = flat_buf[:n]
    for gi, corner, offs, basis, span in chunk:
        np.matmul(lay.coef[gi, None, :], basis, out=e[span].reshape(gi.size, 1, -1))
        np.add(corner[:, None], offs.reshape(-1), out=flat[span].reshape(gi.size, -1))
    mask = mask_buf[:n]
    np.greater_equal(e, -0.5 * lay.radius * lay.radius, out=mask)  # q <= r^2
    np.exp(e, out=e)
    e *= mask
    return e, flat


def _render(weights: _Weights, colors: np.ndarray) -> np.ndarray:
    """Unclamped (B, H, W, 3) sum of every chunk's weights times colors.

    colors (N, 3) are the stacked kernels' colours, weights.colors for the
    fields' own render; the image is linear in them.  One pass over
    weights, in the first two of its scratch planes.

    R and G accumulate as one complex128 lane: per chunk, w times each
    kernel's amp * (R + iG) is written into the first two scratch planes,
    viewed as one complex array, and scattered by one np.add.at.  The
    product's real and imaginary parts are w * amp * R and w * amp * G plus
    a cross term 0 * amp * G or 0 * amp * R, a zero that can only flip the
    sign of a zero product.  A pixel's sum starts at +0, so it is never -0,
    and a zero of either sign leaves it unchanged.  A complex add is two
    real adds, so every pixel sums the same values in the same order as a
    per-channel scatter would.  B then reuses the first scratch plane.
    """
    amp_colors = weights.amp[:, None] * colors
    amp_rg = np.ascontiguousarray(amp_colors[:, :2]).view(np.complex128)  # (N, 1)
    n_px = weights.n_fields * weights.out_h * weights.out_w
    rg = np.zeros(n_px, dtype=np.complex128)
    blue = np.zeros(n_px)
    for chunk, w, flat in weights:
        scratch = weights._scratch(w.size)
        lane = scratch[:2].reshape(-1).view(np.complex128)  # (n,)
        for gi, _, _, _, span in chunk:
            np.multiply(
                w[span].reshape(gi.size, -1),
                amp_rg[gi],
                out=lane[span].reshape(gi.size, -1),
            )
        np.add.at(rg, flat, lane)
        b = scratch[0]
        for gi, _, _, _, span in chunk:
            np.multiply(
                w[span].reshape(gi.size, -1),
                amp_colors[gi, 2, None],
                out=b[span].reshape(gi.size, -1),
            )
        np.add.at(blue, flat, b)
    img = np.empty((n_px, 3))
    img[:, :2] = rg.view(np.float64).reshape(-1, 2)
    img[:, 2] = blue
    return img.reshape(weights.n_fields, weights.out_h, weights.out_w, 3)


def _gathered(weights: _Weights, image: np.ndarray):
    """Per chunk of weights, (chunk, sw): sw (3, n) the three channel
    planes of the batch's (B, H, W, 3) image at every window pixel of the
    chunk, times the unit-amplitude weights w, gathered and multiplied once
    per chunk into the layout's scratch, which the next chunk overwrites.
    A segment's products are sw[:, span].reshape(3, G, P)."""
    planes = np.ascontiguousarray(np.moveaxis(image, 3, 0)).reshape(3, -1)
    for chunk, w, flat in weights:
        sw = weights._scratch(w.size)
        np.take(planes, flat, axis=1, out=sw, mode="clip")
        sw *= w
        yield chunk, sw


def _adjoint(weights: _Weights, image: np.ndarray) -> np.ndarray:
    """(N, 3) A^T r, the adjoint of _render: per kernel and channel, the
    sum of the batch's (B, H, W, 3) image times amp * w over its window."""
    out = np.empty((weights.amp.size, 3))
    for chunk, sw in _gathered(weights, image):
        for gi, _, _, _, span in chunk:
            out[gi] = sw[:, span].reshape(3, gi.size, -1).sum(axis=2).T
    out *= weights.amp[:, None]
    return out


def _basis_sums(weights: _Weights, image: np.ndarray) -> np.ndarray:
    """(N, 3, 6) per kernel and channel, the sums of the batch's (B, H, W,
    3) image times amp * w against its window basis [1, j, i, j^2, i*j,
    i^2]: one stacked matmul per segment."""
    sums = np.empty((weights.amp.size, 3, 6))
    for chunk, sw in _gathered(weights, image):
        for gi, _, _, basis, span in chunk:
            part = sw[:, span].reshape(3, gi.size, -1)
            sums[gi] = np.matmul(part.transpose(1, 0, 2), basis.T)
    sums *= weights.amp[:, None, None]
    return sums


def render_windows(f: GaussianField, cfg: RenderConfig) -> FrameBuffer:
    """Windowed fast path; matches render_dense within truncation error."""
    return _finish(_render(_Weights([f], cfg), f.colors)[0], f, cfg)


def render_tiled(f: GaussianField, cfg: RenderConfig) -> FrameBuffer:
    """Former name of render_windows, kept for callers; same output."""
    return render_windows(f, cfg)
