"""Synthetic frames, exact flows, random kernel fields, seeded banks and fusers.

Flows are inputs to the engine, never estimated; these generators produce
frame pairs together with the exact bidirectional flows that relate them.
Convention: m01 points from frame-0 coordinates toward frame 1 (content
velocity), m10 is its inverse.
"""

from __future__ import annotations

import numpy as np

from splatvid import cpb
from splatvid.core import Density, FlowField, FrameBuffer, GaussianField


def uniform_flow(width: int, height: int, dx: float, dy: float) -> FlowField:
    vec = np.empty((height, width, 2))
    vec[:, :, 0] = dx
    vec[:, :, 1] = dy
    return FlowField(vec)


def zoom_flow(width: int, height: int, factor: float) -> FlowField:
    """Radial flow of a zoom about the image center: x -> c + factor*(x - c)."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    vec = np.stack([(factor - 1.0) * (xs - cx), (factor - 1.0) * (ys - cy)], axis=2)
    return FlowField(vec)


def blob_frame(
    width: int,
    height: int,
    center: tuple[float, float],
    radius: float = 3.0,
    color=(1.0, 0.85, 0.2),
    background=(0.1, 0.1, 0.15),
) -> FrameBuffer:
    """A smooth Gaussian-profile blob on a uniform background."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    d2 = (xs - center[0]) ** 2 + (ys - center[1]) ** 2
    alpha = np.exp(-0.5 * d2 / radius**2)[..., None]
    img = np.asarray(background) + alpha * (np.asarray(color) - np.asarray(background))
    return FrameBuffer(img)


def translating_blob_pair(
    width: int, height: int, shift: tuple[float, float], **blob_kwargs
) -> tuple[FrameBuffer, FrameBuffer, FlowField, FlowField]:
    """(frame0, frame1, m01, m10) for a blob translating by `shift`."""
    c0 = ((width - shift[0]) / 2.0, (height - shift[1]) / 2.0)
    c1 = (c0[0] + shift[0], c0[1] + shift[1])
    frame0 = blob_frame(width, height, c0, **blob_kwargs)
    frame1 = blob_frame(width, height, c1, **blob_kwargs)
    m01 = uniform_flow(width, height, shift[0], shift[1])
    m10 = uniform_flow(width, height, -shift[0], -shift[1])
    return frame0, frame1, m01, m10


def ridge_texture(width: int, height: int, seed: int = 0) -> FrameBuffer:
    """Oriented high-frequency ridges whose orientation drifts slowly.

    Pixel values oscillate at ridge frequency (low shift-correlation) while
    the local geometric structure (orientation, anisotropy) varies smoothly
    across the image.  The pattern is periodic, so np.roll produces exact
    translations.
    """
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    # Smooth periodic orientation field.
    theta = (
        0.35 * np.sin(2 * np.pi * xs / width + rng.uniform(0, 2 * np.pi))
        + 0.35 * np.cos(2 * np.pi * ys / height + rng.uniform(0, 2 * np.pi))
    )
    freq = 2.0 * np.pi / 2.6  # ridge period ~2.6 px, incommensurate with shifts
    phase = freq * (xs * np.cos(theta) + ys * np.sin(theta))
    s = np.sin(phase)
    # Dark base keeps the luma mean small, so the cosine similarity of the
    # pixel signal is dominated by the fast ridge oscillation.
    img = np.stack(
        [0.16 + 0.14 * s, 0.16 + 0.126 * s, 0.16 + 0.112 * s], axis=2
    )
    return FrameBuffer(np.clip(img, 0.0, 1.0))


def rolled_sequence(frame: FrameBuffer, n_frames: int, step: int = 1) -> list[FrameBuffer]:
    """Exact periodic translation by `step` pixels per frame along +x."""
    return [
        FrameBuffer(np.roll(frame.pixels, g * step, axis=1)) for g in range(n_frames)
    ]


def centroid(frame: FrameBuffer, background=None) -> tuple[float, float]:
    """Intensity centroid of |frame - background| (background defaults to the
    per-channel median, robust for a small object on a flat backdrop).

    Deviations below 20% of the peak are zeroed so low-level reconstruction
    noise spread over the backdrop cannot drag the estimate around.
    """
    px = frame.pixels
    if background is None:
        background = np.median(px.reshape(-1, 3), axis=0)
    weight = np.abs(px - background).sum(axis=2)
    weight = np.maximum(weight - 0.2 * weight.max(), 0.0)
    total = weight.sum()
    ys, xs = np.mgrid[0 : frame.height, 0 : frame.width].astype(np.float64)
    return float((weight * xs).sum() / total), float((weight * ys).sum() / total)


def random_field(
    rng: np.random.Generator,
    lr_width: int,
    lr_height: int,
    density: Density = Density.ONE_PER_PIXEL,
    sigma_range: tuple[float, float] = (0.4, 2.0),
    rho_range: tuple[float, float] = (-0.7, 0.7),
    offset_range: tuple[float, float] = (0.05, 0.95),
    color_range: tuple[float, float] = (0.0, 1.0),
) -> GaussianField:
    """A valid field with uniform draws: offsets, sigmas, rhos, then colors."""
    gw, gh = density.grid_shape(lr_width, lr_height)
    n = gw * gh
    return GaussianField(
        lr_width=lr_width,
        lr_height=lr_height,
        density=density,
        offsets=rng.uniform(*offset_range, (n, 2)),
        sigmas=rng.uniform(*sigma_range, (n, 2)),
        rhos=rng.uniform(*rho_range, n),
        colors=rng.uniform(*color_range, (n, 3)),
    )


def jittered_bank(rng: np.random.Generator) -> cpb.CpbBank:
    """The default bank's 8 x 8 x 5 grid, every entry moved by up to 0.35 of
    a grid step per axis (below 0.5, entries stay distinct)."""
    grid = cpb.default_bank().params
    log_step = np.log(3.0 / 0.3) / 7.0  # default_bank's sigma spacing
    rho_step = 0.3  # default_bank's rho spacing
    u = rng.uniform(-0.35, 0.35, grid.shape)
    sig = grid[:, 0:2] * np.exp(u[:, 0:2] * log_step)
    rho = grid[:, 2] + u[:, 2] * rho_step
    return cpb.CpbBank(np.column_stack([sig, rho]))


def t_dependent_fuser(rng: np.random.Generator, bank: cpb.CpbBank) -> cpb.FuserWeights:
    """A 3x3 fuser: the baseline fuser's 1x1 map at the centre tap, plus
    seeded neighbour taps (std 0.5) and a centre t-channel weight (std 4)."""
    base = cpb.baseline_fuser(bank)
    k, c = base.weights.shape[:2]
    w = np.zeros((k, c, 3, 3))
    w[:, :, 1, 1] = base.weights[:, :, 0, 0]
    neighbour = rng.normal(0.0, 0.5, (k, c - 1, 3, 3))
    neighbour[:, :, 1, 1] = 0.0
    w[:, : c - 1] += neighbour
    w[:, c - 1, 1, 1] = rng.normal(0.0, 4.0, k)
    return cpb.FuserWeights(w, base.bias)


def snap_ties(bank: cpb.CpbBank) -> np.ndarray:
    """(M, 3) covariance params at and next to the bank's snap ties.

    Rows: every entry itself; every entry made isotropic at its sigmas'
    geometric mean, equidistant from the entry and its (sigma_x, sigma_y)
    transpose when the bank holds one; and, for every entry, the midpoint
    (in cpb's embedding) between it and its nearest other entry, as is and
    moved together on all three params by 1 to 4 ulps either way.
    """
    p = bank.params
    e = bank.embedding()
    iso = np.column_stack([np.sqrt(p[:, 0] * p[:, 1])] * 2 + [p[:, 2]])
    d2 = np.sum((e[:, None, :] - e[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    mid = 0.5 * (e + e[np.argmin(d2, axis=1)])
    mid = np.column_stack([np.exp(mid[:, 0:2]), np.tanh(mid[:, 2])])
    moved = []
    for direction in (-np.inf, np.inf):
        q = mid
        for _ in range(4):
            q = np.nextafter(q, direction)
            moved.append(q)
    return np.concatenate([p, iso, mid, *moved])
