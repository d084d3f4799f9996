"""Recover a GaussianField from a target image by Adam on the render loss.

``descend`` is the one Adam loop in the package.  ``fit_frame`` runs it from
the deterministic init; the pipeline's bank refine runs it from a snapped
field with the covariances frozen, so only offsets and colors move.

Optimization runs in an unconstrained reparameterization so every iterate
maps to a valid field by construction:

    offset = sigmoid(u)            in [0, 1]
    sigma  = softplus(a) + 1e-3    positive
    rho    = rho_max * tanh(r)     in (-1, 1)
    color  = sigmoid(c)            in [0, 1]

The analytic gradients differentiate the kernel weight of the rasterizer in
closed form and are validated against central finite differences.  Fitting
renders with clamping off (clamping kills gradients in saturated regions)
and, by default, with a wide truncation radius so the truncated loss is
smooth to within ~1e-14 of the dense one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from splatvid.core import (
    Density,
    FrameBuffer,
    GaussianField,
    RHO_MAX,
    SIGMA_MIN,
    ShapeError,
    block_mean,
)
from splatvid.metrics import LUMA_WEIGHTS
from splatvid.raster import (
    Normalization,
    RenderConfig,
    _kernel_terms,
    _window_weights,
    output_shape,
    render_windows,
)

INIT_SIGMA = 0.7
INIT_OFFSET = 0.5


@dataclass(frozen=True)
class FitConfig:
    iterations: int = 500
    learning_rate: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    freq_loss_weight: float = 0.05
    # None -> 1 for OnePerPixel, 2 for OnePerFourPixels.
    scale: float | None = None
    normalization: Normalization = Normalization.PAPER_DET
    truncation_radius: float = 8.0
    # The frequency term is reported but excluded from gradients unless set.
    freq_in_gradient: bool = False

    def validate(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        for name in ("learning_rate", "adam_beta1", "adam_beta2", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.freq_loss_weight < 0:
            raise ValueError("freq_loss_weight must be non-negative")

    def effective_scale(self, density: Density) -> float:
        if self.scale is not None:
            return self.scale
        return 2.0 if density is Density.ONE_PER_FOUR_PIXELS else 1.0

    def render_config(self, density: Density) -> RenderConfig:
        return RenderConfig(
            scale=self.effective_scale(density),
            truncation_radius=self.truncation_radius,
            normalization=self.normalization,
            clamp_output=False,
        )


def _inv_softplus(y: np.ndarray) -> np.ndarray:
    # Inverse of log(1 + exp(x)), stable for y not too small.
    y = np.maximum(y, 1e-9)
    return y + np.log1p(-np.exp(-y))


def _logit(p: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    p = np.clip(p, eps, 1.0 - eps)
    return np.log(p) - np.log1p(-p)


@dataclass(frozen=True)
class ParamVector:
    """Unconstrained per-kernel parameters, shape (N, 8).

    Columns: (u_x, u_y, a_x, a_y, r_raw, c_r, c_g, c_b).
    """

    raw: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.raw, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 8:
            raise ShapeError(f"param vector shape {arr.shape}")
        object.__setattr__(self, "raw", arr)

    @staticmethod
    def from_field(f: GaussianField) -> "ParamVector":
        raw = np.empty((f.n_gaussians, 8), dtype=np.float64)
        raw[:, 0:2] = _logit(f.offsets)
        raw[:, 2:4] = _inv_softplus(f.sigmas - SIGMA_MIN)
        raw[:, 4] = np.arctanh(np.clip(f.rhos / RHO_MAX, -1 + 1e-12, 1 - 1e-12))
        raw[:, 5:8] = _logit(f.colors)
        return ParamVector(raw)

    def to_field(self, template: GaussianField) -> GaussianField:
        raw = self.raw
        return template.replace(
            offsets=1.0 / (1.0 + np.exp(-raw[:, 0:2])),
            sigmas=np.logaddexp(0.0, raw[:, 2:4]) + SIGMA_MIN,
            rhos=RHO_MAX * np.tanh(raw[:, 4]),
            colors=1.0 / (1.0 + np.exp(-raw[:, 5:8])),
        )


def init_field(
    target: FrameBuffer,
    density: Density,
    render_config: RenderConfig | None = None,
) -> GaussianField:
    """Deterministic start: centered kernels, sigma 0.7, target-sampled color.

    Overlapping kernels sum, so a raw target color would start the render
    roughly 2x too bright; when a render config is given, colors are divided
    by the per-cell gain of the unit-color init geometry.  That single
    correction is worth hundreds of descent iterations.
    """
    lr_w, lr_h = target.width, target.height
    gw, gh = density.grid_shape(lr_w, lr_h)
    n = gw * gh
    colors = block_mean(target.pixels, gh, gw).reshape(n, 3)
    f = GaussianField(
        lr_width=lr_w,
        lr_height=lr_h,
        density=density,
        offsets=np.full((n, 2), INIT_OFFSET),
        sigmas=np.full((n, 2), INIT_SIGMA),
        rhos=np.zeros(n),
        colors=colors,
    )
    if render_config is None:
        return f
    gain = render_windows(f.replace(colors=np.ones((n, 3))), render_config).pixels
    pooled = block_mean(np.maximum(gain, 1e-6), gh, gw).reshape(n, 3)
    return f.replace(colors=np.clip(colors / pooled, 0.0, 1.0))


def _luma_spectrum(img: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.fft2(img @ LUMA_WEIGHTS))


def _loss_terms(
    rendered: np.ndarray,
    target: np.ndarray,
    target_spectrum: np.ndarray,
    cfg: FitConfig,
) -> tuple[float, float, float]:
    """(total, l1, freq) of a render against the target and its luma spectrum."""
    if rendered.shape != target.shape:
        raise ShapeError(f"rendered {rendered.shape} vs target {target.shape}")
    l1 = float(np.mean(np.abs(rendered - target)))
    freq = float(np.mean(np.abs(_luma_spectrum(rendered) - target_spectrum)))
    return l1 + cfg.freq_loss_weight * freq, l1, freq


def loss(
    f: GaussianField, target: FrameBuffer, cfg: FitConfig
) -> tuple[float, float, float]:
    """(total, l1, freq): L1 on pixels plus weighted spectral-magnitude L1."""
    cfg.validate()
    rendered = render_windows(f, cfg.render_config(f.density)).pixels
    return _loss_terms(rendered, target.pixels, _luma_spectrum(target.pixels), cfg)


def _pixel_weight_l1(rendered: np.ndarray, target: np.ndarray) -> np.ndarray:
    """dL1/d(rendered): sign of the residual, subgradient 0 at exact zero."""
    return np.sign(rendered - target) / rendered.size


def _pixel_weight_freq(rendered: np.ndarray, target_spectrum: np.ndarray) -> np.ndarray:
    """Gradient of the spectral-magnitude L1 with respect to rendered pixels."""
    a = np.fft.fft2(rendered @ LUMA_WEIGHTS)
    bmag = target_spectrum
    amag = np.abs(a)
    s = np.sign(amag - bmag)
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(amag > 0, np.conj(a) / amag, 0.0)
    dy = np.real(np.fft.fft2(s * phase)) / a.size
    return dy[..., None] * LUMA_WEIGHTS


def _field_gradient(
    f: GaussianField, pixel_weight: np.ndarray, cfg: FitConfig
) -> np.ndarray:
    """(N, 8) unconstrained-space gradient given dL/d(rendered pixel).

    Accumulates per kernel over its truncation window only (the windows of
    raster.render_windows); with the default radius of 8 that is
    indistinguishable from a dense sum.  The weight derivatives are
    polynomial in the pixel offsets (dx, dy), so every geometric column is a
    closed form in six moments of tw = w * sum_c S_c c_c per kernel:
    sum tw dy^i dx^j for i + j <= 2.
    """
    rcfg = cfg.render_config(f.density)
    s = rcfg.scale
    out_w, out_h = output_shape(f.lr_width, f.lr_height, s)
    if pixel_weight.shape != (out_h, out_w, 3):
        raise ShapeError(
            f"pixel weight {pixel_weight.shape} vs render {(out_h, out_w, 3)}"
        )
    a = s * f.sigmas[:, 0]
    b = s * f.sigmas[:, 1]
    rho = f.rhos
    ixx, ixy, iyy, _ = _kernel_terms(f.sigmas, rho, s, cfg.normalization)
    det_power = 1.0 if cfg.normalization is Normalization.PAPER_DET else 0.5
    colors = f.colors
    n = f.n_gaussians
    grad = np.zeros((n, 8), dtype=np.float64)
    # moments[g, i, j] = sum over the window of tw * dy^i * dx^j.
    moments = np.zeros((n, 3, 3), dtype=np.float64)
    planes = np.ascontiguousarray(np.moveaxis(pixel_weight, 2, 0)).reshape(3, -1)
    for gi, dx, dy, w, flat, (sw, tw) in _window_weights(f, rcfg, n_scratch=2):
        for c in range(3):
            np.take(planes[c], flat, out=sw, mode="clip")
            sw *= w
            # Color gradient: dL/dc_ch = sum_p S_p,ch * w_p.
            grad[gi, 5 + c] = sw.sum(axis=(1, 2))
            if c == 0:
                np.multiply(sw, colors[gi, 0, None, None], out=tw)
            else:
                sw *= colors[gi, c, None, None]
                tw += sw
        xpow = np.stack([np.ones_like(dx), dx, dx * dx], axis=2)  # (G, Wx, 3)
        ypow = np.stack([np.ones_like(dy), dy, dy * dy], axis=1)  # (G, 3, Wy)
        moments[gi] = ypow @ (tw @ xpow)
    m0 = moments[:, 0, 0]
    mx, my = moments[:, 0, 1], moments[:, 1, 0]
    # Second moments in the whitened offsets u = dx/a, v = dy/b.
    suu = moments[:, 0, 2] / a**2
    svv = moments[:, 2, 0] / b**2
    suv = moments[:, 1, 1] / (a * b)
    inv = 1.0 / (1.0 - rho**2)
    # Position: dw/dmu = w * s * (Sinv d).
    grad[:, 0] = s * (ixx * mx + ixy * my)
    grad[:, 1] = s * (ixy * mx + iyy * my)
    # Scale: q = inv * (u^2 - 2 rho u v + v^2) and ln(amp) = -det_power *
    # ln(det) + const, chained through a = s * sigma_x (b likewise).
    grad[:, 2] = s * (-2.0 * det_power * m0 + inv * (suu - rho * suv)) / a
    grad[:, 3] = s * (-2.0 * det_power * m0 + inv * (svv - rho * suv)) / b
    grad[:, 4] = 2.0 * det_power * rho * inv * m0 - inv**2 * (
        rho * (suu + svv) - (1.0 + rho**2) * suv
    )

    # Chain through the reparameterization, using constrained values directly.
    offs = f.offsets
    grad[:, 0:2] *= offs * (1.0 - offs)
    grad[:, 2:4] *= 1.0 - np.exp(-(f.sigmas - SIGMA_MIN))
    grad[:, 4] *= RHO_MAX * (1.0 - (f.rhos / RHO_MAX) ** 2)
    grad[:, 5:8] *= colors * (1.0 - colors)
    return grad


def gradients(f: GaussianField, target: FrameBuffer, cfg: FitConfig) -> np.ndarray:
    """(N, 8) gradient of the L1 term w.r.t. the unconstrained parameters."""
    cfg.validate()
    rendered = render_windows(f, cfg.render_config(f.density)).pixels
    if rendered.shape != target.pixels.shape:
        raise ShapeError(f"rendered {rendered.shape} vs target {target.pixels.shape}")
    return _field_gradient(f, _pixel_weight_l1(rendered, target.pixels), cfg)


def fit_frame(
    target: FrameBuffer, density: Density, cfg: FitConfig
) -> tuple[GaussianField, list[float]]:
    """Adam descent from the deterministic init; returns (field, loss trace).

    At an integer fitting scale s > 1 (1:4 density fits at 2) the target is
    s times the LR frame, so ShapeError is raised up front unless each
    target dimension is a positive multiple of s.
    """
    cfg.validate()
    scale = cfg.effective_scale(density)
    if scale == 1.0:
        lr_frame = target
    else:
        # Target lives at the fitting scale; initialize from its block mean.
        step = int(round(scale))
        need = "even and at least 2" if step == 2 else f"a positive multiple of {step}"
        for name, size in (("height", target.height), ("width", target.width)):
            if scale == step and (size < step or size % step):
                raise ShapeError(
                    f"target {name} is {size}, but fitting at scale {step}"
                    f" needs the {name} to be {need}"
                )
        gh, gw = target.height // step, target.width // step
        small = block_mean(target.pixels[: gh * step, : gw * step], gh, gw)
        lr_frame = FrameBuffer(small)
    field = init_field(lr_frame, density, cfg.render_config(density))
    return descend(field, target, cfg, cfg.iterations)


def descend(
    field: GaussianField,
    target: FrameBuffer,
    cfg: FitConfig,
    iterations: int,
    freeze_covariance: bool = False,
) -> tuple[GaussianField, list[float]]:
    """Adam descent from field; returns (field, loss after each step).

    cfg.iterations is not read.  With freeze_covariance every iterate keeps
    the starting sigmas and rhos bit for bit; only offsets and colors move.
    """
    if iterations <= 0:
        return field, []
    cfg.validate()
    theta = ParamVector.from_field(field).raw.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    target_spectrum = _luma_spectrum(target.pixels)
    # losses[k] is the loss after k steps, taken from the same render that
    # the gradient of step k + 1 starts from.
    losses: list[float] = []
    rcfg = cfg.render_config(field.density)
    for it in range(iterations + 1):
        cur = ParamVector(theta).to_field(field)
        if freeze_covariance:
            cur = cur.replace(sigmas=field.sigmas, rhos=field.rhos)
        rendered = render_windows(cur, rcfg).pixels
        losses.append(_loss_terms(rendered, target.pixels, target_spectrum, cfg)[0])
        if it == iterations:
            break
        weight = _pixel_weight_l1(rendered, target.pixels)
        if cfg.freq_in_gradient and cfg.freq_loss_weight > 0:
            weight = weight + cfg.freq_loss_weight * _pixel_weight_freq(
                rendered, target_spectrum
            )
        g = _field_gradient(cur, weight, cfg)
        m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * g
        v = cfg.adam_beta2 * v + (1.0 - cfg.adam_beta2) * g * g
        m_hat = m / (1.0 - cfg.adam_beta1 ** (it + 1))
        v_hat = v / (1.0 - cfg.adam_beta2 ** (it + 1))
        theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return cur, losses[1:]
