"""Recover a GaussianField from a target image by Adam on the render loss.

``descend`` is the one Adam loop in the package, and it runs over a batch
of same-size fields: every step lays out all of their windows once and
updates their stacked parameters in one set of numpy calls, and each
field's result is bit-equal to descending it alone.  ``fit_frames`` runs
it from the deterministic init of each target (``fit_frame`` is its
one-frame batch); the pipeline fits both endpoints as one batch.

``solve_colors`` is the pipeline's bank refine.  With offsets and
covariances fixed the render is linear in the colours, img = A c, so it
runs projected FISTA on 1/2 ||A c - y||^2 over c in [0, 1]^3 on one window
layout kept for every iteration, again over a batch and bit-equal to
solving each field alone.  It works on the colours themselves, so a colour
at exactly 0 or 1 moves as freely as any other.

Each step (``_step``) evaluates every kernel's window weights once: the
render that gives the residual sign keeps them, and the gradient reuses
them.  The kept weights of a batch of B fields take at most
B * raster.STORE_CAP window pixels (16 MiB per field); a step with more
windowed pixels keeps none and evaluates them again, so a step's memory is
that bound or the raster core's per-chunk buffers.

Optimization runs in an unconstrained reparameterization so every iterate
maps to a valid field by construction:

    offset = sigmoid(u)            in [0, 1]
    sigma  = softplus(a) + 1e-3    positive
    rho    = rho_max * tanh(r)     in (-1, 1)
    color  = sigmoid(c)            in [0, 1]

``loss`` is L1 on pixels plus FREQ_LOSS_WEIGHT times an L1 on luma
spectral magnitudes.  Descent follows the gradient of the L1 term alone and
evaluates no loss: the spectral term is reported by ``loss`` (and so by
``splatvid fit``) but never differentiated.  The analytic gradients
differentiate the kernel weight of the rasterizer in closed form and are
validated against central finite differences.

Fitting renders at scale 1, so the field's LR size is the target's size at
every density; density sets only the kernel count (one per pixel, or one per
2x2 block).  It renders with clamping off (clamping kills gradients in
saturated regions), at FitConfig's truncation radius, by default
raster.TRUNCATION_RADIUS, the radius every render defaults to.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from splatvid.core import (
    Density,
    FrameBuffer,
    GaussianField,
    RHO_MAX,
    SIGMA_MIN,
    ShapeError,
    ValidationError,
    block_mean,
)
from splatvid.metrics import LUMA_WEIGHTS
from splatvid.raster import (
    TRUNCATION_RADIUS,
    Normalization,
    RenderConfig,
    _Weights,
    _render,
    lr_size,
    render_windows,
)

INIT_SIGMA = 0.7
INIT_OFFSET = 0.5
# Adam step size and moment constants.
LEARNING_RATE = 1e-2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Weight of the spectral term in the reported loss.
FREQ_LOSS_WEIGHT = 0.05


@dataclass(frozen=True)
class FitConfig:
    """The render contract a fit descends on, and its step count.

    A fitted field reproduces its target only when rendered at the radius
    and normalization it was fitted with; truncation_radius defaults to
    raster.TRUNCATION_RADIUS, as RenderConfig's and PipelineOptions' do.
    """

    iterations: int = 500
    normalization: Normalization = Normalization.PAPER_DET
    truncation_radius: float = TRUNCATION_RADIUS

    def __post_init__(self):
        if self.iterations < 0:
            raise ValidationError("iterations must be >= 0")
        self.render_config()  # RenderConfig checks the truncation radius.

    def render_config(self) -> RenderConfig:
        """The unclamped scale-1 render that fitting descends on."""
        return RenderConfig(
            scale=1.0,
            truncation_radius=self.truncation_radius,
            normalization=self.normalization,
            clamp_output=False,
        )


def _inv_softplus(y: np.ndarray) -> np.ndarray:
    # Inverse of log(1 + exp(x)).  A y below 1e-15 is raised to it, where
    # exp(-y) still differs from 1; softplus maps the result back within a
    # few ulps of max(y, 1), far inside the 1e-12 that
    # TestParamVector.test_round_trip_error_at_the_edges pins.
    y = np.maximum(y, 1e-15)
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
        """f's parameters.  Offsets and colors are clipped to [1e-6, 1 - 1e-6]
        first (sigmoid never reaches 0 or 1), so a value within 1e-6 of 0 or
        1 maps back 1e-6 away from it; sigmas and rhos map back within 1e-12."""
        raw = np.empty((f.n_gaussians, 8), dtype=np.float64)
        raw[:, 0:2] = _logit(f.offsets)
        raw[:, 2:4] = _inv_softplus(f.sigmas - SIGMA_MIN)
        raw[:, 4] = np.arctanh(np.clip(f.rhos / RHO_MAX, -1 + 1e-12, 1 - 1e-12))
        raw[:, 5:8] = _logit(f.colors)
        return ParamVector(raw)

    def to_field(self, template: GaussianField) -> GaussianField:
        """The field these parameters map to, on template's grid."""
        return self.to_fields([template])[0]

    def constrained(self) -> tuple[np.ndarray, ...]:
        """The stacked (offsets, sigmas, rhos, colors) these rows map to,
        each value mapped in one call per parameter."""
        raw = self.raw
        offsets = 1.0 / (1.0 + np.exp(-raw[:, 0:2]))
        sigmas = np.logaddexp(0.0, raw[:, 2:4]) + SIGMA_MIN
        rhos = RHO_MAX * np.tanh(raw[:, 4])
        colors = 1.0 / (1.0 + np.exp(-raw[:, 5:8]))
        return offsets, sigmas, rhos, colors

    def to_fields(self, templates: Sequence[GaussianField]) -> list[GaussianField]:
        """to_field of a batch: the rows are the templates' kernels stacked
        in order, mapped by constrained."""
        if self.raw.shape[0] != sum(t.n_gaussians for t in templates):
            raise ShapeError(f"{self.raw.shape[0]} parameter rows for the templates")
        offsets, sigmas, rhos, colors = self.constrained()
        fields = []
        at = 0
        for t in templates:
            rows = slice(at, at + t.n_gaussians)
            at = rows.stop
            fields.append(
                replace(
                    t,
                    offsets=offsets[rows],
                    sigmas=sigmas[rows],
                    rhos=rhos[rows],
                    colors=colors[rows],
                )
            )
        return fields


def init_field(target: FrameBuffer, density: Density) -> GaussianField:
    """Deterministic start: centered kernels, sigma 0.7, target-sampled color.

    Overlapping kernels sum, so a raw target color would start the render
    roughly 2x too bright; fit_frames divides the colors by the per-cell gain
    of the unit-color init geometry (_init_gain, _apply_gain).  That single
    correction is worth hundreds of descent iterations.
    """
    lr_w, lr_h = target.width, target.height
    gw, gh = density.grid_shape(lr_w, lr_h)
    n = gw * gh
    colors = block_mean(target.pixels, gh, gw).reshape(n, 3)
    return GaussianField(
        lr_width=lr_w,
        lr_height=lr_h,
        density=density,
        offsets=np.full((n, 2), INIT_OFFSET),
        sigmas=np.full((n, 2), INIT_SIGMA),
        rhos=np.zeros(n),
        colors=colors,
    )


def _init_gain(f: GaussianField, render_config: RenderConfig) -> np.ndarray:
    """(N, 3) per-cell gain of f's geometry rendered with unit colors.

    Every init field of one LR size and density has the same geometry, so
    one gain serves a whole batch.
    """
    n = f.n_gaussians
    gw, gh = f.grid_shape
    gain = render_windows(replace(f, colors=np.ones((n, 3))), render_config).pixels
    return block_mean(np.maximum(gain, 1e-6), gh, gw).reshape(n, 3)


def _apply_gain(f: GaussianField, gain: np.ndarray) -> GaussianField:
    return replace(f, colors=np.clip(f.colors / gain, 0.0, 1.0))


def _check_target(f: GaussianField, target: np.ndarray, what: str) -> None:
    """The rule that a target (or pixel weight) has f's scale-1 render shape."""
    shape = (f.lr_height, f.lr_width, 3)
    if target.shape != shape:
        raise ShapeError(f"{what} {target.shape} vs render {shape}")


def _luma_spectrum(img: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.fft2(img @ LUMA_WEIGHTS))


def loss(
    f: GaussianField, target: FrameBuffer, cfg: FitConfig
) -> tuple[float, float, float]:
    """(total, l1, freq): L1 on pixels plus FREQ_LOSS_WEIGHT * spectral L1."""
    _check_target(f, target.pixels, "target")
    rendered = render_windows(f, cfg.render_config()).pixels
    l1 = float(np.mean(np.abs(rendered - target.pixels)))
    spectra = _luma_spectrum(rendered) - _luma_spectrum(target.pixels)
    freq = float(np.mean(np.abs(spectra)))
    return l1 + FREQ_LOSS_WEIGHT * freq, l1, freq


def _pixel_weight_l1(rendered: np.ndarray, target: np.ndarray) -> np.ndarray:
    """dL1/d(rendered): sign of the residual, subgradient 0 at exact zero.

    rendered is one (H, W, 3) render or a (B, H, W, 3) batch of them; each
    field's loss is the mean over its own H * W * 3 values.
    """
    return np.sign(rendered - target) / np.prod(rendered.shape[-3:])


def _field_gradient(
    f: GaussianField, pixel_weight: np.ndarray, cfg: FitConfig
) -> np.ndarray:
    """(N, 8) unconstrained-space gradient given dL/d(rendered pixel).

    Accumulates per kernel over its truncation window only: the windows of
    raster.render_windows, the tightest pixel boxes around each truncation
    ellipse, masked to q <= r^2.  The weight derivatives are polynomial in
    the pixel offsets (dx, dy), so every geometric column is a closed form
    in six moments of tw = w * sum_c S_c c_c per kernel, sum tw dx^a dy^b
    for a + b <= 2.  They come from the window sums of tw against the
    centred basis [1, j, i, j^2, i*j, i^2] of raster._Weights (see
    _window_moments).

    Evaluates the window weights afresh; descent takes the same gradient
    from its render's weights (_step), and this is its reference.
    """
    _check_target(f, pixel_weight, "pixel weight")
    weights = _Weights([f], cfg.render_config(), n_scratch=3)
    return _window_gradient(weights, pixel_weight[None], cfg)


def _gathered(weights: _Weights, pixel_weight: np.ndarray):
    """Per chunk of weights, (segments, sw): sw (3, n) holds the three
    planes of the batch's (B, H, W, 3) pixel_weight at every window pixel
    of the chunk, times the unit-amplitude weights w, gathered and
    multiplied once per chunk.  A segment's products are
    sw[:, span].reshape(3, G, P).  sw is the chunk's scratch, which needs
    three arrays, and the next chunk overwrites it."""
    planes = np.ascontiguousarray(np.moveaxis(pixel_weight, 3, 0)).reshape(3, -1)
    for segments, w, flat, sw in weights:
        np.take(planes, flat, axis=1, out=sw, mode="clip")
        sw *= w
        yield segments, sw


def _window_moments(
    weights: _Weights, pixel_weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every kernel's window sums that its gradient reads, in one pass.

    pixel_weight is the batch's (B, H, W, 3) dL/d(rendered) S.  Returns
    (csum, m): csum (N, 3) holds sum_p S_p,c * w_p per channel c, and m
    (6, N) the moments sum tw dx^a dy^b of tw = w * sum_c S_c color_c for
    (a, b) = (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), with (dx, dy)
    a pixel centre's offset from its kernel's centre.  Needs three scratch
    arrays.

    Per segment, one stacked matmul of _gathered's (3, G, P) products with
    its window basis gives every kernel's 18 sums against
    [1, j, i, j^2, i*j, i^2], which amp then scales; the basis-1 column is
    csum.  The colour-weighted sum of the channels gives the six
    tw sums, and dx = cx + j, dy = cy + i, with (cx, cy) the window
    centre's offset weights.centre, turn them into the dx/dy moments.
    """
    sums = np.empty((weights.rhos.size, 3, 6))
    for segments, sw in _gathered(weights, pixel_weight):
        for gi, _, _, basis, span in segments:
            part = sw[:, span].reshape(3, gi.size, -1)
            sums[gi] = np.matmul(part.transpose(1, 0, 2), basis.T)
    sums *= weights.amp[:, None, None]
    colors = weights.colors
    t1, tj, ti, tjj, tij, tii = (
        sums[:, 0] * colors[:, 0, None]
        + sums[:, 1] * colors[:, 1, None]
        + sums[:, 2] * colors[:, 2, None]
    ).T
    cx, cy = weights.centre[:, 0], weights.centre[:, 1]
    m = np.stack([
        t1,
        cx * t1 + tj,
        cy * t1 + ti,
        cx * (cx * t1 + 2.0 * tj) + tjj,
        cx * (cy * t1 + ti) + cy * tj + tij,
        cy * (cy * t1 + 2.0 * ti) + tii,
    ])
    return sums[:, :, 0], m


def _window_gradient(
    weights: _Weights, pixel_weight: np.ndarray, cfg: FitConfig
) -> np.ndarray:
    """_field_gradient of a batch from one pass over its window weights.

    pixel_weight is the batch's (B, H, W, 3) dL/d(rendered); the rows of
    the result are the stacked kernels of weights.  Needs three scratch
    arrays.
    """
    offsets, colors = weights.offsets, weights.colors
    a = weights.sigmas[:, 0]
    b = weights.sigmas[:, 1]
    rho = weights.rhos
    ixx, ixy, iyy = weights.ixx, weights.ixy, weights.iyy
    det_power = cfg.normalization.det_power
    csum, (m0, mx, my, mxx, mxy, myy) = _window_moments(weights, pixel_weight)
    grad = np.empty((rho.size, 8), dtype=np.float64)
    # Color gradient: dL/dc_ch = sum_p S_p,ch * w_p.
    grad[:, 5:8] = csum
    # Second moments in the whitened offsets u = dx/a, v = dy/b.
    suu = mxx / a**2
    svv = myy / b**2
    suv = mxy / (a * b)
    inv = 1.0 / (1.0 - rho**2)
    # Position: dw/dmu = w * (Sinv d).
    grad[:, 0] = ixx * mx + ixy * my
    grad[:, 1] = ixy * mx + iyy * my
    # Scale: q = inv * (u^2 - 2 rho u v + v^2) and ln(amp) = -det_power *
    # ln(det) + const, with a = sigma_x and b = sigma_y.
    grad[:, 2] = (-2.0 * det_power * m0 + inv * (suu - rho * suv)) / a
    grad[:, 3] = (-2.0 * det_power * m0 + inv * (svv - rho * suv)) / b
    grad[:, 4] = 2.0 * det_power * rho * inv * m0 - inv**2 * (
        rho * (suu + svv) - (1.0 + rho**2) * suv
    )

    # Chain through the reparameterization, using constrained values directly.
    grad[:, 0:2] *= offsets * (1.0 - offsets)
    grad[:, 2:4] *= 1.0 - np.exp(-(weights.sigmas - SIGMA_MIN))
    grad[:, 4] *= RHO_MAX * (1.0 - (rho / RHO_MAX) ** 2)
    grad[:, 5:8] *= colors * (1.0 - colors)
    return grad


def _step(
    fields: Sequence[GaussianField],
    targets: np.ndarray,
    cfg: FitConfig,
    params: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One descent step's kernel work on a batch of same-size fields.

    Returns their (B, H, W, 3) unclamped scale-1 renders and the stacked
    (sum N, 8) L1 gradient, given (B, H, W, 3) targets of the fields' shape.
    params, if given, is the stacked (offsets, sigmas, rhos, colors) to
    render in place of the fields' own (see raster._Weights).  Each chunk's
    window weights are evaluated once: the render keeps them and the
    gradient reuses them, unless the windows hold more than
    B * raster.STORE_CAP pixels, when both passes evaluate them.  Every
    pixel sums its own field's kernels in the order a one-field step sums
    them, so field b's rows are bit-equal to render_windows followed by
    _field_gradient of field b alone.
    """
    weights = _Weights(
        fields, cfg.render_config(), n_scratch=3, keep=True, params=params
    )
    rendered = _render(weights, weights.colors)
    pixel_weight = _pixel_weight_l1(rendered, targets)
    return rendered, _window_gradient(weights, pixel_weight, cfg)


def gradients(f: GaussianField, target: FrameBuffer, cfg: FitConfig) -> np.ndarray:
    """(N, 8) gradient of the L1 term w.r.t. the unconstrained parameters."""
    _check_target(f, target.pixels, "target")
    return _step([f], target.pixels[None], cfg)[1]


def fit_frame(
    target: FrameBuffer, density: Density, cfg: FitConfig
) -> GaussianField:
    """Adam descent from the deterministic init for cfg.iterations steps.

    The field's LR size is the target's size at either density.  Its loss
    is loss(field, target, cfg).  The one-frame batch of fit_frames.
    """
    return fit_frames([target], density, cfg)[0]


def fit_frames(
    targets: Sequence[FrameBuffer], density: Density, cfg: FitConfig
) -> list[GaussianField]:
    """fit_frame of each target, as one batch: the targets share one shape,
    their init gain is rendered once, and one descend runs every step over
    all of them.  Bit-equal to fitting each target alone."""
    fields = [init_field(t, density) for t in targets]
    lr_size(fields)
    gain = _init_gain(fields[0], cfg.render_config())
    fields = [_apply_gain(f, gain) for f in fields]
    return descend(fields, targets, cfg, cfg.iterations)


def _batch(
    fields: Sequence[GaussianField], targets: Sequence[FrameBuffer]
) -> list[GaussianField]:
    """fields as a list, checked to be a batch of one LR size with one
    target each of its render shape."""
    fields = list(fields)
    if len(targets) != len(fields):
        raise ShapeError(f"{len(targets)} targets for {len(fields)} fields")
    lr_size(fields)
    for f, t in zip(fields, targets):
        _check_target(f, t.pixels, "target")
    return fields


def descend(
    fields: Sequence[GaussianField],
    targets: Sequence[FrameBuffer],
    cfg: FitConfig,
    iterations: int,
) -> list[GaussianField]:
    """The fields after `iterations` Adam steps, each from its own start.

    fields[b] descends on targets[b]; the fields share one LR size.  The
    steps run on the stacked (sum N, 8) parameters, so a batch pays one
    window layout and one set of numpy calls per step, and each field's
    result is bit-equal to descending it alone.  A step lays out the
    stacked constrained values (ParamVector.constrained) over the given
    fields; fields are built once, from the last iterate.  With no steps
    the given field objects come back.  cfg.iterations is not read.

    The start is ParamVector.from_field of each field, which moves an
    offset or color within 1e-6 of 0 or 1 to 1e-6 from it (sigmoid never
    reaches them), a sigma by a few ulps and a rho by at most 1e-12.  So a
    start renders within a few 1e-6 of its field.
    """
    fields = _batch(fields, targets)
    if iterations <= 0:
        return fields
    pixels = np.stack([t.pixels for t in targets])
    theta = np.concatenate([ParamVector.from_field(f).raw for f in fields])
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for it in range(iterations):
        g = _step(fields, pixels, cfg, ParamVector(theta).constrained())[1]
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** (it + 1))
        v_hat = v / (1.0 - ADAM_BETA2 ** (it + 1))
        theta = theta - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return ParamVector(theta).to_fields(fields)


def _color_adjoint(weights: _Weights, residual: np.ndarray) -> np.ndarray:
    """(N, 3) A^T r: per kernel and channel, sum_p r_p,c * amp * w_p.

    residual is the batch's (B, H, W, 3) image; the sums are the colour
    column of the gradient's window sums (_window_moments' csum), reduced
    with a plain sum over each window.  Needs three scratch arrays.
    """
    out = np.empty((weights.rhos.size, 3))
    for segments, sw in _gathered(weights, residual):
        for gi, _, _, _, span in segments:
            out[gi] = sw[:, span].reshape(3, gi.size, -1).sum(axis=2).T
    out *= weights.amp[:, None]
    return out


def _color_lipschitz(weights: _Weights, counts: Sequence[int]) -> np.ndarray:
    """(B,) Schur bound L_b >= ||A_b||_2^2 of each field's colour matrix.

    counts are the fields' kernel counts, in batch order.  L_b is the
    largest column sum of A_b (A^T of a unit image) times its largest row
    sum (A of unit colours); A has no negative entry, so the product
    bounds the largest eigenvalue of A_b^T A_b.
    """
    n_fields = len(counts)
    ones = np.ones((n_fields, weights.out_h, weights.out_w, 3))
    col = _color_adjoint(weights, ones)[:, 0]
    row = _render(weights, np.ones((col.size, 3)))[..., 0].reshape(n_fields, -1)
    starts = np.cumsum(counts) - counts
    return np.maximum.reduceat(col, starts) * row.max(axis=1)


def solve_colors(
    fields: Sequence[GaussianField],
    targets: Sequence[FrameBuffer],
    cfg: FitConfig,
    iterations: int,
) -> list[GaussianField]:
    """The fields with colours moved by `iterations` steps of FISTA on
    1/2 ||A c - y||^2 over c in [0, 1]^3, each from its own colours.

    fields[b] is solved against targets[b]; the fields share one LR size.
    Offsets and covariances stay fixed, so the unclamped scale-1 render is
    linear in the colours: img = A c, with A the window weights (amp * w)
    of one _Weights layout, kept for every pass while the batch holds at
    most B * raster.STORE_CAP window pixels (above that, each pass
    evaluates them again).  A c is _render and A^T r _color_adjoint.
    Every step is projected onto the box (a clip after each step, not
    only at the end) and has size 1 / L_b, L_b field b's _color_lipschitz,
    so each field's result is bit-equal to solving it alone.  With no
    iterations the given field objects come back.  cfg.iterations is not
    read.  Beck & Teboulle, SIAM J. Imaging Sci. 2009.
    """
    fields = _batch(fields, targets)
    if iterations <= 0:
        return fields
    pixels = np.stack([t.pixels for t in targets])
    weights = _Weights(fields, cfg.render_config(), n_scratch=3, keep=True)
    counts = [f.n_gaussians for f in fields]
    lipschitz = np.maximum(_color_lipschitz(weights, counts), np.finfo(float).tiny)
    step = np.repeat(1.0 / lipschitz, counts)[:, None]
    x = weights.colors
    z, t = x, 1.0
    for _ in range(iterations):
        residual = _render(weights, z) - pixels
        x_next = np.clip(z - step * _color_adjoint(weights, residual), 0.0, 1.0)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
    colors = np.split(x, np.cumsum(counts)[:-1])
    return [replace(f, colors=c) for f, c in zip(fields, colors)]


def _color_matrix(f: GaussianField, cfg: FitConfig) -> np.ndarray:
    """(H * W, N) dense colour matrix A of f, one channel's: column k is
    kernel k rendered alone with unit colour (render_windows, clamp off).
    The reference of solve_colors' products."""
    n = f.n_gaussians
    columns = []
    for k in range(n):
        unit = np.zeros((n, 3))
        unit[k] = 1.0
        img = render_windows(replace(f, colors=unit), cfg.render_config()).pixels
        columns.append(img[..., 0].ravel())
    return np.stack(columns, axis=1)


def _projected_gradient_colors(
    f: GaussianField, target: FrameBuffer, cfg: FitConfig, iterations: int
) -> np.ndarray:
    """(N, 3) colours of plain projected gradient on 1/2 ||A c - y||^2 over
    [0, 1]^3, with the dense _color_matrix and step 1 / ||A||_2^2, from f's
    colours: the reference of solve_colors on a small field."""
    a = _color_matrix(f, cfg)
    y = target.pixels.reshape(-1, 3)
    step = 1.0 / np.linalg.norm(a, 2) ** 2
    c = f.colors
    for _ in range(iterations):
        c = np.clip(c - step * (a.T @ (a @ c - y)), 0.0, 1.0)
    return c
