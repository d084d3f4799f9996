"""Domain types, validation, 2x2 covariance linear algebra and block means.

Conventions used everywhere in this package:
  * row-major storage, y-down image coordinates;
  * LR pixel (ix, iy) has geometric center (ix + 0.5, iy + 0.5);
  * a field's LR size is the size of the frame it represents, at every
    density; density sets only how many kernels there are;
  * a kernel covers a ``Density.stride`` x ``stride`` LR block: one pixel,
    or at 1:4 a 2x2 block centered at (2*ix + 1, 2*iy + 1).

All types are immutable value objects after construction and safe to share
read-only across workers: each stores its arrays through ``frozen_array``,
the one place that converts, checks and write-protects them.

Each kernel validity rule is written once, here: ``covariance_violations``,
and ``kernel_violations``, which adds the offset and color ranges.  Every
check of a kernel, a field, a bank or a GSF record applies them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

# Validation bounds: |rho| >= 1 makes the covariance singular, and tiny
# sigmas overflow the 1/(2*pi*|Sigma|) prefactor.
RHO_MAX = 1.0 - 1e-6
SIGMA_MIN = 1e-3


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class ShapeError(ValueError):
    """Array arguments have inconsistent shapes."""


def frozen_array(
    what: str,
    arr,
    ndim: int,
    last: int | None = None,
    finite: bool = True,
    dtype=np.float64,
) -> np.ndarray:
    """``arr`` as a read-only C-contiguous ``dtype`` array.

    Converts without copying when ``arr`` already is one.  Raises ShapeError
    unless it has ``ndim`` axes (and ``last`` entries on the last axis, when
    given), and ValidationError for a non-finite value when ``finite``.
    """
    # asarray, not ascontiguousarray, which would lift a 0-d array to 1-d.
    arr = np.asarray(arr, dtype=dtype, order="C")
    if arr.ndim != ndim:
        raise ShapeError(f"{what}: shape {arr.shape}, expected {ndim} axes")
    if last is not None and arr.shape[-1] != last:
        raise ShapeError(f"{what}: shape {arr.shape}, expected last axis {last}")
    if finite and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: non-finite values")
    arr.setflags(write=False)
    return arr


def covariance_violations(params: np.ndarray) -> np.ndarray:
    """Per-value flags of (..., 3) (sigma_x, sigma_y, rho) rows that break
    the covariance rule: non-finite, sigma < SIGMA_MIN or |rho| > RHO_MAX."""
    bad = ~np.isfinite(params)
    bad[..., 0:2] |= params[..., 0:2] < SIGMA_MIN
    bad[..., 2] |= np.abs(params[..., 2]) > RHO_MAX
    return bad


# Columns of a kernel row, the order kernel_violations and validate_field use.
_FIELD_COLUMNS = (
    "sigma_x", "sigma_y", "rho", "offset_x", "offset_y", "color_r", "color_g", "color_b"
)


def kernel_violations(values: np.ndarray, max_offset: float) -> np.ndarray:
    """Per-value flags of (..., 8) kernel rows in _FIELD_COLUMNS order that
    break the kernel rule: the covariance rule, offsets in [0, max_offset]
    and colors in [0, 1], all finite."""
    bad = ~np.isfinite(values)
    bad[..., 0:3] = covariance_violations(values[..., 0:3])
    bad[..., 3:5] |= (values[..., 3:5] < 0.0) | (values[..., 3:5] > max_offset)
    bad[..., 5:8] |= (values[..., 5:8] < 0.0) | (values[..., 5:8] > 1.0)
    return bad


def _first_violation(what: str, values: np.ndarray, bad: np.ndarray) -> None:
    """Raise ValidationError naming the first flagged value of a row."""
    if bad.any():
        j = int(np.argmax(bad))
        raise ValidationError(f"{what}: {_FIELD_COLUMNS[j]}={float(values[j])!r}")


class Density(enum.Enum):
    """One kernel per ``stride`` x ``stride`` LR block (the value is its
    pixel count).  ``stride`` alone decides what a grid cell covers."""

    ONE_PER_PIXEL = 1
    ONE_PER_FOUR_PIXELS = 4

    @property
    def stride(self) -> int:
        """LR pixels per grid-cell side: 1, or 2 at 1:4."""
        return math.isqrt(self.value)

    def grid_shape(self, lr_width: int, lr_height: int) -> tuple[int, int]:
        """(grid_w, grid_h) of the kernel grid for an LR frame."""
        return -(-lr_width // self.stride), -(-lr_height // self.stride)

    def anchor_center(self, ix, iy):
        """(cx, cy) LR-pixel center of grid cell (ix, iy); scalars or arrays."""
        return self.stride * (ix + 0.5), self.stride * (iy + 0.5)

    @functools.lru_cache(maxsize=8)
    def cell_centers(self, lr_width: int, lr_height: int) -> np.ndarray:
        """(N, 2) read-only array of kernel anchor centers in LR pixel
        coordinates, built once per (density, size) and shared."""
        gw, gh = self.grid_shape(lr_width, lr_height)
        iy, ix = np.mgrid[0:gh, 0:gw]
        cx, cy = self.anchor_center(ix, iy)
        centers = np.stack([cx.ravel(), cy.ravel()], axis=1).astype(np.float64)
        centers.flags.writeable = False
        return centers


@dataclass(frozen=True)
class CovParams:
    """(sigma_x, sigma_y, rho) triple defining a 2x2 SPD covariance matrix."""

    sigma_x: float
    sigma_y: float
    rho: float

    def validate(self) -> None:
        row = np.array([self.sigma_x, self.sigma_y, self.rho], dtype=np.float64)
        _first_violation(f"{self}", row, covariance_violations(row))


def cov_matrix(p: CovParams) -> np.ndarray:
    """[[sx^2, rho*sx*sy], [rho*sx*sy, sy^2]]."""
    p.validate()
    off = p.rho * p.sigma_x * p.sigma_y
    return np.array([[p.sigma_x**2, off], [off, p.sigma_y**2]], dtype=np.float64)


def cov_det(p: CovParams) -> float:
    """sx^2 * sy^2 * (1 - rho^2), always positive for valid params."""
    p.validate()
    return p.sigma_x**2 * p.sigma_y**2 * (1.0 - p.rho**2)


def cov_inverse(p: CovParams) -> np.ndarray:
    """Closed-form inverse of cov_matrix(p)."""
    det = cov_det(p)
    off = -p.rho * p.sigma_x * p.sigma_y
    return np.array([[p.sigma_y**2, off], [off, p.sigma_x**2]], dtype=np.float64) / det


@dataclass(frozen=True)
class Gaussian2D:
    """A single kernel: integer anchor cell, sub-cell offset, covariance, color.

    The absolute kernel center is cell_center(anchor) + offset.  Before
    adaptive-window scaling, offset components lie in [0, 1].
    """

    anchor: tuple[int, int]
    offset: np.ndarray  # (2,) LR pixels
    cov: CovParams
    color: np.ndarray  # (3,) RGB in [0, 1]

    def center(self, density: Density = Density.ONE_PER_PIXEL) -> np.ndarray:
        base = np.array(density.anchor_center(*self.anchor), dtype=np.float64)
        return base + np.asarray(self.offset, dtype=np.float64)

    def validate(self, max_offset: float = 1.0) -> None:
        off = np.asarray(self.offset, dtype=np.float64)
        col = np.asarray(self.color, dtype=np.float64)
        if off.shape != (2,) or col.shape != (3,):
            raise ValidationError(f"bad shapes offset={off.shape} color={col.shape}")
        c = self.cov
        row = np.concatenate([[c.sigma_x, c.sigma_y, c.rho], off, col])
        _first_violation(f"kernel {self.anchor}", row, kernel_violations(row, max_offset))


@dataclass(frozen=True)
class GaussianField:
    """A full frame as a row-major grid of 2D Gaussians.

    Array-of-struct access goes through ``gaussian(i)``; the bulk arrays are
    what every numeric routine operates on.
    """

    lr_width: int
    lr_height: int
    density: Density
    offsets: np.ndarray  # (N, 2)
    sigmas: np.ndarray  # (N, 2)
    rhos: np.ndarray  # (N,)
    colors: np.ndarray  # (N, 3)
    timestamp: float = 0.0
    # Offsets may exceed [0, 1] only after adaptive-window scaling.
    max_offset: float = 1.0

    def __post_init__(self):
        # Shapes are checked here; values are not: validate_field reports them.
        n = self.n_gaussians
        shapes = {"offsets": (n, 2), "sigmas": (n, 2), "rhos": (n,), "colors": (n, 3)}
        for name, shape in shapes.items():
            what = f"GaussianField.{name}"
            arr = frozen_array(what, getattr(self, name), len(shape), finite=False)
            if arr.shape != shape:
                raise ShapeError(f"{what}: shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.density.grid_shape(self.lr_width, self.lr_height)

    @property
    def n_gaussians(self) -> int:
        gw, gh = self.grid_shape
        return gw * gh

    def cell_centers(self) -> np.ndarray:
        return self.density.cell_centers(self.lr_width, self.lr_height)

    def mu(self) -> np.ndarray:
        """(N, 2) absolute kernel centers in LR coordinates."""
        return self.cell_centers() + self.offsets

    def gaussian(self, i: int) -> Gaussian2D:
        gw, _ = self.grid_shape
        return Gaussian2D(
            anchor=(i % gw, i // gw),
            offset=self.offsets[i].copy(),
            cov=CovParams(float(self.sigmas[i, 0]), float(self.sigmas[i, 1]), float(self.rhos[i])),
            color=self.colors[i].copy(),
        )


def edge_blocks(img: np.ndarray, gh: int, bh: int, gw: int, bw: int) -> np.ndarray:
    """(H, W, ...) -> (gh, bh, gw, bw, ...) blocks, the last row and column
    replicated to fill them (np.pad's edge mode, gathered by index: cheaper)."""
    rows = np.minimum(np.arange(gh * bh), img.shape[0] - 1)
    cols = np.minimum(np.arange(gw * bw), img.shape[1] - 1)
    return img.take(rows, axis=0).take(cols, axis=1).reshape(gh, bh, gw, bw, *img.shape[2:])


def block_mean(img: np.ndarray, gh: int, gw: int) -> np.ndarray:
    """(H, W, ...) -> (gh, gw, ...) means of ceil(H/gh) x ceil(W/gw)
    edge_blocks."""
    h, w = img.shape[:2]
    return edge_blocks(img, gh, -(-h // gh), gw, -(-w // gw)).mean(axis=(1, 3))


@dataclass(frozen=True)
class Violation:
    cell: int
    field: str
    value: float

    def __str__(self):
        return f"cell {self.cell}: {self.field}={self.value!r}"


def validate_field(f: GaussianField) -> list[Violation]:
    """Report every per-kernel invariant violation; empty list iff valid."""
    out: list[Violation] = []
    if not (0.0 <= f.timestamp <= 1.0):
        out.append(Violation(-1, "timestamp", f.timestamp))
    values = np.column_stack([f.sigmas, f.rhos, f.offsets, f.colors])
    bad = kernel_violations(values, f.max_offset)
    # nonzero runs row-major: kernel index first, then the column order.
    cells, cols = np.nonzero(bad)
    out.extend(
        Violation(int(i), _FIELD_COLUMNS[j], float(values[i, j]))
        for i, j in zip(cells, cols)
    )
    return out


@dataclass(frozen=True)
class FlowField:
    """Per-pixel (dx, dy) displacement map, row-major, y-down."""

    vectors: np.ndarray  # (H, W, 2)

    def __post_init__(self):
        object.__setattr__(self, "vectors", frozen_array("FlowField", self.vectors, 3, last=2))

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    @property
    def height(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class FrameBuffer:
    """Dense HxWx3 real-valued image."""

    pixels: np.ndarray  # (H, W, 3)

    def __post_init__(self):
        object.__setattr__(self, "pixels", frozen_array("FrameBuffer", self.pixels, 3, last=3))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class FeatureMap:
    """Dense HxWxC channel image (C >= 1)."""

    data: np.ndarray  # (H, W, C)

    def __post_init__(self):
        object.__setattr__(self, "data", frozen_array("FeatureMap", self.data, 3))
        if self.channels < 1:
            raise ShapeError(f"FeatureMap: bad shape {self.data.shape}")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[2]
