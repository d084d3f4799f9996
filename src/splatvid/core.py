"""Domain types, validation, 2x2 covariance linear algebra and block means.

Conventions used everywhere in this package:
  * row-major storage, y-down image coordinates;
  * LR pixel (ix, iy) has geometric center (ix + 0.5, iy + 0.5);
  * at 1:4 density one kernel covers a 2x2 LR block, centered at
    (2*ix + 1, 2*iy + 1).

All types are immutable value objects after construction and safe to share
read-only across workers.
"""

from __future__ import annotations

import enum
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


class Density(enum.Enum):
    ONE_PER_PIXEL = 1
    ONE_PER_FOUR_PIXELS = 4

    def grid_shape(self, lr_width: int, lr_height: int) -> tuple[int, int]:
        """(grid_w, grid_h) of the kernel grid for an LR frame."""
        if self is Density.ONE_PER_PIXEL:
            return lr_width, lr_height
        return (lr_width + 1) // 2, (lr_height + 1) // 2

    def cell_centers(self, lr_width: int, lr_height: int) -> np.ndarray:
        """(N, 2) array of kernel anchor centers in LR pixel coordinates."""
        gw, gh = self.grid_shape(lr_width, lr_height)
        iy, ix = np.mgrid[0:gh, 0:gw]
        if self is Density.ONE_PER_PIXEL:
            cx, cy = ix + 0.5, iy + 0.5
        else:
            cx, cy = 2.0 * ix + 1.0, 2.0 * iy + 1.0
        return np.stack([cx.ravel(), cy.ravel()], axis=1).astype(np.float64)

    def min_scale(self) -> float:
        """1:4 density forbids rendering below scale 2."""
        return 2.0 if self is Density.ONE_PER_FOUR_PIXELS else 1.0


@dataclass(frozen=True)
class CovParams:
    """(sigma_x, sigma_y, rho) triple defining a 2x2 SPD covariance matrix."""

    sigma_x: float
    sigma_y: float
    rho: float

    def validate(self) -> None:
        if not (math.isfinite(self.sigma_x) and math.isfinite(self.sigma_y) and math.isfinite(self.rho)):
            raise ValidationError(f"non-finite covariance params {self}")
        if self.sigma_x < SIGMA_MIN or self.sigma_y < SIGMA_MIN:
            raise ValidationError(f"sigma below {SIGMA_MIN}: {self}")
        if abs(self.rho) > RHO_MAX:
            raise ValidationError(f"|rho| exceeds {RHO_MAX}: {self}")


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
    p.validate()
    det = p.sigma_x**2 * p.sigma_y**2 * (1.0 - p.rho**2)
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
        ix, iy = self.anchor
        if density is Density.ONE_PER_PIXEL:
            base = np.array([ix + 0.5, iy + 0.5])
        else:
            base = np.array([2.0 * ix + 1.0, 2.0 * iy + 1.0])
        return base + np.asarray(self.offset, dtype=np.float64)

    def validate(self, max_offset: float = 1.0) -> None:
        self.cov.validate()
        off = np.asarray(self.offset, dtype=np.float64)
        col = np.asarray(self.color, dtype=np.float64)
        if off.shape != (2,) or col.shape != (3,):
            raise ValidationError(f"bad shapes offset={off.shape} color={col.shape}")
        if not (np.all(np.isfinite(off)) and np.all(np.isfinite(col))):
            raise ValidationError("non-finite gaussian fields")
        if np.any(off < 0.0) or np.any(off > max_offset):
            raise ValidationError(f"offset {off} outside [0, {max_offset}]")
        if np.any(col < 0.0) or np.any(col > 1.0):
            raise ValidationError(f"color {col} outside [0, 1]")


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
        for name in ("offsets", "sigmas", "rhos", "colors"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
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

    def replace(self, **kwargs) -> "GaussianField":
        data = dict(
            lr_width=self.lr_width,
            lr_height=self.lr_height,
            density=self.density,
            offsets=self.offsets,
            sigmas=self.sigmas,
            rhos=self.rhos,
            colors=self.colors,
            timestamp=self.timestamp,
            max_offset=self.max_offset,
        )
        data.update(kwargs)
        return GaussianField(**data)


def block_mean(img: np.ndarray, gh: int, gw: int) -> np.ndarray:
    """(H, W, ...) -> (gh, gw, ...) means of ceil(H/gh) x ceil(W/gw) blocks.

    The image is edge-padded to fill the last row and column of blocks.
    """
    h, w = img.shape[:2]
    bh = -(-h // gh)
    bw = -(-w // gw)
    pad = [(0, gh * bh - h), (0, gw * bw - w)] + [(0, 0)] * (img.ndim - 2)
    blocks = np.pad(img, pad, mode="edge").reshape(gh, bh, gw, bw, *img.shape[2:])
    return blocks.mean(axis=(1, 3))


@dataclass(frozen=True)
class Violation:
    cell: int
    field: str
    value: float

    def __str__(self):
        return f"cell {self.cell}: {self.field}={self.value!r}"


_FIELD_COLUMNS = (
    "sigma_x",
    "sigma_y",
    "rho",
    "offset_x",
    "offset_y",
    "color_r",
    "color_g",
    "color_b",
)


def validate_field(f: GaussianField) -> list[Violation]:
    """Report every per-kernel invariant violation; empty list iff valid."""
    out: list[Violation] = []
    gw, gh = f.grid_shape
    n = gw * gh
    shapes = {
        "offsets": (n, 2),
        "sigmas": (n, 2),
        "rhos": (n,),
        "colors": (n, 3),
    }
    for name, shape in shapes.items():
        arr = getattr(f, name)
        if arr.shape != shape:
            raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
    if not (0.0 <= f.timestamp <= 1.0):
        out.append(Violation(-1, "timestamp", f.timestamp))
    values = np.column_stack([f.sigmas, f.rhos, f.offsets, f.colors])
    bad = ~np.isfinite(values)
    bad[:, 0:2] |= values[:, 0:2] < SIGMA_MIN
    bad[:, 2] |= np.abs(values[:, 2]) > RHO_MAX
    bad[:, 3:5] |= (values[:, 3:5] < 0.0) | (values[:, 3:5] > f.max_offset)
    bad[:, 5:8] |= (values[:, 5:8] < 0.0) | (values[:, 5:8] > 1.0)
    # nonzero runs row-major: kernel index first, then the column order.
    cells, cols = np.nonzero(bad)
    out.extend(
        Violation(int(i), _FIELD_COLUMNS[j], float(values[i, j]))
        for i, j in zip(cells, cols)
    )
    return out


def _finite_image(name: str, arr: np.ndarray, channels: int | None) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != (2 if channels is None else 3):
        raise ShapeError(f"{name}: bad ndim {arr.ndim}")
    if channels is not None and arr.shape[2] != channels:
        raise ShapeError(f"{name}: expected {channels} channels, got {arr.shape[2]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FlowField:
    """Per-pixel (dx, dy) displacement map, row-major, y-down."""

    vectors: np.ndarray  # (H, W, 2)

    def __post_init__(self):
        object.__setattr__(self, "vectors", _finite_image("FlowField", self.vectors, 2))

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
        object.__setattr__(self, "pixels", _finite_image("FrameBuffer", self.pixels, 3))

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
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] < 1:
            raise ShapeError(f"FeatureMap: bad shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("FeatureMap: non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[2]
