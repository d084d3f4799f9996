"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from splatvid.core import GaussianField
from splatvid.synth import random_field  # noqa: F401  (re-exported for tests)

# Weights documents json cannot read as values: entry data nested 2000 deep
# (a 4 KB file; RecursionError inside json) and a number of 5000 digits (a
# plain ValueError, Python's integer-string limit).
_BANK = '{"format": "gsw1", "entries": {"bank": {"shape": [1], "data": %s}}}'
DEEP_DOC = _BANK % ("[" * 2000 + "]" * 2000)
LONG_INT_DOC = _BANK % ("[" + "1" * 5000 + "]")


def fields_equal(a: GaussianField, b: GaussianField) -> bool:
    return (
        a.lr_width == b.lr_width
        and a.lr_height == b.lr_height
        and a.density is b.density
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.sigmas, b.sigmas)
        and np.array_equal(a.rhos, b.rhos)
        and np.array_equal(a.colors, b.colors)
    )


def segments(chunks) -> list:
    """Every raster._Segment of a window layout's chunks, in order."""
    return [seg for chunk in chunks for seg in chunk]


def layout_px(chunks) -> int:
    """Window pixels of a window layout: the sum of its chunks' sizes."""
    return sum(chunk[-1].span.stop for chunk in chunks)


def window_pixels(seg, out_w: int, out_h: int) -> tuple[np.ndarray, np.ndarray]:
    """(px, py): the pixel columns (G, Wx) and rows (G, Wy) of each window
    of a segment, from its corners in a batch image of out_h x out_w planes."""
    wy, wx = seg.offs.shape
    y0, x0 = np.divmod(seg.corner % (out_w * out_h), out_w)
    return x0[:, None] + np.arange(wx), y0[:, None] + np.arange(wy)
