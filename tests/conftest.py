"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from splatvid.core import GaussianField
from splatvid.synth import random_field  # noqa: F401  (re-exported for tests)


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
