"""Zero-padded convolution for the covariance-bank fuser."""

from __future__ import annotations

import numpy as np


def conv_windows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(H, W, Cin, kh, kw) read-only view of x's zero-padded kh x kw windows.

    Window [h, w] is centred on pixel (h, w).  Reshaped to (pixels,
    Cin*kh*kw), any run of whole rows is the column matrix of a conv, with
    columns in the (Cin, kh, kw) order of a conv weight tensor.
    """
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    return np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlation with zero padding and stride 1.

    x: (H, W, Cin); weights: (Cout, Cin, kh, kw); bias: (Cout,).
    Returns (H, W, Cout).
    """
    cout, cin, kh, kw = weights.shape
    h, w = x.shape[:2]
    # One (H*W, Cin*kh*kw) column matrix times the flattened kernel: a single
    # BLAS matmul.
    cols = conv_windows(x, kh, kw).reshape(h * w, cin * kh * kw)
    out = cols @ weights.reshape(cout, -1).T
    out += bias
    return out.reshape(h, w, cout)
