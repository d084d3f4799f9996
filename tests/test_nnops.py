"""nnops.conv2d against a nested-loop cross-correlation oracle."""

import numpy as np
import pytest

from splatvid.nnops import conv2d


def conv2d_oracle(x, weights, bias):
    """Zero-padded, stride-1 cross-correlation, one tap at a time."""
    h, w, _ = x.shape
    cout, cin, kh, kw = weights.shape
    out = np.empty((h, w, cout))
    for y in range(h):
        for xx in range(w):
            for o in range(cout):
                acc = bias[o]
                for i in range(cin):
                    for dy in range(kh):
                        for dx in range(kw):
                            sy, sx = y + dy - kh // 2, xx + dx - kw // 2
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += x[sy, sx, i] * weights[o, i, dy, dx]
                out[y, xx, o] = acc
    return out


@pytest.mark.parametrize(
    "h, w, cin, cout, kh, kw",
    [
        (5, 4, 3, 2, 1, 1),  # 1x1
        (6, 5, 2, 4, 3, 3),  # 3x3, Cin != Cout
        (4, 7, 3, 5, 1, 3),  # non-square 1x3
        (1, 1, 2, 3, 3, 3),  # every tap but the centre in the padding
    ],
)
def test_against_nested_loop_oracle(h, w, cin, cout, kh, kw):
    rng = np.random.default_rng(h * 100 + w * 10 + kh)
    x = rng.normal(size=(h, w, cin))
    weights = rng.normal(size=(cout, cin, kh, kw))
    bias = rng.normal(size=cout)
    out = conv2d(x, weights, bias)
    assert out.shape == (h, w, cout)
    assert np.allclose(out, conv2d_oracle(x, weights, bias), rtol=0.0, atol=1e-12)

