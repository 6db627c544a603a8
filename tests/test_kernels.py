"""The numpy kernels against straight loop-nest references."""

import numpy as np

from cpalign import backend, kernels


def bilinear_gather_oracle(f, sx, sy):
    """Per-pixel, per-channel bilinear read; out-of-range corners read 0."""
    c, h, w = f.shape
    out = np.zeros((c, h, w))
    for y in range(h):
        for x in range(w):
            x0 = int(np.floor(sx[y, x]))
            y0 = int(np.floor(sy[y, x]))
            fx = sx[y, x] - x0
            fy = sy[y, x] - y0
            corners = ((y0, x0, (1.0 - fx) * (1.0 - fy)),
                       (y0, x0 + 1, fx * (1.0 - fy)),
                       (y0 + 1, x0, (1.0 - fx) * fy),
                       (y0 + 1, x0 + 1, fx * fy))
            for ch in range(c):
                acc = 0.0
                for yi, xi, wgt in corners:
                    if 0 <= xi < w and 0 <= yi < h:
                        acc += wgt * f[ch, yi, xi]
                out[ch, y, x] = acc
    return out


def test_active_matches_backend():
    assert backend.ACTIVE == "numpy"


def test_bilinear_parity():
    rng = np.random.default_rng(2)
    sx = rng.uniform(-1.5, 11.5, size=(9, 11))
    sy = rng.uniform(-1.5, 9.5, size=(9, 11))
    sx[0, :3] = [-1.0, 0.0, 10.0]   # exact cell borders
    sy[0, :3] = [0.0, -1.0, 8.0]
    # one channel block, and several with a ragged last block
    for c in (5, 2 * kernels.GATHER_BLOCK + 6):
        f = rng.normal(size=(c, 9, 11))
        np.testing.assert_allclose(kernels.bilinear_gather(f, sx, sy),
                                   bilinear_gather_oracle(f, sx, sy),
                                   rtol=0, atol=1e-12)
