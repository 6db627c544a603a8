"""Hot numeric kernels: one numpy path, specialised by shape.

The public names (``conv2d_core``, ``bilinear_gather``, ``fps_order``,
``pillar_stats``) are the only entry points; callers reach them as
attributes of this module. Each body is written for the shapes the pipeline
sends it:

* :func:`conv2d_core` routes on the weight geometry. Depthwise convs
  (one input channel per group, one output per group) run as a per-tap
  shift-add over cache-sized channel blocks; 1x1 convs are one ``matmul``
  with the groups as the batch dimension; every other geometry (dense
  kxk, strided, channel-multiplier grouped) is an im2col GEMM batched
  over the groups, run in bands of output rows so that its column buffer
  stays under ``IM2COL_BAND_BYTES``. No path loops over groups in Python.
* :func:`fps_order` runs the greedy max-min loop on three contiguous
  coordinate columns with preallocated buffers. The three squared terms
  are summed in the same order as a row reduction, so picks are exact.
* :func:`bilinear_gather` reads the four corners with flat ``take``
  indices and accumulates them in place, one block of channels at a time.

All float work is float64. Results match the straight loop-nest
definitions in ``tests/`` to float64 accumulation order (~1e-12 relative);
``fps_order`` and ``pillar_stats`` counts match exactly.
"""

from __future__ import annotations

import numpy as np

#: Channels per block of the depthwise shift-add: one block's input taps,
#: accumulator and product buffer stay in cache at 48x48 maps.
DEPTHWISE_BLOCK = 32

#: Channels per block of the bilinear gather: the corner reads of a block
#: go through one small buffer instead of a second full-size map.
GATHER_BLOCK = 32

#: Upper bound on the im2col column buffer of one dense conv call. Larger
#: convs fill and multiply their columns in bands of output rows.
IM2COL_BAND_BYTES = 4 << 20


def _f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _taps(xpad, kh, kw, stride, ho, wo):
    """Yield ``(ky, kx, view)``: the input each kernel tap reads, (C, ho, wo)."""
    for ky in range(kh):
        for kx in range(kw):
            yield ky, kx, xpad[:, ky:ky + stride * (ho - 1) + 1:stride,
                               kx:kx + stride * (wo - 1) + 1:stride]


def _conv_depthwise(xpad, w, stride, ho, wo):
    c, _, kh, kw = w.shape
    wt = w.reshape(c, kh, kw)
    out = np.empty((c, ho, wo))
    tmp = np.empty((min(c, DEPTHWISE_BLOCK), ho, wo))
    for c0 in range(0, c, DEPTHWISE_BLOCK):
        c1 = min(c0 + DEPTHWISE_BLOCK, c)
        acc, buf = out[c0:c1], tmp[:c1 - c0]
        for ky, kx, view in _taps(xpad[c0:c1], kh, kw, stride, ho, wo):
            wk = wt[c0:c1, ky, kx, None, None]
            if ky == 0 and kx == 0:
                np.multiply(view, wk, out=acc)
            else:
                np.multiply(view, wk, out=buf)
                acc += buf
    return out


def _conv_pointwise(xpad, w, stride, groups):
    cout, cing = w.shape[:2]
    x = xpad[:, ::stride, ::stride] if stride > 1 else xpad
    ho, wo = x.shape[1:]
    cols = np.ascontiguousarray(x).reshape(groups, cing, ho * wo)
    out = np.matmul(w.reshape(groups, cout // groups, cing), cols)
    return out.reshape(cout, ho, wo)


def _conv_im2col(xpad, w, stride, groups, ho, wo):
    # the columns are filled and multiplied one band of output rows at a
    # time, through one buffer of at most IM2COL_BAND_BYTES per call
    cout, cing, kh, kw = w.shape
    k = cing * kh * kw
    rows = max(1, min(ho, IM2COL_BAND_BYTES // (8 * groups * k * wo)))
    buf = np.empty(groups * k * rows * wo)
    wmat = w.reshape(groups, cout // groups, k)
    out = np.empty((groups, cout // groups, ho * wo))
    for r0 in range(0, ho, rows):
        n = min(rows, ho - r0)
        cols = buf[:groups * k * n * wo].reshape(groups, cing, kh, kw, n, wo)
        band = xpad[:, stride * r0:stride * (r0 + n - 1) + kh]
        for ky, kx, view in _taps(band, kh, kw, stride, n, wo):
            cols[:, :, ky, kx] = view.reshape(groups, cing, n, wo)
        np.matmul(wmat, cols.reshape(groups, k, n * wo),
                  out=out[:, :, r0 * wo:(r0 + n) * wo])
    return out.reshape(cout, ho, wo)


def conv2d_core(xpad: np.ndarray, w: np.ndarray, stride: int, groups: int) -> np.ndarray:
    """Valid cross-correlation over a pre-padded (C, H, W) input."""
    xpad, w = _f64(xpad), _f64(w)
    cout, cing, kh, kw = w.shape
    ho = (xpad.shape[1] - kh) // stride + 1
    wo = (xpad.shape[2] - kw) // stride + 1
    if cing == 1 and cout == groups:
        return _conv_depthwise(xpad, w, stride, ho, wo)
    if kh == kw == 1:
        return _conv_pointwise(xpad, w, stride, groups)
    return _conv_im2col(xpad, w, stride, groups, ho, wo)


# ---------------------------------------------------------------------------
# resampling and point sampling
# ---------------------------------------------------------------------------

def bilinear_gather(f: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample f (C, H, W) at continuous coords (sx, sy); outside reads as 0."""
    f, sx, sy = _f64(f), _f64(sx), _f64(sy)
    c, h, w = f.shape
    flat = f.reshape(c, h * w)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    corners = []
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            wx = fx if dx else 1.0 - fx
            wy = fy if dy else 1.0 - fy
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            idx = np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1)
            corners.append((idx.ravel(), np.where(valid, wx * wy, 0.0).ravel()))
    out = np.zeros((c, h * w))
    tmp = np.empty((min(c, GATHER_BLOCK), h * w))
    for c0 in range(0, c, GATHER_BLOCK):
        c1 = min(c0 + GATHER_BLOCK, c)
        acc, buf = out[c0:c1], tmp[:c1 - c0]
        for idx, weight in corners:
            # indices are already in range; "clip" lets take write into buf
            # without the bounds-check buffer that "raise" uses with out=
            np.take(flat[c0:c1], idx, axis=1, out=buf, mode="clip")
            buf *= weight
            acc += buf
    return out.reshape(c, h, w)


def fps_order(xyz: np.ndarray, k: int) -> np.ndarray:
    """Greedy max-min farthest point sampling; returns indices in pick order.

    Seeded at the point farthest from the centroid; ties resolved to the
    lowest index at every step.
    """
    xyz = _f64(xyz)
    n = xyz.shape[0]
    picks = np.empty(k, dtype=np.int64)
    if k == 0:
        return picks
    centroid = xyz.sum(axis=0) / n
    p = int(np.argmax(((xyz - centroid) ** 2).sum(axis=1)))
    picks[0] = p
    x, y, z = xyz.T.copy()
    coords = xyz.tolist()
    mind = np.full(n, np.inf)
    d = np.empty(n)
    t = np.empty(n)
    # at ~1000 points a pick is a dozen ufunc calls, so call overhead sets
    # the pace: bind them locally and pass out= positionally
    sub, mul, add, minimum = np.subtract, np.multiply, np.add, np.minimum
    for j in range(1, k):
        px, py, pz = coords[p]
        # (dx^2 + dy^2) + dz^2, the order a row sum over (n, 3) uses
        sub(x, px, d)
        mul(d, d, d)
        sub(y, py, t)
        mul(t, t, t)
        add(d, t, d)
        sub(z, pz, t)
        mul(t, t, t)
        add(d, t, d)
        minimum(mind, d, out=mind)
        p = mind.argmax()
        picks[j] = p
    return picks


def pillar_stats(rows: np.ndarray, cols: np.ndarray, z: np.ndarray,
                 inten: np.ndarray, off: np.ndarray, h: int, w: int):
    """Per-cell accumulators (count, z sum, z max, z min, intensity sum, offset sum)."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    z, inten, off = _f64(z), _f64(inten), _f64(off)
    flat = rows * w + cols
    hw = h * w
    count = np.bincount(flat, minlength=hw).astype(np.float64)
    zsum = np.bincount(flat, weights=z, minlength=hw)
    isum = np.bincount(flat, weights=inten, minlength=hw)
    osum = np.bincount(flat, weights=off, minlength=hw)
    zmax = np.full(hw, -np.inf)
    zmin = np.full(hw, np.inf)
    np.maximum.at(zmax, flat, z)
    np.minimum.at(zmin, flat, z)
    return (count.reshape(h, w), zsum.reshape(h, w), zmax.reshape(h, w),
            zmin.reshape(h, w), isum.reshape(h, w), osum.reshape(h, w))
