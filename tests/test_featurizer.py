import math
import warnings

import numpy as np
import pytest

from cpalign.featurizer import (
    BevSpec,
    MultiScaleFeatures,
    backbone_forward,
    bev_project,
    box_footprint_mask,
    default_backbone_weights,
    default_bevproj_weights,
    pillar_encode,
)
from cpalign.numerics import ConvSpec, ShapeError, conv2d
from cpalign.pointcloud import OrientedBox


def pillar_oracle(cloud, spec):
    """Per-cell statistics via plain python dict accumulation."""
    h, w = spec.height, spec.width
    cells = {}
    for x, y, z, inten in cloud:
        c = math.floor((x - spec.origin_x) / spec.cell)
        r = math.floor((y - spec.origin_y) / spec.cell)
        if not (0 <= r < h and 0 <= c < w):
            continue
        ccx = spec.origin_x + (c + 0.5) * spec.cell
        ccy = spec.origin_y + (r + 0.5) * spec.cell
        cells.setdefault((r, c), []).append(
            (z, inten, math.hypot(x - ccx, y - ccy)))
    out = np.zeros((8, h, w))
    for (r, c), vals in cells.items():
        zs = [v[0] for v in vals]
        out[:, r, c] = [
            1.0,
            math.log1p(len(vals)),
            sum(zs) / len(vals),
            max(zs),
            min(zs),
            max(zs) - min(zs),
            sum(v[1] for v in vals) / len(vals),
            sum(v[2] for v in vals) / len(vals),
        ]
    return out


def test_pillar_encode_matches_oracle():
    rng = np.random.default_rng(21)
    spec = BevSpec.centered(8.0, 6.4, cell=0.4)
    cloud = np.empty((300, 4))
    cloud[:, 0] = rng.uniform(-5, 5, 300)   # some points out of range
    cloud[:, 1] = rng.uniform(-4, 4, 300)
    cloud[:, 2] = rng.normal(size=300)
    cloud[:, 3] = rng.uniform(size=300)
    got = pillar_encode(cloud, spec)
    np.testing.assert_allclose(got, pillar_oracle(cloud, spec), rtol=1e-12, atol=1e-12)


def test_pillar_encode_empty_and_out_of_range():
    spec = BevSpec.centered(3.2, 3.2, cell=0.4)
    assert pillar_encode(np.empty((0, 4)), spec).sum() == 0.0
    far = np.array([[100.0, 0.0, 1.0, 0.5]])
    assert pillar_encode(far, spec).sum() == 0.0
    # a point exactly on the max edge falls outside
    edge = np.array([[1.6, 0.0, 1.0, 0.5]])
    assert pillar_encode(edge, spec).sum() == 0.0
    inner_edge = np.array([[-1.6, 0.0, 1.0, 0.5]])
    enc = pillar_encode(inner_edge, spec)
    assert enc[0].sum() == 1.0 and enc[0, 4, 0] == 1.0


def test_pillar_encode_drops_overflowing_points_without_a_warning():
    # (x - origin) / cell overflows to inf for these finite points; the
    # bounds test drops them before any cast to an integer cell index
    spec = BevSpec.centered(3.2, 3.2, cell=0.4)
    cloud = np.array([[1.7e308, 0.0, 1.0, 0.5],
                      [0.0, -1.7e308, 1.0, 0.5],
                      [-1.6, 0.0, 1.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enc = pillar_encode(cloud, spec)
    np.testing.assert_array_equal(enc, pillar_encode(cloud[2:], spec))
    assert enc[0].sum() == 1.0 and enc[0, 4, 0] == 1.0


def test_pillar_single_point_channels():
    spec = BevSpec(4.0, 4.0, cell=1.0)
    cloud = np.array([[1.25, 2.25, 3.0, 0.5]])
    enc = pillar_encode(cloud, spec)
    col = enc[:, 2, 1]
    # offset from center (1.5, 2.5) is hypot(0.25, 0.25)
    np.testing.assert_allclose(
        col, [1.0, math.log(2.0), 3.0, 3.0, 3.0, 0.0, 0.5, math.hypot(0.25, 0.25)],
        rtol=1e-12)


def test_bev_spec_validation():
    with pytest.raises(ShapeError):
        BevSpec(4.1, 4.0, cell=0.4)        # non-integral extent
    with pytest.raises(ShapeError):
        BevSpec(2.0, 2.0, cell=1.0)        # 2x2 grid not divisible by 4
    with pytest.raises(ShapeError):
        BevSpec(4.0, 4.0, cell=-1.0)
    spec = BevSpec.centered(19.2, 19.2)
    assert (spec.height, spec.width) == (48, 48)
    assert spec.origin_x == -9.6


def test_backbone_shapes_and_zero_propagation():
    spec = BevSpec(4.8, 3.2, cell=0.4)  # 8 x 12
    ms = backbone_forward(np.zeros((8, spec.height, spec.width)),
                          default_backbone_weights())
    assert ms.large.shape == (64, 8, 12)
    assert ms.middle.shape == (128, 4, 6)
    assert ms.small.shape == (256, 2, 3)
    # zero input with zero bias stays exactly zero at every scale
    assert ms.large.sum() == 0.0 and ms.middle.sum() == 0.0 and ms.small.sum() == 0.0


def test_backbone_deterministic_and_seeded():
    rng = np.random.default_rng(2)
    pillars = rng.normal(size=(8, 8, 8))
    a = backbone_forward(pillars, default_backbone_weights(5))
    b = backbone_forward(pillars, default_backbone_weights(5))
    c = backbone_forward(pillars, default_backbone_weights(6))
    np.testing.assert_array_equal(a.large, b.large)
    assert not np.allclose(a.large, c.large)
    assert (a.large >= 0).all() and (a.small >= 0).all()  # relu outputs


def test_backbone_missing_weights_lists_names():
    w = default_backbone_weights()
    del w["backbone.conv2.weight"], w["backbone.conv3.bias"]
    with pytest.raises(KeyError, match="backbone.conv2.weight"):
        backbone_forward(np.zeros((8, 4, 4)), weights=w)
    with pytest.raises(KeyError, match="backbone.conv3.bias"):
        backbone_forward(np.zeros((8, 4, 4)), weights=w)


def test_backbone_rejects_bad_inputs():
    w = default_backbone_weights()
    with pytest.raises(ShapeError):
        backbone_forward(np.zeros((7, 4, 4)), w)
    with pytest.raises(ShapeError):
        backbone_forward(np.zeros((8, 6, 4)), w)


def tconv2d_oracle(t, w, bias, stride, padding):
    """Scatter each input cell through the kernel, then crop the padding.

    ``w`` is (Cin, Cout, kh, kw): the transposed conv maps Cin channels to
    Cout. One channel matrix product per input cell and kernel tap.
    """
    _, cout, kh, kw = w.shape
    _, ht, wt = t.shape
    ho = (ht - 1) * stride - 2 * padding + kh
    wo = (wt - 1) * stride - 2 * padding + kw
    z = np.zeros((cout, ho + 2 * padding, wo + 2 * padding))
    for ty in range(ht):
        for tx in range(wt):
            for ky in range(kh):
                for kx in range(kw):
                    z[:, ty * stride + ky, tx * stride + kx] += (
                        w[:, :, ky, kx].T @ t[:, ty, tx])
    return z[:, padding:padding + ho, padding:padding + wo] + bias[:, None, None]


def _random_projection_inputs(rng, h, w, seed):
    ms = MultiScaleFeatures(rng.normal(size=(64, h, w)),
                            rng.normal(size=(128, h // 2, w // 2)),
                            rng.normal(size=(256, h // 4, w // 4)))
    wts = default_bevproj_weights(seed)
    for name in ("bevproj.large.bias", "bevproj.middle.bias", "bevproj.small.bias"):
        wts[name] = rng.normal(size=wts[name].shape)
    return ms, wts


@pytest.mark.parametrize("h,w", [(8, 12), (48, 48)])
def test_bev_project_matches_scatter_oracle(h, w):
    # 48x48 is the pipeline's grid; random biases show in every block
    ms, wts = _random_projection_inputs(np.random.default_rng([h, w]), h, w, seed=1)
    want = np.concatenate([
        tconv2d_oracle(ms.large, wts["bevproj.large.weight"],
                       wts["bevproj.large.bias"], stride=1, padding=1),
        tconv2d_oracle(ms.middle, wts["bevproj.middle.weight"],
                       wts["bevproj.middle.bias"], stride=2, padding=0),
        tconv2d_oracle(ms.small, wts["bevproj.small.weight"],
                       wts["bevproj.small.bias"], stride=4, padding=0),
    ])
    np.testing.assert_allclose(bev_project(ms, wts), want, rtol=1e-12, atol=1e-12)


def test_bev_project_shape_and_channel_blocks():
    rng = np.random.default_rng(3)
    h, w = 8, 12
    ms = MultiScaleFeatures(rng.normal(size=(64, h, w)),
                            rng.normal(size=(128, h // 2, w // 2)),
                            rng.normal(size=(256, h // 4, w // 4)))
    wts = default_bevproj_weights()
    out = bev_project(ms, wts)
    assert out.shape == (384, h, w)
    # zeroing one scale zeroes exactly its 128-channel block (zero biases)
    ms2 = MultiScaleFeatures(ms.large, np.zeros_like(ms.middle), ms.small)
    out2 = bev_project(ms2, wts)
    np.testing.assert_array_equal(out2[128:256], np.zeros((128, h, w)))
    np.testing.assert_array_equal(out2[:128], out[:128])
    np.testing.assert_array_equal(out2[256:], out[256:])


def _tiled_block(x, w, bias):
    m = np.tensordot(w, x, axes=([0], [0]))     # (128, k, k, h, w)
    _, k, _, hl, wl = m.shape
    return m.transpose(0, 3, 1, 4, 2).reshape(128, hl * k, wl * k) + bias[:, None, None]


def test_bev_project_matches_concat_of_blocks_bitwise():
    # pins the arithmetic bit for bit: the large block is the pad-2 conv
    # with the flipped, in/out-swapped kernel less its rim (a plain pad-1
    # conv reassociates the sums and moves bits at the pipeline's 48x48),
    # the others one GEMM and a tile transpose
    rng = np.random.default_rng(8)
    h, w = 48, 48
    ms, wts = _random_projection_inputs(rng, h, w, seed=2)
    wflip = wts["bevproj.large.weight"].transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    large = conv2d(ms.large, ConvSpec(128, 64, 3, 3, wflip, bias=wts["bevproj.large.bias"],
                                      padding=2))
    want = np.concatenate([
        large[:, 1:-1, 1:-1],
        _tiled_block(ms.middle, wts["bevproj.middle.weight"], wts["bevproj.middle.bias"]),
        _tiled_block(ms.small, wts["bevproj.small.weight"], wts["bevproj.small.bias"]),
    ])
    got = bev_project(ms, wts)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_bev_project_is_linear():
    rng = np.random.default_rng(4)
    h, w = 8, 8

    def rand_ms():
        return MultiScaleFeatures(rng.normal(size=(64, h, w)),
                                  rng.normal(size=(128, h // 2, w // 2)),
                                  rng.normal(size=(256, h // 4, w // 4)))

    a, b = rand_ms(), rand_ms()
    combo = MultiScaleFeatures(2.0 * a.large - 3.0 * b.large,
                               2.0 * a.middle - 3.0 * b.middle,
                               2.0 * a.small - 3.0 * b.small)
    wts = default_bevproj_weights()
    lhs = bev_project(combo, wts)
    rhs = 2.0 * bev_project(a, wts) - 3.0 * bev_project(b, wts)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_bev_project_weight_names_roundtrip():
    w = default_bevproj_weights(seed=1)
    del w["bevproj.small.weight"]
    rng = np.random.default_rng(5)
    ms = MultiScaleFeatures(rng.normal(size=(64, 4, 4)),
                            rng.normal(size=(128, 2, 2)),
                            rng.normal(size=(256, 1, 1)))
    with pytest.raises(KeyError, match="bevproj.small.weight"):
        bev_project(ms, weights=w)


def test_multiscale_validation():
    with pytest.raises(ShapeError):
        MultiScaleFeatures(np.zeros((64, 8, 8)), np.zeros((128, 4, 4)),
                           np.zeros((255, 2, 2)))
    with pytest.raises(ShapeError):
        MultiScaleFeatures(np.zeros((64, 8, 8)), np.zeros((128, 5, 4)),
                           np.zeros((256, 2, 2)))


def test_box_footprint_mask_axis_aligned_exact():
    spec = BevSpec.centered(4.0, 4.0, cell=0.5)
    box = OrientedBox(0.0, 0.0, 0.0, 2.0, 1.0, 1.0)
    mask = box_footprint_mask([box], spec.origin_x, spec.origin_y, spec.cell,
                              spec.height, spec.width)
    rows, cols = np.nonzero(mask)
    # footprint x in [-1, 1], y in [-0.5, 0.5]: centers at +-0.75, +-0.25 (x)
    assert sorted(set(cols)) == [2, 3, 4, 5]
    assert sorted(set(rows)) == [3, 4]
    assert mask.sum() == 8


def test_box_footprint_mask_rotation():
    grid = (-3.0, -3.0, 0.5, 12, 12)
    long_x = box_footprint_mask([OrientedBox(0, 0, 0, 4.0, 1.0, 1.0, yaw=0.0)], *grid)
    long_y = box_footprint_mask([OrientedBox(0, 0, 0, 4.0, 1.0, 1.0, yaw=math.pi / 2)], *grid)
    np.testing.assert_array_equal(long_y, long_x.T)


def test_box_footprint_mask_padding_and_any_grid():
    # a 5 x 7 grid, which no BevSpec allows, and a rotated box
    grid = (-1.4, -1.0, 0.4, 5, 7)
    box = OrientedBox(0.1, 0.0, 0.5, 1.0, 0.6, 1.0, yaw=0.4)
    padded = box_footprint_mask([box], *grid, pad_cells=2)
    grown = OrientedBox(0.1, 0.0, 0.5, 1.0 + 2.0 * 2 * 0.4, 0.6 + 2.0 * 2 * 0.4, 1.0,
                        yaw=0.4)
    np.testing.assert_array_equal(padded, box_footprint_mask([grown], *grid))
    plain = box_footprint_mask([box], *grid)
    assert padded.shape == (5, 7) and plain.sum() < padded.sum()
    assert not np.any(plain & ~padded)
    # several boxes give the union of their footprints
    other = OrientedBox(-1.0, 0.6, 0.5, 0.4, 0.4, 1.0)
    np.testing.assert_array_equal(box_footprint_mask([box, other], *grid),
                                  plain | box_footprint_mask([other], *grid))
    assert not box_footprint_mask([], *grid).any()
