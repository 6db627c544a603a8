import math

import numpy as np
import pytest

from cpalign import kernels
from cpalign.numerics import ShapeError
from cpalign.pointcloud import (
    PHD_DISTANCE,
    PHD_INNER_KEEP,
    PHD_INNER_SCALE,
    PHD_MAX_BOXES,
    PHD_OUTER_KEEP,
    OrientedBox,
    fps,
    partition_regions,
    phd_apply,
    select_proximal,
)


def fps_oracle_order(xyz, k):
    """Plain greedy max-min reference, lowest index on ties, in pick order."""
    n = len(xyz)
    centroid = xyz.sum(axis=0) / n
    d = ((xyz - centroid) ** 2).sum(axis=1)
    picks = [int(np.argmax(d))]
    mind = np.full(n, np.inf)
    for _ in range(1, k):
        mind = np.minimum(mind, ((xyz - xyz[picks[-1]]) ** 2).sum(axis=1))
        picks.append(int(np.argmax(mind)))
    return picks


def fps_oracle(xyz, k):
    return sorted(fps_oracle_order(xyz, k))


def random_cloud(rng, n, scale=10.0):
    pts = np.empty((n, 4))
    pts[:, :3] = rng.normal(size=(n, 3)) * scale
    pts[:, 3] = rng.uniform(size=n)
    return pts


def test_fps_matches_oracle_over_many_trials():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(1, 60))
        cloud = random_cloud(rng, n)
        beta = float(rng.choice([0.25, 0.5, 0.75]))
        k = math.ceil(beta * n)
        got = fps(cloud, beta)
        want = fps_oracle(cloud[:, :3], k)
        assert got.tolist() == want, f"trial {trial}: {got} != {want}"


def test_fps_order_bit_identical_to_oracle():
    rng = np.random.default_rng(7)
    xyz = rng.normal(size=(3000, 3)) * 20.0
    assert kernels.fps_order(xyz, 1500).tolist() == fps_oracle_order(xyz, 1500)
    # 150 distinct points, each repeated 4 times in shuffled order: once all
    # distinct points are taken every min distance is 0 and ties decide
    dup = rng.permutation(np.repeat(rng.normal(size=(150, 3)), 4, axis=0))
    assert kernels.fps_order(dup, 400).tolist() == fps_oracle_order(dup, 400)
    # on a 0.1-spaced lattice, distances equal in the reals tie or not
    # depending on float rounding, so the squared terms must be summed in
    # the oracle's order for the picks to agree
    axis = np.arange(10) * 0.1
    lattice = rng.permutation(
        np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3))
    assert kernels.fps_order(lattice, 500).tolist() == fps_oracle_order(lattice, 500)


def test_fps_counts_and_order():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 10)
    idx = fps(cloud, 0.35)  # ceil(3.5) = 4
    assert len(idx) == 4
    assert np.all(np.diff(idx) > 0)
    # ratio 1 keeps everything
    assert fps(cloud, 1.0).tolist() == list(range(10))
    # duplicated points never crash; min distance just saturates at zero
    dup = np.repeat(cloud[:1], 5, axis=0)
    assert len(fps(dup, 0.6)) == 3
    assert fps(np.empty((0, 4)), 0.5).size == 0
    with pytest.raises(ShapeError):
        fps(cloud, 0.0)


def test_fps_seed_is_farthest_from_centroid_lowest_index_ties():
    # symmetric pair equidistant from the centroid: index 0 must win
    cloud = np.zeros((3, 4))
    cloud[0, :3] = [1.0, 0.0, 0.0]
    cloud[1, :3] = [-1.0, 0.0, 0.0]
    idx = fps(cloud, 0.3)  # ceil(0.9) keeps exactly one point
    assert idx.tolist() == [0]


def test_partition_regions_inner_outer_disjoint_and_closed():
    box = OrientedBox(0, 0, 0, 4.0, 2.0, 2.0, yaw=0.0)
    pts = np.array([
        [0.0, 0.0, 0.0, 0.0],    # center -> inner
        [1.0, 0.5, 0.5, 0.0],    # exactly on the alpha=0.5 inner boundary -> inner
        [1.5, 0.0, 0.0, 0.0],    # shell
        [2.0, 1.0, 1.0, 0.0],    # exactly on the outer boundary -> shell
        [2.1, 0.0, 0.0, 0.0],    # outside
    ])
    inner, outer = partition_regions(pts, box, 0.5)
    assert inner.tolist() == [0, 1]
    assert outer.tolist() == [2, 3]
    assert not set(inner) & set(outer)


def test_partition_regions_respects_yaw():
    box = OrientedBox(5.0, 5.0, 0.0, 6.0, 1.0, 2.0, yaw=math.pi / 2)
    # box long axis now along +y
    pts = np.array([
        [5.0, 7.5, 0.0, 0.0],   # 2.5 along local x -> shell
        [5.0, 5.5, 0.0, 0.0],   # inner (alpha=0.5 -> |x_local| <= 1.5)
        [7.5, 5.0, 0.0, 0.0],   # 2.5 along local y -> outside (half width 0.5)
    ])
    inner, outer = partition_regions(pts, box, 0.5)
    assert inner.tolist() == [1]
    assert outer.tolist() == [0]


def test_select_proximal_threshold_and_cap():
    assert (PHD_DISTANCE, PHD_MAX_BOXES) == (50.0, 2)
    boxes = [OrientedBox(d, 0, 0, 1, 1, 1) for d in (2.0, 5.0, 9.0, 60.0)]
    assert select_proximal(boxes[:2] + boxes[3:], (0, 0), 3) == [0, 1]
    picked = select_proximal(boxes, (0, 0), 3)
    assert len(picked) == 2
    assert picked == sorted(picked)
    assert set(picked) <= {0, 1, 2}
    # deterministic under a fixed seed
    assert picked == select_proximal(boxes, (0, 0), 3)
    # boundary distance is inclusive, and measured from the agent
    assert select_proximal([OrientedBox(50.0, 0, 0, 1, 1, 1)], (0, 0), 0) == [0]
    assert select_proximal([OrientedBox(50.5, 0, 0, 1, 1, 1)], (0, 0), 0) == []
    assert select_proximal([OrientedBox(50.5, 0, 0, 1, 1, 1)], (0.5, 0), 0) == [0]


def test_phd_apply_counts_and_passthrough():
    rng = np.random.default_rng(9)
    box = OrientedBox(0, 0, 0, 4.0, 4.0, 4.0)
    inner_pts = random_cloud(rng, 40, scale=0.4)          # well inside alpha box
    shell_pts = random_cloud(rng, 30, scale=0.1)
    shell_pts[:, 0] += 1.8                                 # inside box, outside inner
    far_pts = random_cloud(rng, 25, scale=0.5)
    far_pts[:, 0] += 100.0                                 # beyond threshold, untouched
    cloud = np.concatenate([inner_pts, shell_pts, far_pts])
    assert (PHD_INNER_SCALE, PHD_INNER_KEEP, PHD_OUTER_KEEP) == (0.5, 0.6, 0.8)
    inner_idx, outer_idx = partition_regions(cloud, box, PHD_INNER_SCALE)
    n_untouched = cloud.shape[0] - len(inner_idx) - len(outer_idx)
    out = phd_apply(cloud, [box], (0.0, 0.0), 0)
    expected = (math.ceil(0.6 * len(inner_idx)) + math.ceil(0.8 * len(outer_idx))
                + n_untouched)
    assert out.shape == (expected, 4)
    # far points survive bit-identically and keep their relative order
    tail = out[-25:]
    np.testing.assert_array_equal(tail, far_pts)
    # kept points are a subsequence of the input
    rows = {tuple(r): i for i, r in enumerate(map(tuple, cloud))}
    order = [rows[tuple(r)] for r in map(tuple, out)]
    assert order == sorted(order)


def test_phd_apply_empty_region_and_no_boxes():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 12, scale=0.2)
    np.testing.assert_array_equal(phd_apply(cloud, [], (0, 0), 0), cloud)
    # a box containing no points changes nothing
    empty_box = OrientedBox(20.0, 0, 0, 1, 1, 1)
    np.testing.assert_array_equal(phd_apply(cloud, [empty_box], (0, 0), 0), cloud)
    assert phd_apply(np.empty((0, 4)), [empty_box], (0, 0), 0).shape == (0, 4)


def test_phd_apply_overlapping_boxes_first_owner_wins():
    # two selected boxes share points; each point must be reduced once
    cloud = np.zeros((20, 4))
    cloud[:, 0] = np.linspace(-1.0, 1.0, 20)
    a = OrientedBox(-0.5, 0, 0, 2.0, 2.0, 2.0)
    b = OrientedBox(0.5, 0, 0, 2.0, 2.0, 2.0)
    out = phd_apply(cloud, [a, b], (0.0, 0.0), 0)
    # all 20 points fall in a box; each owner thins its own share once, so
    # the survivors are the sum of four ceil(ratio * n) counts, none duplicated
    owner_a = a.contains(cloud[:, :3])
    expected = 0
    for box, owned in ((a, cloud[owner_a]), (b, cloud[~owner_a])):
        inner, outer = partition_regions(owned, box, PHD_INNER_SCALE)
        expected += (math.ceil(PHD_INNER_KEEP * len(inner))
                     + math.ceil(PHD_OUTER_KEEP * len(outer)))
    assert out.shape[0] == expected < 20
    assert len({tuple(r) for r in out}) == out.shape[0]


def test_box_yaw_normalization_and_validation():
    assert OrientedBox(0, 0, 0, 1, 1, 1, yaw=3 * math.pi).yaw == pytest.approx(math.pi)
    assert OrientedBox(0, 0, 0, 1, 1, 1, yaw=-math.pi).yaw == pytest.approx(math.pi)
    assert abs(OrientedBox(0, 0, 0, 1, 1, 1, yaw=2 * math.pi).yaw) < 1e-12
    with pytest.raises(ShapeError):
        OrientedBox(0, 0, 0, 0.0, 1, 1)
