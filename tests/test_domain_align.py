import math

import numpy as np
import pytest

from cpalign.domain_align import (
    GRL_GAMMA,
    ForegroundHead,
    Pose2,
    complete_voids,
    default_discriminator_weights,
    default_foreground_weights,
    discriminator_forward,
    domain_loss_and_grads,
    foreground_estimate,
    observability_weighting,
    save_pgm,
    transform_to_ego,
)
from cpalign.featurizer import (
    BevSpec,
    MultiScaleFeatures,
    bev_project,
    default_bevproj_weights,
)
from cpalign.numerics import ShapeError, sigmoid
from cpalign.reference import literal_foreground


def fd_gradient(fn, x, h=1e-6):
    """Central finite differences, coordinate by coordinate."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        step = h * max(1.0, abs(flat[i]))
        orig = flat[i]
        flat[i] = orig + step
        fp = fn(x)
        flat[i] = orig - step
        fm = fn(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def test_pose_roundtrip_and_normalization():
    pose = Pose2(1.5, -2.0, 3.0 * math.pi / 2.0)
    assert pose.yaw == pytest.approx(-math.pi / 2.0)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10, 2))
    np.testing.assert_allclose(pose.to_local(pose.to_world(pts)), pts, atol=1e-12)
    with pytest.raises(ShapeError):
        Pose2(float("nan"), 0, 0)


def _fg_inputs(rng, h, w, seed):
    """Random scales, their projection and bevproj + foreground weights."""
    weights = default_bevproj_weights(seed) | default_foreground_weights(384, seed)
    ms = MultiScaleFeatures(rng.normal(size=(64, h, w)),
                            rng.normal(size=(128, h // 2, w // 2)),
                            rng.normal(size=(256, h // 4, w // 4)))
    return ms, weights


def test_foreground_estimate_range_and_shapes():
    rng = np.random.default_rng(1)
    ms, w = _fg_inputs(rng, 8, 8, seed=3)
    proj = bev_project(ms, w)
    head = ForegroundHead.from_weights(w)
    m = foreground_estimate(proj, ms, head)
    assert m.shape == (1, 8, 8)
    assert (m > 0).all() and (m < 1).all()
    np.testing.assert_array_equal(m, foreground_estimate(proj, ms, head))
    with pytest.raises(ShapeError, match="do not match the projected grid"):
        foreground_estimate(proj[:, :4], ms, head)


def test_foreground_estimate_zero_weights_give_half():
    rng = np.random.default_rng(0)
    ms, w = _fg_inputs(rng, 8, 8, seed=0)
    w = {n: np.zeros_like(v) for n, v in w.items()}
    m = foreground_estimate(bev_project(ms, w), ms, ForegroundHead.from_weights(w))
    np.testing.assert_array_equal(m, 0.5 * np.ones((1, 8, 8)))


def test_foreground_estimate_missing_weights():
    # the head checks every tensor once, when it is built
    rng = np.random.default_rng(0)
    _, w = _fg_inputs(rng, 4, 4, seed=0)
    for name, bad in (("fg.conv1.bias", np.zeros(191)), ("fg.affine.shift", np.zeros(5))):
        with pytest.raises(ShapeError, match=f"{name} has {bad.size} entries, needs 192"):
            ForegroundHead.from_weights(w | {name: bad})
    with pytest.raises(ShapeError, match="do not fit input with 384 channels"):
        ForegroundHead.from_weights(w | {"fg.conv1.weight": np.zeros((192, 383, 3, 3))})
    del w["fg.affine.scale"]
    with pytest.raises(KeyError, match="fg.affine.scale"):
        ForegroundHead.from_weights(w)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_folded_foreground_matches_literal_conv(seed):
    # random He weights, random biases everywhere (the tconv biases make a
    # border-dependent map), a conv2 scaled to keep the sigmoid off its tails
    rng = np.random.default_rng(100 + seed)
    _, w = _fg_inputs(rng, 4, 4, seed)
    for name in w:
        if name.endswith(".bias") or name.startswith("fg.affine"):
            w[name] = rng.normal(size=w[name].shape)
    w["fg.conv2.weight"] = 0.1 * w["fg.conv2.weight"]
    head = ForegroundHead.from_weights(w)
    for h, wd in ((8, 8), (8, 12), (48, 48)):
        ms = MultiScaleFeatures(rng.normal(size=(64, h, wd)),
                                rng.normal(size=(128, h // 2, wd // 2)),
                                rng.normal(size=(256, h // 4, wd // 4)))
        proj = bev_project(ms, w)
        want = literal_foreground(proj, w)
        assert 0.05 < want.min() and want.max() < 0.95
        np.testing.assert_allclose(foreground_estimate(proj, ms, head), want,
                                   rtol=1e-12, atol=1e-12)


def test_transform_identity_poses_is_exact():
    rng = np.random.default_rng(2)
    spec = BevSpec.centered(3.2, 3.2, cell=0.4)
    grid = rng.normal(size=(5, spec.height, spec.width))
    out, valid = transform_to_ego(grid, Pose2(), Pose2(), spec)
    np.testing.assert_array_equal(out, grid)
    np.testing.assert_array_equal(valid, np.ones((1, spec.height, spec.width)))


def test_transform_half_turn_flips_grid():
    rng = np.random.default_rng(3)
    spec = BevSpec.centered(3.2, 3.2, cell=0.4)
    grid = rng.normal(size=(2, spec.height, spec.width))
    out, valid = transform_to_ego(grid, Pose2(0, 0, math.pi), Pose2(), spec)
    np.testing.assert_allclose(out, grid[:, ::-1, ::-1], atol=1e-9)
    assert valid.min() == 1.0


def test_transform_pure_translation_shifts_cells():
    spec = BevSpec.centered(3.2, 3.2, cell=0.4)
    h, w = spec.height, spec.width
    grid = np.zeros((1, h, w))
    grid[0, 3, 2] = 1.0
    # ego sits 2 cells along +x of the source, so source content lands
    # 2 columns lower on the ego grid
    out, valid = transform_to_ego(grid, Pose2(), Pose2(0.8, 0.0, 0.0), spec)
    got = np.nonzero(out[0])
    assert (got[0].tolist(), got[1].tolist()) == ([3], [0])
    assert out[0, 3, 0] == pytest.approx(1.0)
    # ego cells whose pre-image fell past the source's far edge are invalid
    assert valid[0, 0, -1] == 0.0 and valid[0, 0, 0] == 1.0
    assert out[:, valid[0] == 0.0].sum() == 0.0


def test_transform_valid_mask_marks_out_of_range():
    spec = BevSpec.centered(3.2, 3.2, cell=0.4)
    grid = np.ones((1, spec.height, spec.width))
    out, valid = transform_to_ego(grid, Pose2(), Pose2(100.0, 0.0, 0.0), spec)
    assert valid.sum() == 0.0 and out.sum() == 0.0


def test_complete_voids_exact_selection_and_idempotence():
    rng = np.random.default_rng(4)
    proj = rng.normal(size=(3, 4, 4))
    ego = rng.normal(size=(3, 4, 4))
    valid = (rng.uniform(size=(1, 4, 4)) > 0.5).astype(np.float64)
    done = complete_voids(proj, valid, ego)
    sel = np.broadcast_to(valid > 0.5, proj.shape)
    np.testing.assert_array_equal(done[sel], proj[sel])
    np.testing.assert_array_equal(done[~sel], ego[~sel])
    np.testing.assert_array_equal(complete_voids(done, valid, ego), done)
    with pytest.raises(ShapeError):
        complete_voids(proj, valid * 0.5, ego)
    # into the caller's own buffer, or into the projected grid itself
    ego_before = ego.copy()
    out = np.empty_like(proj)
    assert complete_voids(proj, valid, ego, out=out) is out
    np.testing.assert_array_equal(out, done)
    inplace = proj.copy()
    assert complete_voids(inplace, valid, ego, out=inplace) is inplace
    np.testing.assert_array_equal(inplace, done)
    np.testing.assert_array_equal(ego, ego_before)
    with pytest.raises(ShapeError):
        complete_voids(proj, valid, ego, out=np.empty((3, 4, 5)))


def test_observability_weighting_range_and_values():
    a = np.full((1, 3, 3), 0.7)
    b = np.full((1, 3, 3), 0.7)
    np.testing.assert_allclose(observability_weighting(a, b), 0.5)
    # difference of ln 3 makes the softmax pair (0.75, 0.25) -> min 0.25
    b2 = b - math.log(3.0)
    np.testing.assert_allclose(observability_weighting(a, b2), 0.25, rtol=1e-12)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 8, 8))
    y = rng.normal(size=(1, 8, 8))
    w = observability_weighting(x, y)
    assert (w > 0).all() and (w <= 0.5).all()
    np.testing.assert_allclose(w, observability_weighting(y, x), rtol=1e-12)


def test_observability_weighting_is_pairwise_softmax_min():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(1, 4, 4))
    b = rng.normal(size=(1, 4, 4))
    ea, eb = np.exp(a), np.exp(b)
    want = np.minimum(ea, eb) / (ea + eb)
    np.testing.assert_allclose(observability_weighting(a, b), want, rtol=1e-10)


def test_discriminator_shapes_and_relu_gate():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(16, 5, 5))
    w = default_discriminator_weights(16, seed=2)
    logits = discriminator_forward(feats, w)
    assert logits.shape == (1, 5, 5)
    del w["disc.conv2.bias"]
    with pytest.raises(KeyError, match="disc.conv2.bias"):
        discriminator_forward(feats, weights=w)


def test_domain_loss_matches_manual_bce():
    logits = np.array([[[0.0, 2.0], [-3.0, 0.5]]])
    w = np.array([[[1.0, 2.0], [0.5, 1.5]]])
    p = sigmoid(logits)
    for label in (0.0, 1.0):
        bce = -(label * np.log(p) + (1 - label) * np.log(1 - p))
        want = float((w * bce).sum() / w.sum())
        loss, _, _ = domain_loss_and_grads(logits, label, w)
        assert loss == pytest.approx(want, rel=1e-10)


def test_domain_loss_gradient_matches_fd():
    rng = np.random.default_rng(8)
    for trial in range(5):
        logits = rng.normal(size=(1, 5, 5)) * 2.0
        w = rng.uniform(0.01, 0.5, size=(1, 5, 5))
        label = float(trial % 2)
        _, dl, _ = domain_loss_and_grads(logits, label, w)
        fd = fd_gradient(lambda x: domain_loss_and_grads(x, label, w)[0],
                         logits.copy())
        np.testing.assert_allclose(dl, fd, rtol=1e-6, atol=1e-10)


def test_grl_scaling_exact():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(1, 4, 4))
    w = rng.uniform(0.1, 0.5, size=(1, 4, 4))
    _, dl, dg = domain_loss_and_grads(logits, 1.0, w)
    np.testing.assert_array_equal(dg, GRL_GAMMA * dl)
    assert GRL_GAMMA == -0.1


def test_domain_loss_weight_rescale_invariance():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(1, 6, 6))
    w = rng.uniform(0.05, 0.5, size=(1, 6, 6))
    l1, g1, _ = domain_loss_and_grads(logits, 0.0, w)
    l2, g2, _ = domain_loss_and_grads(logits, 0.0, 3.7 * w)
    assert l1 == pytest.approx(l2, rel=1e-12)
    np.testing.assert_allclose(g1, g2, rtol=1e-12)


def test_domain_loss_degenerate_weights_rejected():
    logits = np.zeros((1, 2, 2))
    with pytest.raises(ShapeError, match="zero"):
        domain_loss_and_grads(logits, 1.0, np.zeros((1, 2, 2)))
    with pytest.raises(ShapeError):
        domain_loss_and_grads(logits, 0.5, np.ones((1, 2, 2)))
    with pytest.raises(ShapeError):
        domain_loss_and_grads(logits, 1.0, -np.ones((1, 2, 2)))


def test_domain_loss_extreme_logits_stay_finite():
    logits = np.array([[[500.0, -500.0]]])
    w = np.ones((1, 1, 2))
    loss, dl, _ = domain_loss_and_grads(logits, 1.0, w)
    assert math.isfinite(loss) and np.isfinite(dl).all()
    # confident and correct: the -500 branch contributes ~500 to label-0 loss
    loss0, _, _ = domain_loss_and_grads(logits, 0.0, w)
    assert loss0 == pytest.approx(250.0, rel=1e-6)


def test_save_pgm(tmp_path):
    grid = np.linspace(0, 1, 12).reshape(1, 3, 4)
    p = tmp_path / "m.pgm"
    save_pgm(grid, p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert len(raw) == len(b"P5\n4 3\n255\n") + 12
    assert raw[-1] == 255 and raw[len(b"P5\n4 3\n255\n")] == 0
