import math

import numpy as np
import pytest

from cpalign.harness.pipeline import SCALE_CHANNELS, build_pipeline_weights
from cpalign.numerics import ShapeError, sigmoid
from cpalign.opcount import OpCounter, count_similarity_ops, window_grid_counts
from cpalign.reference import literal_motion, temporal_loss
from cpalign.temporal_align import (
    MotionEstimatorSpec,
    MotionField,
    XiPredictorSpec,
    default_motion_weights,
    default_xi_weights,
    delay_embedding,
    estimate_motion,
    predict_xi,
    ptam_stage1,
    ptam_stage2,
    warp_features,
    window_cosines,
    window_loss,
    window_partition,
)


def constant_field(h, w, dx, dy, conf=None):
    dp = np.zeros((2, h, w))
    dp[0] = dx
    dp[1] = dy
    wmap = np.full((1, h, w), 1.0 - 1e-12) if conf is None else np.full((1, h, w), conf)
    return MotionField(dp, wmap)


def unit_field(h, w, dx, dy):
    """Displacement field with confidence so close to 1 the product is exact."""
    return MotionField(np.stack([np.full((h, w), float(dx)),
                                 np.full((h, w), float(dy))]),
                       np.full((1, h, w), np.nextafter(1.0, 0.0)))


def test_warp_zero_displacement_is_bitwise_identity():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(3, 6, 7))
    out = warp_features(f, np.zeros((2, 6, 7)), 0.7)
    np.testing.assert_array_equal(out, f)
    out2 = warp_features(f, rng.normal(size=(2, 6, 7)), 0.0)
    np.testing.assert_array_equal(out2, f)


def test_warp_integer_displacement_transports_one_hot():
    # one-hot at column x=1, row y=1; dp = (+1, 0) moves it one column right
    f = np.zeros((1, 4, 4))
    f[0, 1, 1] = 1.0
    dp = np.zeros((2, 4, 4))
    dp[0] = 1.0
    out = warp_features(f, dp, 1.0)
    want = np.zeros((1, 4, 4))
    want[0, 1, 2] = 1.0
    np.testing.assert_array_equal(out, want)


def test_warp_half_cell_bilinear_split():
    f = np.zeros((1, 4, 4))
    f[0, 2, 1] = 1.0
    dp = np.zeros((2, 4, 4))
    dp[0] = 0.5
    out = warp_features(f, dp, 1.0)
    assert out[0, 2, 1] == pytest.approx(0.5, abs=1e-9)
    assert out[0, 2, 2] == pytest.approx(0.5, abs=1e-9)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_warp_out_of_bounds_reads_zero():
    f = np.ones((1, 3, 3))
    dp = np.zeros((2, 3, 3))
    dp[0] = 5.0
    out = warp_features(f, dp, 1.0)
    np.testing.assert_array_equal(out, np.zeros((1, 3, 3)))


def test_warp_applies_confidence_after_sampling():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(2, 5, 5))
    wmap = rng.uniform(0.2, 0.9, size=(1, 5, 5))
    out = warp_features(f, np.zeros((2, 5, 5)), 1.0, wmap)
    np.testing.assert_allclose(out, f * wmap, rtol=1e-15)


def test_warp_rejects_bad_inputs():
    f = np.zeros((1, 3, 3))
    with pytest.raises(ShapeError):
        warp_features(f, np.zeros((2, 4, 4)), 1.0)
    with pytest.raises(ShapeError):
        warp_features(f, np.zeros((2, 3, 3)), -1.0)
    with pytest.raises(ShapeError):
        warp_features(f, np.zeros((2, 3, 3)), 1.0, np.zeros((2, 3, 3)))


def test_estimate_motion_zero_heads_identity_defaults():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(8, 6, 6))
    b = rng.normal(size=(8, 6, 6))
    spec = MotionEstimatorSpec.from_weights(default_motion_weights(8), "")
    mf = estimate_motion(a, b, spec)
    np.testing.assert_array_equal(mf.dp, np.zeros((2, 6, 6)))
    np.testing.assert_allclose(mf.w, sigmoid(np.array([4.0]))[0], rtol=1e-12)
    with pytest.raises(ShapeError):
        estimate_motion(a, rng.normal(size=(8, 5, 6)), spec)
    # so do the pipeline's default weights on each of its three scales:
    # whatever the frames, learned motion is the identity transport
    weights = build_pipeline_weights(0)
    for s, c in enumerate(SCALE_CHANNELS):
        spec = MotionEstimatorSpec.from_weights(weights, f"ptam.motion.s{s}.")
        mf = estimate_motion(rng.normal(size=(c, 4, 6)), rng.normal(size=(c, 4, 6)), spec)
        np.testing.assert_array_equal(mf.dp, np.zeros((2, 4, 6)))
        np.testing.assert_array_equal(mf.w, np.full((1, 4, 6), sigmoid(np.array([4.0]))[0]))


@pytest.mark.parametrize("c", [64, 128, 256])
def test_split_motion_estimator_matches_literal_concat(c):
    rng = np.random.default_rng(c)
    w = default_motion_weights(c, seed=1)
    w["enc.bias"] = rng.normal(size=c)
    w["trunk.bias"] = rng.normal(size=c)
    w["dp.weight"] = rng.normal(scale=0.05, size=(2, c, 3, 3))
    w["dp.bias"] = rng.normal(size=2)
    w["w.weight"] = rng.normal(scale=0.02, size=(1, c, 3, 3))
    latest = rng.normal(size=(c, 6, 8))
    previous = rng.normal(size=(c, 6, 8))
    mf = estimate_motion(latest, previous, MotionEstimatorSpec.from_weights(w, ""))
    dp, conf = literal_motion(latest, previous, w)
    assert np.abs(dp).max() > 0.1
    np.testing.assert_allclose(mf.dp, dp, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mf.w, conf, rtol=1e-12, atol=1e-12)


def test_motion_estimator_from_named_weights():
    w = default_motion_weights(4, seed=1, prefix="ptam.motion.s0.")
    spec = MotionEstimatorSpec.from_weights(w, "ptam.motion.s0.")
    assert spec.channels == 4
    w.pop("ptam.motion.s0.trunk.bias")
    with pytest.raises(KeyError, match="trunk.bias"):
        MotionEstimatorSpec.from_weights(w, "ptam.motion.s0.")


def test_motion_field_validation():
    with pytest.raises(ShapeError):
        MotionField(np.zeros((3, 4, 4)), np.full((1, 4, 4), 0.5))
    with pytest.raises(ShapeError):
        MotionField(np.zeros((2, 4, 4)), np.ones((1, 4, 4)))  # w must be < 1
    with pytest.raises(ShapeError):
        MotionField(np.full((2, 4, 4), np.nan), np.full((1, 4, 4), 0.5))


def test_delay_embedding_structure():
    emb0 = delay_embedding(0.0)
    np.testing.assert_array_equal(emb0[0::2], np.zeros(8))
    np.testing.assert_array_equal(emb0[1::2], np.ones(8))
    emb = delay_embedding(3.0)
    assert emb.shape == (16,)
    assert emb[0] == pytest.approx(math.sin(3.0))
    assert emb[1] == pytest.approx(math.cos(3.0))
    # frequencies decay geometrically
    assert emb[2] == pytest.approx(math.sin(3.0 / 10000 ** (2 / 16)))


def test_predict_xi_learned_deterministic_and_nonnegative():
    rng = np.random.default_rng(3)
    h = w = 6
    f1 = MotionField(rng.normal(size=(2, h, w)), rng.uniform(0.3, 0.7, (1, h, w)))
    f2 = MotionField(rng.normal(size=(2, h, w)), rng.uniform(0.3, 0.7, (1, h, w)))
    spec = XiPredictorSpec.from_weights(default_xi_weights(4), "")
    xi_a = predict_xi(f1, f2, 3.0, spec)
    xi_b = predict_xi(f1, f2, 3.0, spec)
    assert xi_a == xi_b >= 0.0
    # zero weights collapse to relu(0) = 0
    zero = {k: np.zeros_like(v) for k, v in default_xi_weights().items()}
    assert predict_xi(f1, f2, 3.0, XiPredictorSpec.from_weights(zero, "")) == 0.0
    with pytest.raises(ShapeError, match="stage motion shapes differ"):
        predict_xi(f1, constant_field(3, 5, 1.0, 0.0), 3.0, spec)


def test_learned_xi_at_the_default_weights_is_zero():
    # learned motion at the default weights gives both stages dp = 0, so the
    # predictor sees no motion difference; at weight seed 0 it then returns
    # xi = 0 for every delay from 0 to 20 frames
    spec = XiPredictorSpec.from_weights(build_pipeline_weights(0), "ptam.")
    field = MotionField(np.zeros((2, 6, 6)), np.full((1, 6, 6), sigmoid(np.array([4.0]))[0]))
    for delay_frames in np.linspace(0.0, 20.0, 81):
        assert predict_xi(field, field, float(delay_frames), spec) == 0.0


def test_xi_weight_names():
    w = default_xi_weights(prefix="ptam.")
    spec = XiPredictorSpec.from_weights(w, "ptam.")
    assert spec.conv0.in_channels == 2
    del w["ptam.xi.mlp1.weight"]
    with pytest.raises(KeyError, match="mlp1.weight"):
        XiPredictorSpec.from_weights(w, "ptam.")


def test_stage1_advances_older_frame_one_interval():
    h = w = 8
    prev = np.zeros((1, h, w))
    prev[0, 4, 2] = 1.0
    inter = ptam_stage1(prev, unit_field(h, w, 1.0, 0.0))
    # moved one column, scaled by the (nearly 1) confidence
    assert inter[0, 4, 3] == pytest.approx(1.0, rel=1e-9)
    assert abs(inter).sum() == pytest.approx(1.0, rel=1e-9)


def test_two_stage_alignment_matches_derived_transport():
    # delay tau = 2 intervals: stage 1 moves one cell, stage 2 moves
    # xi = tau/dt = 2 more cells, landing 3 cells from the oldest frame
    h = w = 12
    prev = np.zeros((1, h, w))
    prev[0, 6, 2] = 1.0
    ov = unit_field(h, w, 1.0, 0.0)
    inter = ptam_stage1(prev, ov)
    aligned = ptam_stage2(inter, ov, 0.2 / 0.1)
    # stage 1 output sits where the latest frame sits
    assert inter[0, 6, 3] == pytest.approx(1.0, rel=1e-9)
    # stage 2 lands 3 cells ahead of the oldest frame
    assert aligned[0, 6, 5] == pytest.approx(1.0, rel=1e-9)
    assert abs(aligned).sum() == pytest.approx(1.0, rel=1e-9)


def test_zero_delay_reduces_to_confidence_scaled_inter():
    rng = np.random.default_rng(5)
    h = w = 8
    prev = rng.normal(size=(2, h, w))
    ov1 = unit_field(h, w, 0.25, -0.5)
    ov2 = unit_field(h, w, 0.75, 0.3)
    inter = ptam_stage1(prev, ov1)
    aligned = ptam_stage2(inter, ov2, 0.0)
    np.testing.assert_allclose(aligned, inter * ov2.w, rtol=1e-12)


def test_stage2_without_a_stage1_field_unless_it_is_read():
    # the pipeline ships the stage-1 field only under learned xi: stage 2
    # is a warp by its own field and a given xi, and the learned xi is the
    # one reader of the stage-1 field
    rng = np.random.default_rng(6)
    h = w = 8
    inter = rng.normal(size=(2, h, w))
    ov1 = unit_field(h, w, 0.25, -0.5)
    ov2 = unit_field(h, w, 0.75, 0.3)
    spec = XiPredictorSpec.from_weights(default_xi_weights(4), "")
    xi = predict_xi(ov1, ov2, 2.0, spec)
    assert np.array_equal(ptam_stage2(inter, ov2, xi),
                          warp_features(inter, ov2.dp, xi, ov2.w))
    assert predict_xi(unit_field(h, w, 0.0, 0.0), ov2, 2.0, spec) != xi


def test_window_partition_counts_and_anchors():
    w1, w2 = window_partition(256, 128, 16)
    assert len(w1) == 128 and len(w2) == 105
    assert w1[0].tolist() == [0, 0] and w1[-1].tolist() == [240, 112]
    assert w2[0].tolist() == [8, 8] and w2[-1].tolist() == [232, 104]
    # degenerate: window equals the grid -> offset tiling is empty
    w1d, w2d = window_partition(16, 16, 16)
    assert len(w1d) == 1 and len(w2d) == 0
    with pytest.raises(ValueError):
        window_partition(8, 8, 16)
    assert window_grid_counts(256, 128, 16) == (128, 105)


def test_temporal_loss_zero_for_identical_tensors():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 16, 16)) + 0.1
    res = temporal_loss(x, x.copy(), 8)
    assert res.loss == pytest.approx(0.0, abs=1e-24)
    np.testing.assert_allclose(res.grad, np.zeros_like(x), atol=1e-12)
    np.testing.assert_allclose(res.window_cosines, 1.0, rtol=1e-12)


def test_temporal_loss_scale_invariance_of_cosine():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 8, 8))
    y = rng.normal(size=(2, 8, 8))
    a = temporal_loss(x, y, 4)
    b = temporal_loss(2.5 * x, y, 4)
    np.testing.assert_allclose(a.window_cosines, b.window_cosines, rtol=1e-12)
    assert a.loss == pytest.approx(b.loss, rel=1e-12)


def test_temporal_loss_opposed_windows_peak():
    x = np.ones((1, 4, 4))
    res = temporal_loss(x, -x, 4)
    assert res.loss == pytest.approx(4.0)  # (1 - (-1))^2


def test_temporal_loss_degenerate_window_diagnostics():
    x = np.zeros((1, 8, 8))
    x[0, 0, 0] = 1.0
    y = np.ones((1, 8, 8))
    res = temporal_loss(x, y, 4)
    # the one-hot only reaches the (0, 0) full window; the other three full
    # windows and the single offset window see an all-zero prediction
    assert len(res.degenerate) == 4
    assert [side for *_, side in res.degenerate].count("offset") == 1
    assert math.isfinite(res.loss)
    # degenerate windows contribute zero gradient
    assert np.all(res.grad[:, 4:, 4:] == 0.0)
    # zero target side also flags
    res2 = temporal_loss(y, np.zeros((1, 8, 8)), 4)
    assert len(res2.degenerate) == 5 and res2.loss == pytest.approx(1.0)
    assert np.all(res2.grad == 0.0)


def test_window_cosines_match_temporal_loss_bitwise():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 16, 12))
    y = rng.normal(size=(3, 16, 12))
    x[:, :4, :4] = 0.0  # one degenerate window
    cos, pred_norms, target_norms = window_cosines(x, y, 4)
    res = temporal_loss(x, y, 4)
    np.testing.assert_array_equal(cos, res.window_cosines)
    assert cos[0] == 0.0 and pred_norms[0] == 0.0 and target_norms[0] > 0.0
    assert res.degenerate == [(0, 0, "full")]


def test_window_loss_matches_temporal_loss_bitwise():
    # the receiver takes the loss from the cosines alone: the same bits as
    # temporal_loss and as the sum written out, degenerate windows (which
    # add exactly 1) included
    rng = np.random.default_rng(11)
    for i in range(40):
        x, y = rng.normal(size=(2, 2, 12, 8))
        if i % 2:
            x[:, rng.integers(0, 8):, :4] = 0.0
        if i % 3 == 0:
            y[:, :, rng.integers(0, 8):] = 0.0
        cos, pred_norms, target_norms = window_cosines(x, y, 4)
        total = 0.0
        for c, p, g in zip(cos, pred_norms, target_norms):
            total += 1.0 if p == 0.0 or g == 0.0 else (1.0 - c) * (1.0 - c)
        want = total / cos.size
        assert window_loss(cos) == want
        assert temporal_loss(x, y, 4).loss == want


def test_temporal_loss_gradient_matches_fd():
    rng = np.random.default_rng(8)
    for _ in range(3):
        x = rng.normal(size=(2, 8, 8))
        y = rng.normal(size=(2, 8, 8))
        res = temporal_loss(x, y, 4)
        fd = np.zeros_like(x)
        flat = x.ravel()
        fdf = fd.ravel()
        for i in range(flat.size):
            h = 1e-6 * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + h
            lp = temporal_loss(x, y, 4).loss
            flat[i] = orig - h
            lm = temporal_loss(x, y, 4).loss
            flat[i] = orig
            fdf[i] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(res.grad, fd, rtol=2e-5, atol=1e-10)


def test_temporal_loss_counter_matches_closed_form():
    rng = np.random.default_rng(9)
    c, h, w, l = 3, 24, 16, 8
    counter = OpCounter()
    temporal_loss(rng.normal(size=(c, h, w)), rng.normal(size=(c, h, w)), l,
                  counter=counter)
    want = count_similarity_ops(c, h, w, l, mode="blockwise")
    assert counter.counts.as_dict() == want.as_dict()


def test_blockwise_single_window_equals_global():
    got = count_similarity_ops(16, 8, 8, 8, mode="blockwise")
    want = count_similarity_ops(16, 8, 8, mode="global")
    assert got.as_dict() == want.as_dict()


def test_count_similarity_known_values():
    g = count_similarity_ops(64, 256, 128, mode="global")
    b = count_similarity_ops(64, 256, 128, 16, mode="blockwise")
    assert g.mul == 6_356_992
    assert b.mul == 11_571_712
    assert 1.80 <= b.mul / g.mul <= 1.83
