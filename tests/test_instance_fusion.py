import math

import numpy as np
import pytest

from cpalign.featurizer import BevSpec
from cpalign.instance_fusion import (
    StructKernels,
    VerificationSpec,
    default_aggregate_weights,
    default_fuse_weights,
    default_verification_weights,
    foreground_loss,
    foreground_features,
    InstanceTerm,
    fusion_fold,
    instance_terms,
    refine_instance,
    struct_conv,
    verified_blend,
)
from cpalign.numerics import ConvSpec, ShapeError, conv2d
from cpalign.pointcloud import OrientedBox
from cpalign.reference import (
    folded_term,
    fuse_agents,
    literal_gate,
    literal_refined,
    verification_weights,
)


def test_foreground_features_scale_by_map_and_reject_out_of_range():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(6, 5, 5))
    m = rng.uniform(size=(1, 5, 5))
    fore = foreground_features(h, m)
    np.testing.assert_allclose(fore, h * m, rtol=1e-15)
    with pytest.raises(ShapeError):
        foreground_features(h, m * 2.0)


def test_struct_kernel_invariants():
    rng = np.random.default_rng(1)
    k = StructKernels(rng.normal(size=(8, 3, 3)))
    cs = k.center_surround()
    # center-surround rows sum to zero per channel
    np.testing.assert_allclose(cs.sum(axis=(1, 2)), np.zeros(8), atol=1e-12)
    np.testing.assert_array_equal(cs[:, 0, :], k.base[:, 0, :])
    hor = k.horizontal()
    np.testing.assert_array_equal(hor[:, :, 2], -hor[:, :, 0])
    np.testing.assert_array_equal(hor[:, :, 1], np.zeros((8, 3)))
    ver = k.vertical()
    np.testing.assert_array_equal(ver[:, 2, :], -ver[:, 0, :])
    np.testing.assert_array_equal(ver[:, 1, :], np.zeros((8, 3)))
    ang = k.angular()
    np.testing.assert_array_equal(
        ang, k.base - np.rot90(k.base, k=1, axes=(1, 2)))


def test_struct_kernels_from_weights_names_a_missized_tensor():
    rng = np.random.default_rng(4)
    w = {"ifam.struct.weight": rng.normal(size=(6, 3, 3)),
         "ifam.struct.bias": rng.normal(size=(5, 6))}
    k = StructKernels.from_weights(w, 6)
    np.testing.assert_array_equal(k.base, w["ifam.struct.weight"])
    np.testing.assert_array_equal(k.biases, w["ifam.struct.bias"])
    with pytest.raises(ShapeError, match="ifam.struct.weight has 54 values, needs 72"):
        StructKernels.from_weights(w, 8)
    with pytest.raises(ShapeError, match="ifam.struct.bias has 25 values, needs 30"):
        StructKernels.from_weights(w | {"ifam.struct.bias": np.zeros((5, 5))}, 6)


def test_struct_conv_fused_equals_separate():
    # the one fused depthwise conv against the five banks run one by one
    rng = np.random.default_rng(2)
    k = StructKernels(rng.normal(size=(4, 3, 3)), rng.normal(size=(5, 4)))
    x = rng.normal(size=(4, 9, 9))
    separate = np.zeros_like(x)
    for bank, bias in zip(k.banks(), k.biases):
        separate += conv2d(x, ConvSpec(4, 4, 3, 3, bank.reshape(4, 1, 3, 3),
                                       bias=bias, padding=1, groups=4))
    np.testing.assert_allclose(struct_conv(x, k), separate, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("c", [4, 64, 100])  # one block, one full block, a ragged one
def test_struct_conv_blocks_match_one_depthwise_conv_bitwise(c):
    rng = np.random.default_rng(c)
    k = StructKernels(rng.normal(size=(c, 3, 3)), rng.normal(size=(5, c)))
    x = rng.normal(size=(c, 11, 9))
    spec = ConvSpec(c, c, 3, 3, k.fused_weight().reshape(c, 1, 3, 3),
                    bias=k.fused_bias(), padding=1, groups=c)
    want = conv2d(x, spec)
    np.testing.assert_array_equal(struct_conv(x, k).view(np.int64), want.view(np.int64))


def test_struct_conv_constant_input_reduces_to_vanilla_response():
    # on constant interior patches the four derived banks cancel exactly,
    # leaving only the vanilla depthwise response
    from cpalign.numerics import ConvSpec, conv2d

    c = 3
    rng = np.random.default_rng(3)
    k = StructKernels(rng.normal(size=(c, 3, 3)))
    x = np.full((c, 8, 8), 2.5)
    out = struct_conv(x, k)
    vanilla = conv2d(x, ConvSpec(c, c, 3, 3, k.base.reshape(c, 1, 3, 3),
                                 padding=1, groups=c))
    interior = np.s_[:, 1:-1, 1:-1]
    np.testing.assert_allclose(out[interior], vanilla[interior],
                               rtol=1e-10, atol=1e-12)


def _random_verification_spec(c, seed, rng):
    # He-scaled weights keep the gates off saturation, where a comparison
    # would only see 0 and 1; biases are random too
    weights = default_verification_weights(c, seed)
    for name, v in weights.items():
        if name.endswith(".bias"):
            weights[name] = rng.normal(scale=0.5, size=v.shape)
    return VerificationSpec.from_weights(weights)


@pytest.mark.parametrize("c,h,w,seeds", [(8, 7, 5, range(5)), (384, 12, 9, (0, 1))])
def test_verification_weights_match_literal_oracle(c, h, w, seeds):
    for seed in seeds:
        rng = np.random.default_rng([seed, c])
        spec = _random_verification_spec(c, seed, rng)
        fore = rng.normal(size=(c, h, w))
        enh = rng.normal(size=(c, h, w))
        got = verification_weights(fore, enh, spec)
        np.testing.assert_allclose(got, literal_gate(fore, enh, spec),
                                   rtol=1e-12, atol=1e-12)
        # the gate must read each source block in its own position
        swapped = verification_weights(enh, fore, spec)
        assert not np.allclose(swapped, got)


@pytest.mark.parametrize("c,h,w", [(8, 7, 5), (384, 12, 9)])
def test_verification_weights_group_blocks_match_one_grouped_conv_bitwise(c, h, w):
    # the enhanced block and the rank-1 map, added one group at a time,
    # give the bits of one grouped conv per block
    rng = np.random.default_rng([c, 3])
    spec = _random_verification_spec(c, 3, rng)
    fore, enh = rng.normal(size=(2, c, h, w))
    got = verification_weights(fore, enh, spec)
    stats = np.stack([np.maximum(fore.max(axis=0), enh.max(axis=0)),
                      (fore.sum(axis=0) + enh.sum(axis=0)) / (2 * c)])
    w_spatial = conv2d(stats, spec.spatial)
    gap = np.concatenate([fore.mean(axis=(1, 2)), enh.mean(axis=(1, 2))])
    w_channel = conv2d(conv2d(gap.reshape(-1, 1, 1), spec.ca1), spec.ca2).ravel()
    k = c // 4
    wg = spec.gconv.weights.reshape(4, k, k, 4)
    colsum = wg[..., 2:].sum(axis=(2, 3)).reshape(c)
    w_ch = w_channel.reshape(2, 4, 1, k).transpose(1, 2, 3, 0)
    bias = (wg[..., 2:] * w_ch).sum(axis=(2, 3)).reshape(c) + spec.gconv.bias

    def block(x, g, b):
        return conv2d(x, ConvSpec(c, c, 1, 1, wg[..., g], bias=b, groups=4))

    logits = block(fore, 0, bias)
    logits += block(enh, 1, None)
    logits += colsum[:, None, None] * w_spatial
    want = 1.0 / (1.0 + np.exp(-logits))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    from cpalign.numerics import sigmoid
    np.testing.assert_array_equal(got.view(np.int64), sigmoid(logits).view(np.int64))


def test_verification_weights_range_and_zero_case():
    rng = np.random.default_rng(4)
    c = 8
    spec = VerificationSpec.from_weights(default_verification_weights(c, 1))
    fore = rng.normal(size=(c, 6, 6))
    enh = rng.normal(size=(c, 6, 6))
    w = verification_weights(fore, enh, spec)
    assert w.shape == (c, 6, 6)
    assert (w > 0).all() and (w < 1).all()
    np.testing.assert_allclose(w, literal_gate(fore, enh, spec),
                               rtol=1e-12, atol=1e-12)
    zero = {k: np.zeros_like(v) for k, v in default_verification_weights(c).items()}
    zero_spec = VerificationSpec.from_weights(zero)
    wz = verification_weights(fore, enh, zero_spec)
    np.testing.assert_array_equal(wz, np.full((c, 6, 6), 0.5))
    np.testing.assert_array_equal(literal_gate(fore, enh, zero_spec), wz)


def test_verification_group_independence_before_shuffle():
    # perturbing channels of input group 0 of the grouped conv leaves
    # output groups 1..3 untouched
    rng = np.random.default_rng(5)
    c = 8
    spec = VerificationSpec.from_weights(default_verification_weights(c, 2))
    gc = spec.gconv
    z = rng.normal(size=(4 * c, 5, 5))
    base = conv2d(z, gc)
    z2 = z.copy()
    z2[:c] += rng.normal(size=(c, 5, 5))
    pert = conv2d(z2, gc)
    og = c // 4
    assert not np.allclose(base[:og], pert[:og])
    np.testing.assert_array_equal(base[og:], pert[og:])


def test_verified_blend_in_place_is_bitwise():
    # 70000 elements: two full blend blocks and a ragged third
    rng = np.random.default_rng(16)
    fore, enh = rng.normal(size=(2, 7, 100, 100))
    gate = rng.uniform(size=(7, 100, 100))
    want = gate * fore + (1.0 - gate) * enh
    fresh = verified_blend(gate, fore, enh)
    np.testing.assert_array_equal(fresh.view(np.int64), want.view(np.int64))
    owned = gate.copy()
    out = verified_blend(owned, fore, enh, out=owned)
    assert out is owned
    np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))
    with pytest.raises(ShapeError):
        verified_blend(gate, fore, enh, out=np.empty((7, 100, 99)))


def test_verified_blend_endpoints():
    rng = np.random.default_rng(6)
    fore = rng.normal(size=(4, 3, 3))
    enh = rng.normal(size=(4, 3, 3))
    np.testing.assert_array_equal(verified_blend(np.ones_like(fore), fore, enh), fore)
    np.testing.assert_array_equal(verified_blend(np.zeros_like(fore), fore, enh), enh)
    half = verified_blend(np.full_like(fore, 0.5), fore, enh)
    np.testing.assert_allclose(half, 0.5 * (fore + enh), rtol=1e-15)


def _ifam_case(c, h, w, combine, seed=5):
    """(h, m, struct, spec, weights) with random biases (aggregation and
    fusion too) and epsilon, so that every term of the branch shows in its
    output."""
    rng = np.random.default_rng([c, h, seed])
    hmap = rng.normal(size=(c, h, w))
    m = rng.uniform(size=(1, h, w))
    struct = StructKernels(rng.normal(size=(c, 3, 3)), rng.normal(size=(5, c)))
    spec = _random_verification_spec(c, seed, rng)
    weights = default_aggregate_weights(c, seed=seed, combine=combine)
    weights["ifam.agg.bias"] = rng.normal(size=c)
    weights["ifam.eps"] = np.array([0.37])
    weights.update(_random_fuse_weights(c, seed))
    return hmap, m, struct, spec, weights


def _rel_dev(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("combine", ["sum", "concat"])
@pytest.mark.parametrize("ego", [False, True])
@pytest.mark.parametrize("c,h,w", [(4, 5, 5), (8, 7, 5), (16, 48, 48), (384, 12, 9)])
def test_refine_instance_matches_literal_oracle(c, h, w, ego, combine):
    # agent k's term of a three-agent fold (the ego's carries c) gives the
    # bits of the folded arithmetic written out; h and m are only read
    hmap, m, struct, spec, weights = _ifam_case(c, h, w, combine)
    h0, m0 = hmap.copy(), m.copy()
    k, rows = (0 if ego else 1), max(c // 2, 1)
    got = refine_instance(hmap, m, struct, spec, instance_terms(weights, 3, rows)[k])
    want = folded_term(h0, m0, struct, spec, weights, 3, k, rows)
    assert got.shape == (rows, h, w)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(hmap, h0)
    np.testing.assert_array_equal(m, m0)


@pytest.mark.parametrize("combine", ["sum", "concat"])
@pytest.mark.parametrize("c,h,w", [(8, 7, 5), (384, 12, 9)])
def test_refine_instance_matches_unfolded_branch(c, h, w, combine):
    # every agent's folded term against the fusion term of the literal
    # refined map, over 1 to 3 agents, with non-zero aggregation and fusion
    # biases
    hmap, m, struct, spec, weights = _ifam_case(c, h, w, combine, seed=8)
    rows = max(c // 3, 1)
    for n in (1, 2, 3):
        fold, terms = fusion_fold(weights, n, rows), instance_terms(weights, n, rows)
        assert len(terms) == n
        for k in range(n):
            x, fg = hmap * (k + 1), m ** (k + 1)  # another map per agent
            want = conv2d(literal_refined(x, fg, struct, spec, weights), fold[k])
            got = refine_instance(x, fg, struct, spec, terms[k])
            assert _rel_dev(got, want) <= 1e-12, (n, k)


def test_refine_instance_epsilon_background():
    hmap, m, struct, spec, weights = _ifam_case(8, 5, 6, "sum", seed=3)
    back = hmap - hmap * m
    fold = fusion_fold(weights, 2)

    def term(eps):
        terms = instance_terms({**weights, "ifam.eps": np.array([eps])}, 2)
        return refine_instance(hmap, m, struct, spec, terms[1])

    # epsilon comes from the stored weight entry and only scales the
    # background, through the collaborator's fusion matrix: eps * A_1 back
    assert default_aggregate_weights(8)["ifam.eps"][0] == 0.1
    without = term(0.0)
    for eps in (0.1, 0.5):
        np.testing.assert_allclose(term(eps) - without, conv2d(eps * back, fold[1]),
                                   rtol=1e-10, atol=1e-12)


def test_refine_instance_reads_the_combine_mode_from_the_agg_weight():
    c = 4
    hmap, m, struct, spec, summed = _ifam_case(c, 4, 4, "sum")
    concat = summed | default_aggregate_weights(c, seed=4, combine="concat")
    assert concat["ifam.agg.weight"].shape == (c, 3 * c, 1, 1)
    (term,) = instance_terms(concat, 1)
    assert term.product.shape == (c, 3 * c)
    # a flat weight of the same size reads the same
    flat = {**concat, "ifam.agg.weight": concat["ifam.agg.weight"].ravel()}
    out = refine_instance(hmap, m, struct, spec, term)
    assert out.shape == (c, 4, 4)
    np.testing.assert_array_equal(
        refine_instance(hmap, m, struct, spec, instance_terms(flat, 1)[0]), out)
    assert not np.allclose(
        out, refine_instance(hmap, m, struct, spec, instance_terms(summed, 1)[0]))
    wide = {**summed, "ifam.agg.weight": np.zeros((c, 2 * c, 1, 1))}
    with pytest.raises(ShapeError, match="ifam.agg.weight of width 8"):
        instance_terms(wide, 1)
    with pytest.raises(ShapeError, match="ifam.agg.bias has 3 values, needs 4"):
        instance_terms({**summed, "ifam.agg.bias": np.zeros(3)}, 1)
    # a folded product of any other width is refused by the branch too
    with pytest.raises(ShapeError, match="ifam.agg.weight of width 8"):
        refine_instance(hmap, m, struct, spec,
                        InstanceTerm(np.zeros((c, 2 * c)), term.back, term.bias))
    with pytest.raises(ShapeError, match="unknown combine mode"):
        default_aggregate_weights(c, combine="stack")


def test_fuse_agents_fold_and_identities():
    rng = np.random.default_rng(9)
    c = 6
    w = default_fuse_weights(c, seed=5)
    a, b, d = rng.normal(size=(3, c, 4, 4))
    single = fuse_agents([a], weights=w)
    np.testing.assert_array_equal(single, a)
    fused2 = fuse_agents([a, b], weights=w)
    from cpalign.numerics import ConvSpec, conv2d
    spec = ConvSpec(c, 2 * c, 1, 1, w["ifam.fuse.weight"], bias=w["ifam.fuse.bias"])
    np.testing.assert_allclose(fused2, conv2d(np.concatenate([a, b]), spec),
                               rtol=1e-12)
    fused3 = fuse_agents([a, b, d], weights=w)
    np.testing.assert_allclose(fused3, conv2d(np.concatenate([fused2, d]), spec),
                               rtol=1e-12)
    # fold order matters: ego first
    assert not np.allclose(fuse_agents([b, a], weights=w), fused2)
    with pytest.raises(ShapeError):
        fuse_agents([], w)
    with pytest.raises(ShapeError):
        fuse_agents([a, rng.normal(size=(c, 5, 4))], weights=w)


def _random_fuse_weights(c, seed):
    rng = np.random.default_rng([seed, 0xF0])
    w = default_fuse_weights(c, seed=seed)
    w["ifam.fuse.bias"] = rng.normal(size=c)
    return w


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fusion_fold_matches_literal_fuse_agents(n):
    c = 16
    rng = np.random.default_rng(n)
    maps = list(rng.normal(size=(n, c, 6, 7)))
    weights = _random_fuse_weights(c, seed=n)
    want = fuse_agents(maps, weights=weights)
    for rows in (None, 5):
        fold = fusion_fold(weights, n, rows)
        assert len(fold) == n
        got = sum(conv2d(x, fold[k]) for k, x in enumerate(maps))
        np.testing.assert_allclose(got, want[:rows], rtol=1e-12, atol=1e-12)
    # the ego's term carries the constant: all-zero maps give exactly c
    zeros = [np.zeros((c, 2, 2))] * n
    fold = fusion_fold(weights, n)
    terms = [conv2d(x, fold[k]) for k, x in enumerate(zeros)]
    np.testing.assert_allclose(terms[0], fuse_agents(zeros, weights=weights),
                               rtol=1e-12, atol=1e-12)
    for t in terms[1:]:
        np.testing.assert_array_equal(t, np.zeros_like(t))
    with pytest.raises(ShapeError):
        fusion_fold(weights, 0)
    with pytest.raises(ShapeError):
        fusion_fold(weights, n, rows=c + 1)


def test_foreground_loss_perfect_prediction_small():
    spec = BevSpec.centered(4.0, 4.0, cell=0.5)
    boxes = [OrientedBox(0, 0, 0, 2.0, 1.0, 1.0)]
    from cpalign.featurizer import box_footprint_mask
    y = box_footprint_mask(boxes, spec.origin_x, spec.origin_y, spec.cell, spec.height,
                           spec.width).astype(np.float64)[None]
    # confident correct predictions drive the loss toward zero
    p = np.clip(y, 1e-7, 1 - 1e-7)
    loss, grad = foreground_loss(p, boxes, spec)
    assert loss < 1e-4
    # totally wrong predictions cost far more
    loss_bad, _ = foreground_loss(np.clip(1 - y, 1e-7, 1 - 1e-7), boxes, spec)
    assert loss_bad > 1.0


def test_foreground_loss_weights_and_normalization():
    spec = BevSpec.centered(4.0, 4.0, cell=0.5)
    boxes = [OrientedBox(0, 0, 0, 2.0, 1.0, 1.0)]
    p = np.full((1, 8, 8), 0.4)
    loss, _ = foreground_loss(p, boxes, spec)
    # manual: 8 fg cells weight 2, 56 bg cells weight 1, norm by 8
    pos = 0.25 * (1 - 0.4) ** 2 * -math.log(0.4)
    neg = 0.75 * 0.4 ** 2 * -math.log(0.6)
    want = (8 * 2 * pos + 56 * 1 * neg) / 8
    assert loss == pytest.approx(want, rel=1e-12)
    # no boxes: normalizer clamps at 1, loss is pure background cost
    loss_nb, _ = foreground_loss(p, [], spec)
    assert loss_nb == pytest.approx(64 * neg, rel=1e-12)


def test_foreground_loss_gradient_matches_fd():
    rng = np.random.default_rng(10)
    spec = BevSpec.centered(4.0, 4.0, cell=1.0)
    boxes = [OrientedBox(0.5, -0.5, 0, 2.0, 2.0, 1.0, yaw=0.3)]
    p = rng.uniform(0.05, 0.95, size=(1, 4, 4))
    _, grad = foreground_loss(p, boxes, spec)
    fd = np.zeros_like(p)
    flat, fdf = p.ravel(), fd.ravel()
    for i in range(flat.size):
        h = 1e-7
        orig = flat[i]
        flat[i] = orig + h
        lp = foreground_loss(p, boxes, spec)[0]
        flat[i] = orig - h
        lm = foreground_loss(p, boxes, spec)[0]
        flat[i] = orig
        fdf[i] = (lp - lm) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


def test_foreground_loss_saturated_predictions_finite():
    spec = BevSpec.centered(4.0, 4.0, cell=1.0)
    p = np.zeros((1, 4, 4))
    p[0, :2] = 1.0  # exactly saturated
    loss, grad = foreground_loss(p, [], spec)
    assert math.isfinite(loss) and np.isfinite(grad).all()
    # clamped flats carry no gradient
    assert np.all(grad[0, :2] == 0.0)
    with pytest.raises(ShapeError):
        foreground_loss(p - 0.5, [], spec)
