import io

import numpy as np
import pytest

from cpalign import numerics
from cpalign.numerics import (
    ArchiveError,
    ConvSpec,
    MlpSpec,
    ShapeError,
    conv2d,
    load_weights,
    mlp_forward,
    save_weights,
    sigmoid,
    softmax,
    transposed_conv2d,
)


def conv2d_oracle(x, w, bias, stride, padding, groups):
    """Brute-force quadruple-loop cross-correlation."""
    cin, h, ww = x.shape
    cout, cing, kh, kw = w.shape
    xp = np.zeros((cin, h + 2 * padding, ww + 2 * padding))
    xp[:, padding:padding + h, padding:padding + ww] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    og = cout // groups
    for oc in range(cout):
        g = oc // og
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for icl in range(cing):
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += (w[oc, icl, ky, kx]
                                    * xp[g * cing + icl, oy * stride + ky, ox * stride + kx])
                out[oc, oy, ox] = acc + (bias[oc] if bias is not None else 0.0)
    return out


def tconv2d_oracle(t, w, bias, stride, padding, groups):
    """Scatter each input value through the kernel, then crop the padding."""
    cout, cing, kh, kw = w.shape
    cin = cing * groups
    _, ht, wt = t.shape
    ho = (ht - 1) * stride - 2 * padding + kh
    wo = (wt - 1) * stride - 2 * padding + kw
    z = np.zeros((cin, ho + 2 * padding, wo + 2 * padding))
    og = cout // groups
    for oc in range(cout):
        g = oc // og
        for ty in range(ht):
            for tx in range(wt):
                for icl in range(cing):
                    for ky in range(kh):
                        for kx in range(kw):
                            z[g * cing + icl, ty * stride + ky, tx * stride + kx] += (
                                w[oc, icl, ky, kx] * t[oc, ty, tx])
    out = z[:, padding:padding + ho, padding:padding + wo]
    if bias is not None:
        out = out + bias[:, None, None]
    return out


CONV_CASES = [
    # (cin, cout, kh, kw, stride, padding, groups, h, w)
    (1, 1, 1, 1, 1, 0, 1, 3, 3),
    (3, 5, 3, 3, 1, 1, 1, 7, 6),
    (4, 6, 3, 2, 2, 1, 2, 8, 9),
    (6, 6, 3, 3, 1, 1, 6, 5, 5),
    (2, 4, 2, 2, 2, 0, 1, 6, 8),
    (8, 4, 4, 4, 4, 0, 4, 8, 8),
    (3, 2, 5, 3, 3, 2, 1, 9, 7),
    (32, 8, 1, 1, 1, 0, 4, 6, 5),     # grouped 1x1, verification gconv class
    (5, 3, 1, 1, 2, 1, 1, 7, 6),      # 1x1 stride 2
    (6, 6, 3, 3, 2, 1, 6, 9, 8),      # depthwise stride 2
    (70, 70, 3, 3, 1, 1, 70, 5, 6),   # depthwise, channels past one block
    (3, 6, 3, 3, 1, 1, 3, 5, 5),      # channel-multiplier grouped
]


@pytest.mark.parametrize("cin,cout,kh,kw,stride,padding,groups,h,w", CONV_CASES)
def test_conv2d_matches_loop_oracle(cin, cout, kh, kw, stride, padding, groups, h, w):
    rng = np.random.default_rng(hash((cin, cout, kh, kw, stride)) % 2**32)
    x = rng.normal(size=(cin, h, w))
    wt = rng.normal(size=(cout, cin // groups, kh, kw))
    b = rng.normal(size=cout)
    spec = ConvSpec(cout, cin, kh, kw, wt, bias=b, stride=stride,
                    padding=padding, groups=groups)
    got = conv2d(x, spec)
    want = conv2d_oracle(x, wt, b, stride, padding, groups)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cin,cout,kh,kw,stride,padding,groups,h,w", CONV_CASES)
def test_transposed_conv2d_matches_scatter_oracle(cin, cout, kh, kw, stride,
                                                  padding, groups, h, w):
    rng = np.random.default_rng(hash((cout, kh, kw, stride, padding)) % 2**32)
    spec_probe = ConvSpec(cout, cin, kh, kw, np.zeros((cout, cin // groups, kh, kw)),
                          stride=stride, padding=padding, groups=groups)
    ht, wt_ = spec_probe.conv_output_hw(h, w)
    t = rng.normal(size=(cout, ht, wt_))
    wt = rng.normal(size=(cout, cin // groups, kh, kw))
    b = rng.normal(size=cin)
    spec = ConvSpec(cout, cin, kh, kw, wt, bias=b, stride=stride,
                    padding=padding, groups=groups)
    got = transposed_conv2d(t, spec)
    want = tconv2d_oracle(t, wt, b, stride, padding, groups)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cin,cout,kh,kw,stride,padding,groups,h,w", CONV_CASES)
def test_transposed_conv2d_is_adjoint_of_conv2d(cin, cout, kh, kw, stride,
                                                padding, groups, h, w):
    rng = np.random.default_rng(7)
    wt = rng.normal(size=(cout, cin // groups, kh, kw))
    spec = ConvSpec(cout, cin, kh, kw, wt, stride=stride, padding=padding,
                    groups=groups)
    # adjointness pairs exact geometries: snap dims so the conv tiles the
    # input with no floor-division remainder
    h = kh - 2 * padding + stride * ((h + 2 * padding - kh) // stride)
    w = kw - 2 * padding + stride * ((w + 2 * padding - kw) // stride)
    x = rng.normal(size=(cin, h, w))
    y = conv2d(x, spec)
    t = rng.normal(size=y.shape)
    lhs = float(np.vdot(y, t))
    rhs = float(np.vdot(x, transposed_conv2d(t, spec)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_conv2d_identity_kernel_example():
    x = np.ones((1, 2, 2))
    spec = ConvSpec(1, 1, 1, 1, np.array([2.0]))
    np.testing.assert_array_equal(conv2d(x, spec), 2.0 * np.ones((1, 2, 2)))


def test_transposed_conv2d_stride2_broadcast_example():
    t = np.ones((1, 1, 1))
    spec = ConvSpec(1, 1, 2, 2, np.ones(4), stride=2)
    np.testing.assert_array_equal(transposed_conv2d(t, spec), np.ones((1, 2, 2)))


def test_conv2d_linearity():
    rng = np.random.default_rng(11)
    spec = ConvSpec(4, 3, 3, 3, rng.normal(size=(4, 3, 3, 3)), stride=1, padding=1)
    a, b = rng.normal(size=(2, 3, 6, 6))
    lhs = conv2d(2.5 * a - 1.5 * b, spec)
    rhs = 2.5 * conv2d(a, spec) - 1.5 * conv2d(b, spec)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-12)


def test_conv2d_group_independence():
    rng = np.random.default_rng(13)
    cin, cout, g = 6, 4, 2
    spec = ConvSpec(cout, cin, 3, 3, rng.normal(size=(cout, cin // g, 3, 3)),
                    padding=1, groups=g)
    x = rng.normal(size=(cin, 5, 5))
    base = conv2d(x, spec)
    x2 = x.copy()
    x2[:cin // g] += rng.normal(size=(cin // g, 5, 5))
    pert = conv2d(x2, spec)
    # group 0 outputs change, group 1 outputs must not
    assert not np.allclose(base[:cout // g], pert[:cout // g])
    np.testing.assert_array_equal(base[cout // g:], pert[cout // g:])


def test_conv2d_rejects_bad_geometry():
    spec = ConvSpec(1, 2, 3, 3, np.zeros((1, 2, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(np.zeros((3, 5, 5)), spec)  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 2, 2)), spec)  # kernel exceeds input
    with pytest.raises(ShapeError):
        ConvSpec(1, 2, 3, 3, np.zeros(5))  # weight size
    with pytest.raises(ShapeError):
        ConvSpec(4, 6, 1, 1, np.zeros((4, 2, 1, 1)), groups=4)  # divisibility
    with pytest.raises(ShapeError):
        ConvSpec(1, 1, 1, 1, np.zeros(1), activation="tanh")
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 4, 4)),
               ConvSpec(1, 2, 3, 3, np.zeros((1, 2, 3, 3)), bias=np.zeros(3)))


def test_activations():
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(numerics.relu(x), [0.0, 0.0, 3.0])
    s = sigmoid(np.array([0.0, 710.0, -710.0]))
    assert s[0] == 0.5 and 0.0 < s[2] < 1e-300 < 1.0 - 1e-12 < s[1] <= 1.0
    np.testing.assert_allclose(numerics.softplus(np.array([800.0]))[0], 800.0)


def sigmoid_masked_oracle(x):
    """Masked two-branch logistic: 1/(1+exp(-x)) at x >= 0, else e^x/(1+e^x)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_identical_to_masked_form():
    specials = [0.0, -0.0, 710.0, -710.0, 745.0, -745.0, -746.0, 5e-324,
                -5e-324, np.inf, -np.inf, np.nan, -np.nan]
    x = np.concatenate([np.linspace(-800.0, 800.0, 20001), specials])
    got, want = sigmoid(x), sigmoid_masked_oracle(x)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    grid = np.linspace(-40.0, 40.0, 7 * 11 * 13).reshape(7, 11, 13)
    np.testing.assert_array_equal(sigmoid(grid), sigmoid_masked_oracle(grid))
    assert sigmoid(-2.0).shape == () and sigmoid(-2.0) == sigmoid_masked_oracle(-2.0)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5)) * 50
    p = softmax(x, axis=1)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(4), rtol=1e-12)
    np.testing.assert_allclose(softmax(x + 123.0, axis=1), p, rtol=1e-12)


def test_mlp_forward_shapes_and_relu():
    spec = MlpSpec(weights=[np.array([[1.0, -1.0]]), np.array([[2.0]])],
                   biases=[np.array([-0.5]), np.array([1.0])])
    # hidden = relu(1*x0 - 1*x1 - 0.5), out = 2 * hidden + 1
    assert mlp_forward([2.0, 0.5], spec)[0] == pytest.approx(3.0)
    assert mlp_forward([0.0, 5.0], spec)[0] == pytest.approx(1.0)
    with pytest.raises(ShapeError):
        mlp_forward([1.0, 2.0, 3.0], spec)
    with pytest.raises(ShapeError):
        MlpSpec(weights=[np.zeros((2, 2)), np.zeros((1, 3))],
                biases=[np.zeros(2), np.zeros(1)])


def test_archive_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        "backbone.conv1.weight": rng.normal(size=(4, 2, 3, 3)).astype(np.float32),
        "ifam.eps": np.array([0.1], dtype=np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }
    path = tmp_path / "w.cpaw"
    save_weights(tensors, path)
    loaded = load_weights(path)
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float64
        np.testing.assert_array_equal(loaded[name], np.asarray(arr, dtype=np.float64))
    buf = io.BytesIO()
    save_weights(loaded, buf)
    assert buf.getvalue() == path.read_bytes()


def test_archive_errors_name_offending_tensor(tmp_path):
    path = tmp_path / "w.cpaw"
    save_weights({"a": np.ones(3, dtype=np.float32),
                  "k": np.ones((2, 2), dtype=np.float32)}, path)
    blob = path.read_bytes()
    with pytest.raises(ArchiveError, match="magic"):
        load_weights(io.BytesIO(b"XXXX" + blob[4:]))
    # chop 4 bytes off tensor "k"'s payload
    with pytest.raises(ArchiveError, match="'k'"):
        load_weights(io.BytesIO(blob[:-4]))
    with pytest.raises(ArchiveError, match="version"):
        load_weights(io.BytesIO(blob[:4] + b"\x09\x00" + blob[6:]))
    with pytest.raises(ArchiveError, match="non-finite"):
        save_weights({"bad": np.array([np.inf])}, io.BytesIO())


def test_require_weights_lists_all_missing():
    with pytest.raises(KeyError, match="a.bias.*a.weight"):
        numerics.require_weights({"x": 1}, ["a.weight", "a.bias", "x"], "probe")
