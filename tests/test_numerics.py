import io
import tracemalloc

import numpy as np
import pytest

from cpalign import kernels, numerics
from cpalign.numerics import (
    ArchiveError,
    ConvSpec,
    MlpSpec,
    ShapeError,
    conv2d,
    freeze_weights,
    load_weights,
    mlp_forward,
    save_weights,
    sigmoid,
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
    (5, 3, 4, 4, 4, 0, 1, 8, 12),     # stride = kernel
    (4, 6, 3, 3, 1, 0, 1, 5, 7),      # stride 1 unpadded
    (8, 1, 3, 3, 1, 1, 1, 100, 80),   # im2col columns past one band, ragged last band
]


def test_conv_cases_cover_a_ragged_im2col_band():
    # the last CONV_CASES entry must keep exercising the banded im2col:
    # more columns than one band holds, and a band count that does not
    # divide the output rows
    cin, cout, kh, kw, stride, padding, groups, h, w = CONV_CASES[-1]
    ho, wo = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    row_bytes = 8 * cin * kh * kw * wo
    assert row_bytes * ho > kernels.IM2COL_BAND_BYTES
    assert ho % (kernels.IM2COL_BAND_BYTES // row_bytes) != 0


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


@pytest.mark.parametrize("activation", ["none", "relu", "sigmoid"])
@pytest.mark.parametrize("cin,cout,kh,kw,stride,padding,groups,h,w", CONV_CASES)
def test_conv_epilogue_leaves_input_alone(cin, cout, kh, kw, stride, padding,
                                          groups, h, w, activation):
    # bias and activation are applied in place; that must only ever touch
    # the kernel's own fresh result
    rng = np.random.default_rng(11)
    wt = rng.normal(size=(cout, cin // groups, kh, kw))
    spec = ConvSpec(cout, cin, kh, kw, wt, bias=rng.normal(size=cout),
                    stride=stride, padding=padding, groups=groups,
                    activation=activation)
    x = rng.normal(size=(cin, h, w))
    before = x.copy()
    out = conv2d(x, spec)
    np.testing.assert_array_equal(x, before)
    assert not np.shares_memory(out, x)
    assert not np.shares_memory(out, spec.weights)
    assert not np.shares_memory(out, spec.bias)


def test_conv2d_identity_kernel_example():
    x = np.ones((1, 2, 2))
    spec = ConvSpec(1, 1, 1, 1, np.array([2.0]))
    np.testing.assert_array_equal(conv2d(x, spec), 2.0 * np.ones((1, 2, 2)))


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
    # several blocks with a ragged tail, the specials straddling a block
    # boundary, and a non-contiguous view
    n = 3 * numerics.SIGMOID_BLOCK + 7
    big = np.random.default_rng(12).normal(scale=30.0, size=n)
    at = numerics.SIGMOID_BLOCK - 5
    big[at:at + len(specials)] = specials
    big = big.reshape(1, -1, 1)
    for arr in (big, big[:, ::3]):
        got, want = sigmoid(arr), sigmoid_masked_oracle(arr)
        assert got.shape == arr.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # in place: each block is read before it is written
    inplace = big.copy()
    assert sigmoid(inplace, out=inplace) is inplace
    np.testing.assert_array_equal(inplace.view(np.int64),
                                  sigmoid_masked_oracle(big).view(np.int64))
    with pytest.raises(ShapeError):
        sigmoid(big, out=np.empty(big.size))


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


def test_freeze_weights_leaves_the_callers_arrays_alone():
    # freezing once set writeable=False on the caller's own arrays
    own = np.arange(4.0)
    base = np.arange(6.0)
    view = base[1:5]
    single = np.ones(3, dtype=np.float32)
    frozen = freeze_weights({"own": own, "view": view, "single": single})
    for arr in (own, base, view, single):
        assert arr.flags.writeable
    own[0] = 10.0
    base[1] = 10.0
    single[0] = 10.0
    np.testing.assert_array_equal(frozen["own"], [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(frozen["view"], [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(frozen["single"], [1.0, 1.0, 1.0])
    for arr in frozen.values():
        assert arr.dtype == np.float64
        assert not arr.flags.writeable and arr.flags.owndata
    # an array that is already frozen is kept as it is, not copied
    again = freeze_weights(frozen)
    assert all(again[k] is frozen[k] for k in frozen)


def test_loading_weights_copies_no_tensor():
    # each loaded tensor is made once: a copy on freezing would hold two
    n = 1 << 20
    buf = io.BytesIO()
    save_weights({"big": np.ones(n, dtype=np.float32)}, buf)
    buf.seek(0)
    tracemalloc.start()
    try:
        loaded = load_weights(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 tensor (8n bytes) beside its float32 payload (4n), no more
    assert peak < 1.25 * 12 * n
    assert not loaded["big"].flags.writeable and loaded["big"].flags.owndata


def test_require_weights_lists_all_missing():
    with pytest.raises(KeyError, match="a.bias.*a.weight"):
        numerics.require_weights({"x": 1}, ["a.weight", "a.bias", "x"], "probe")
