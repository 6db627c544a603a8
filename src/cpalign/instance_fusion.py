"""Instance-focused aggregation of fused BEV features.

Features are split into foreground and background by an observability map;
the foreground passes through a structure-sensitive depthwise convolution
(five 3x3 kernel banks derived from one learned bank), gets re-weighted by
learned verification weights, and is recombined with a small epsilon of
background before agents are folded together with a shared 1x1 fusion.
:func:`refine_instance` runs that whole branch for one agent and ends it in
the agent's term of the fused map, with the aggregation folded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featurizer import BevSpec, box_footprint_mask
from .numerics import (
    ConvSpec,
    ShapeError,
    conv2d,
    ensure_tensor3,
    he_normal,
    require_weights,
    sigmoid,
)

EPSILON_DEFAULT = 0.1
#: Elements per block of the verified blend's (1 - W) * enhanced term.
BLEND_BLOCK = 1 << 15
#: Channels per block of the struct conv, each zero-padded on its own.
STRUCT_BLOCK = 64
STRUCT_BANKS = ("vanilla", "center_surround", "horizontal", "vertical", "angular")
STRUCT_WEIGHT_NAMES = ("ifam.struct.weight", "ifam.struct.bias")


def foreground_features(features: np.ndarray, fg_map: np.ndarray) -> np.ndarray:
    """The foreground H * M of features H under a map M in [0, 1]."""
    features = ensure_tensor3(features, "features")
    fg_map = ensure_tensor3(fg_map, "foreground map")
    if fg_map.shape != (1,) + features.shape[1:]:
        raise ShapeError(
            f"foreground map {fg_map.shape} must be (1, H, W) matching "
            f"{features.shape}"
        )
    if np.any(fg_map < 0.0) or np.any(fg_map > 1.0):
        raise ShapeError("foreground map values must lie in [0, 1]")
    return features * fg_map


@dataclass
class StructKernels:
    """One learned depthwise 3x3 bank plus four structure-derived banks.

    Derivations from the base bank B (per channel):
      center_surround: off-center taps copy B, the center tap is minus the
        sum of B's off-center taps, so constant patches map to zero;
      horizontal: left column copies B, right column is its negative,
        middle column zero (responds to horizontal gradients);
      vertical: top row copies B, bottom row its negative, middle row zero;
      angular: B minus B rotated a quarter turn, so rotationally symmetric
        kernels cancel.
    """

    base: np.ndarray     # (C, 3, 3)
    biases: np.ndarray | None = None  # (5, C), one row per bank

    def __post_init__(self):
        self.base = np.ascontiguousarray(self.base, dtype=np.float64)
        if self.base.ndim != 3 or self.base.shape[1:] != (3, 3):
            raise ShapeError(f"base bank must be (C, 3, 3), got {self.base.shape}")
        c = self.base.shape[0]
        if self.biases is None:
            self.biases = np.zeros((5, c))
        else:
            self.biases = np.ascontiguousarray(self.biases, dtype=np.float64)
            if self.biases.shape != (5, c):
                raise ShapeError(
                    f"bank biases must be (5, {c}), got {self.biases.shape}"
                )

    @classmethod
    def from_weights(cls, weights: dict, channels: int) -> "StructKernels":
        """The base bank and the bank biases over ``channels`` channels; a
        tensor of any other size raises :class:`ShapeError` naming it."""
        arrays = require_weights(weights, STRUCT_WEIGHT_NAMES, "struct conv weights")
        shapes = ((channels, 3, 3), (5, channels))
        for name, arr, shape in zip(STRUCT_WEIGHT_NAMES, arrays, shapes):
            if arr.size != math.prod(shape):
                raise ShapeError(f"{name} has {arr.size} values, needs {math.prod(shape)}")
        return cls(*(arr.reshape(shape) for arr, shape in zip(arrays, shapes)))

    @property
    def channels(self) -> int:
        return self.base.shape[0]

    def center_surround(self) -> np.ndarray:
        k = self.base.copy()
        k[:, 1, 1] = -(self.base.sum(axis=(1, 2)) - self.base[:, 1, 1])
        return k

    def horizontal(self) -> np.ndarray:
        k = np.zeros_like(self.base)
        k[:, :, 0] = self.base[:, :, 0]
        k[:, :, 2] = -self.base[:, :, 0]
        return k

    def vertical(self) -> np.ndarray:
        k = np.zeros_like(self.base)
        k[:, 0, :] = self.base[:, 0, :]
        k[:, 2, :] = -self.base[:, 0, :]
        return k

    def angular(self) -> np.ndarray:
        return self.base - np.rot90(self.base, k=1, axes=(1, 2))

    def banks(self) -> list:
        return [self.base, self.center_surround(), self.horizontal(),
                self.vertical(), self.angular()]

    def fused_weight(self) -> np.ndarray:
        return sum(self.banks())

    def fused_bias(self) -> np.ndarray:
        return self.biases.sum(axis=0)


def default_struct_weights(channels: int, seed: int = 0) -> dict:
    """A He-seeded base bank (C, 3, 3) and zero bank biases (5, C)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57C]))
    return {
        "ifam.struct.weight": he_normal(rng, channels, 1, 3, 3).reshape(channels, 3, 3),
        "ifam.struct.bias": np.zeros((5, channels)),
    }


def _depthwise(x: np.ndarray, bank: np.ndarray, bias: np.ndarray) -> np.ndarray:
    # one block of channels at a time, so only a block is ever zero-padded
    c = x.shape[0]
    bank = bank.reshape(c, 1, 3, 3)
    out = np.empty_like(x)
    for c0 in range(0, c, STRUCT_BLOCK):
        c1 = min(c0 + STRUCT_BLOCK, c)
        out[c0:c1] = conv2d(x[c0:c1], ConvSpec(c1 - c0, c1 - c0, 3, 3, bank[c0:c1],
                                                bias=bias[c0:c1], padding=1,
                                                groups=c1 - c0))
    return out


def struct_conv(features: np.ndarray, kernels: StructKernels) -> np.ndarray:
    """Sum of the five depthwise bank responses, run as one depthwise conv
    whose kernel and bias are the banks' sums."""
    features = ensure_tensor3(features, "struct conv input")
    if features.shape[0] != kernels.channels:
        raise ShapeError(
            f"struct conv built for {kernels.channels} channels, got "
            f"{features.shape[0]}"
        )
    return _depthwise(features, kernels.fused_weight(), kernels.fused_bias())


# ---------------------------------------------------------------------------
# verification weights
# ---------------------------------------------------------------------------

VERIFICATION_WEIGHT_NAMES = (
    "ifam.verif.spatial.weight", "ifam.verif.spatial.bias",
    "ifam.verif.ca1.weight", "ifam.verif.ca1.bias",
    "ifam.verif.ca2.weight", "ifam.verif.ca2.bias",
    "ifam.verif.gconv.weight", "ifam.verif.gconv.bias",
)

#: The gate's input is four concatenated C-channel blocks (fore, enhanced,
#: and the two halves of the initial weight), shuffled and compressed by a
#: 1x1 conv with this many groups.
VERIF_GROUPS = 4


@dataclass
class VerificationSpec:
    spatial: ConvSpec   # 2 -> 1, 3x3
    ca1: ConvSpec       # 2C -> 2C/4, 1x1
    ca2: ConvSpec       # 2C/4 -> 2C, 1x1
    gconv: ConvSpec     # 4C -> C grouped 1x1, sigmoid

    @property
    def channels(self) -> int:
        return self.gconv.out_channels

    @classmethod
    def from_weights(cls, weights: dict) -> "VerificationSpec":
        sw, sb, c1w, c1b, c2w, c2b, gw, gb = require_weights(
            weights, VERIFICATION_WEIGHT_NAMES, "verification weights")
        two_c = c1w.shape[1] if c1w.ndim == 4 else int(round(math.sqrt(c1w.size * 4)))
        red = c1w.size // two_c
        c = two_c // 2
        if 2 * c != two_c or c % VERIF_GROUPS:
            raise ShapeError(
                f"verification weights imply {two_c} concat channels, which "
                f"must be even with C divisible by groups={VERIF_GROUPS}"
            )
        return cls(
            spatial=ConvSpec(1, 2, 3, 3, sw, bias=sb, padding=1),
            ca1=ConvSpec(red, two_c, 1, 1, c1w, bias=c1b, activation="relu"),
            ca2=ConvSpec(two_c, red, 1, 1, c2w, bias=c2b),
            gconv=ConvSpec(c, 4 * c, 1, 1, gw, bias=gb, groups=VERIF_GROUPS,
                           activation="sigmoid"),
        )


def default_verification_weights(channels: int, seed: int = 0) -> dict:
    if channels % VERIF_GROUPS:
        raise ShapeError(
            f"channels={channels} must be divisible by {VERIF_GROUPS} groups"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1FA]))
    two_c = 2 * channels
    red = max(two_c // 4, 1)
    return {
        "ifam.verif.spatial.weight": he_normal(rng, 1, 2, 3, 3),
        "ifam.verif.spatial.bias": np.zeros(1),
        "ifam.verif.ca1.weight": he_normal(rng, red, two_c, 1, 1),
        "ifam.verif.ca1.bias": np.zeros(red),
        "ifam.verif.ca2.weight": he_normal(rng, two_c, red, 1, 1),
        "ifam.verif.ca2.bias": np.zeros(two_c),
        "ifam.verif.gconv.weight": he_normal(rng, channels, channels, 1, 1),
        "ifam.verif.gconv.bias": np.zeros(channels),
    }


def gate_groups(fore: np.ndarray, enhanced: np.ndarray, spec: VerificationSpec) -> tuple:
    """Per-channel gates in (0, 1), one group of output channels at a time.

    Spatial attention (channel max and mean through a 3x3 conv) and channel
    attention (global average pool through a bottleneck) are broadcast-added
    into one initial weight ``w_init = w_spatial + w_channel`` of 2C
    channels. The gate is the sigmoid of a 4-group 1x1 conv over the
    channel-shuffled concatenation (fore, enhanced, w_init[:C], w_init[C:]).

    That 4C-channel input is never built. Shuffled channel ``4i + g`` is
    block ``g`` at channel ``i``, so the conv splits into one grouped 1x1
    conv per block. The fore and enhanced blocks run as such convs, one
    group of output channels at a time. Each w_init block is ``w_spatial``
    broadcast over channels plus a per-channel ``w_channel``, so together
    they add the rank-1 map ``colsum(W) * w_spatial`` and the per-channel
    constant ``W @ w_channel``, where W is their slice of the gconv weights.

    Returns ``(fore, enhanced, groups)``: the inputs as validated, and a
    generator of ``(rows, gate)``, the gate of each group of output channels
    as a fresh (C/4, H, W) map. The statistics over all channels are taken
    here; group g then reads only ``rows`` of fore and enhanced, so a caller
    may write over those rows once their gate is out.
    """
    fore = ensure_tensor3(fore, "foreground features")
    enhanced = ensure_tensor3(enhanced, "enhanced features")
    if fore.shape != enhanced.shape:
        raise ShapeError(f"shape mismatch: {fore.shape} vs {enhanced.shape}")
    c = spec.channels
    if fore.shape[0] != c:
        raise ShapeError(
            f"verification spec built for {c} channels, got {fore.shape[0]}"
        )
    stats = np.stack([np.maximum(fore.max(axis=0), enhanced.max(axis=0)),
                      (fore.sum(axis=0) + enhanced.sum(axis=0)) / (2 * c)])
    w_spatial = conv2d(stats, spec.spatial)                    # (1, H, W)
    gap = np.concatenate([fore.mean(axis=(1, 2)), enhanced.mean(axis=(1, 2))])
    w_channel = conv2d(conv2d(gap.reshape(-1, 1, 1), spec.ca1), spec.ca2).ravel()

    # gconv weight [o, 4 * il + g] as (group, out in group, il, block g)
    k = c // VERIF_GROUPS
    w = spec.gconv.weights.reshape(VERIF_GROUPS, k, k, VERIF_GROUPS)
    w_init = w[..., 2:]                                        # (4, k, k, 2)
    colsum = w_init.sum(axis=(2, 3)).reshape(c)
    # block 2 reads w_channel[:C], block 3 w_channel[C:], group by group
    w_ch = w_channel.reshape(2, VERIF_GROUPS, 1, k).transpose(1, 2, 3, 0)
    const = (w_init * w_ch).sum(axis=(2, 3)).reshape(c)
    bias = const if spec.gconv.bias is None else const + spec.gconv.bias

    def groups():
        for g in range(VERIF_GROUPS):
            rows = slice(g * k, (g + 1) * k)
            logits = conv2d(fore[rows], ConvSpec(k, k, 1, 1, w[g, ..., 0], bias=bias[rows]))
            part = conv2d(enhanced[rows], ConvSpec(k, k, 1, 1, w[g, ..., 1]))
            logits += part
            np.multiply(colsum[rows, None, None], w_spatial, out=part)
            logits += part
            del part
            yield rows, sigmoid(logits, out=logits)

    return fore, enhanced, groups()


def verified_blend(weights: np.ndarray, fore: np.ndarray,
                   enhanced: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """W * fore + (1 - W) * enhanced, elementwise convex blend.

    ``out`` receives the blend and may be ``weights`` itself.
    """
    weights = ensure_tensor3(weights, "verification weights")
    fore = ensure_tensor3(fore, "foreground features")
    enhanced = ensure_tensor3(enhanced, "enhanced features")
    if not (weights.shape == fore.shape == enhanced.shape):
        raise ShapeError(
            f"blend inputs must share a shape, got {weights.shape}, "
            f"{fore.shape}, {enhanced.shape}"
        )
    if out is None:
        out = np.empty_like(weights)
    elif out.shape != weights.shape or not out.flags.c_contiguous:
        raise ShapeError(f"blend output must be a contiguous {weights.shape} array")
    # block by block, (1 - W) * enhanced is formed in one small buffer before
    # W * fore overwrites the block, so out may alias W
    flat_w, flat_f, flat_e = weights.reshape(-1), fore.reshape(-1), enhanced.reshape(-1)
    flat_out = out.reshape(-1)
    rest = np.empty(min(flat_w.size, BLEND_BLOCK))
    for i in range(0, flat_w.size, BLEND_BLOCK):
        j = min(i + BLEND_BLOCK, flat_w.size)
        r = rest[:j - i]
        np.subtract(1.0, flat_w[i:j], out=r)
        r *= flat_e[i:j]
        np.multiply(flat_w[i:j], flat_f[i:j], out=flat_out[i:j])
        flat_out[i:j] += r
    return out


AGGREGATE_WEIGHT_NAMES = ("ifam.agg.weight", "ifam.agg.bias", "ifam.eps")
FUSE_WEIGHT_NAMES = ("ifam.fuse.weight", "ifam.fuse.bias")


def default_aggregate_weights(channels: int, seed: int = 0,
                              combine: str = "sum") -> dict:
    """The aggregation conv's weights: C input channels for ``combine="sum"``,
    3C for ``"concat"``; :func:`refine_instance` reads the mode from their
    folded product (:func:`instance_terms`)."""
    if combine not in ("sum", "concat"):
        raise ShapeError(f"unknown combine mode {combine!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA66]))
    cin = channels if combine == "sum" else 3 * channels
    return {
        "ifam.agg.weight": he_normal(rng, channels, cin, 1, 1),
        "ifam.agg.bias": np.zeros(channels),
        "ifam.eps": np.array([EPSILON_DEFAULT]),
    }


def refine_instance(h: np.ndarray, m: np.ndarray, struct: StructKernels,
                    verification: VerificationSpec, term: InstanceTerm) -> np.ndarray:
    """The instance branch of features h under the foreground map m, ended
    in the agent's fusion term (:class:`InstanceTerm`).

    The foreground ``fore = h * m`` passes through the struct conv into
    ``enhanced``; the verification gate W blends them into ``W * fore +
    (1 - W) * enhanced``, which is combined with fore and enhanced and
    projected by the folded aggregation ``A_k Wa``; the background adds
    ``((eps A_k) h) * (1 - m)``. The combination is read from the width of
    the folded product: C channels mean the elementwise sum, 3C the channel
    concat (blend, fore, enhanced), run as three C-channel products.

    The gate and the blend run one group of output channels at a time, so
    no full gate map is ever made. With the sum each group's sum is written
    over its rows of fore; with the concat each group's blend goes into one
    C-channel map. h and m are only read.
    """
    fore = foreground_features(h, m)
    c = fore.shape[0]
    n_out, width = term.product.shape
    concat = _reads_concat(width, c)
    enhanced = struct_conv(fore, struct)
    pre, enhanced, groups = gate_groups(fore, enhanced, verification)
    del fore
    blend = np.empty_like(pre) if concat else pre
    for rows, gate in groups:
        f, e = pre[rows], enhanced[rows]
        if concat:
            verified_blend(gate, f, e, out=blend[rows])
        else:
            np.add(verified_blend(gate, f, e, out=gate), f, out=f)
            f += e
    # the views die with the loop's last names
    del groups, gate, f, e
    maps = (blend, pre, enhanced) if concat else (pre,)
    del blend, pre, enhanced
    products = np.split(term.product, len(maps), axis=1)
    out = conv2d(maps[0], ConvSpec(n_out, c, 1, 1, products[0], bias=term.bias))
    for i in range(1, len(maps)):
        out += conv2d(maps[i], ConvSpec(n_out, c, 1, 1, products[i]))
    del maps
    back = conv2d(h, ConvSpec(n_out, c, 1, 1, term.back))
    back *= 1.0 - m
    out += back
    return out


def _reads_concat(width, c: int) -> bool:
    """Whether an aggregation of ``width`` input channels over ``c``-channel
    maps reads their concat (3c) rather than their sum (c)."""
    if width not in (c, 3 * c):
        raise ShapeError(
            f"ifam.agg.weight of width {width:g} fits neither the sum ({c} input "
            f"channels) nor the concat ({3 * c}) of {c}-channel maps")
    return width == 3 * c


def default_fuse_weights(channels: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF05E]))
    return {
        "ifam.fuse.weight": he_normal(rng, channels, 2 * channels, 1, 1),
        "ifam.fuse.bias": np.zeros(channels),
    }


def fusion_fold(weights: dict, n_agents: int, rows: int | None = None) -> tuple:
    """The fusion of ``n_agents`` maps as one term per agent: a
    :class:`ConvSpec` each, the ego's first.

    Fusion is a left fold over agents with one shared 2C -> C 1x1 conv,
    ``s_k = W1 s_(k-1) + W2 x_k + b``, the ego first. Over n agents it
    unrolls to ``sum_k A_k x_k + c`` with ``A_0 = W1^(n-1)``,
    ``A_k = W1^(n-1-k) W2`` and ``c = sum_(j < n-1) W1^j b``. Each agent's
    term is a C -> rows 1x1 conv of its own map, the ego's with c as its
    bias, so no 2C-channel concat is ever built, and the fused map is the
    sum of the terms.

    ``rows`` keeps only the leading output channels, for a reader that uses
    no others.
    """
    if n_agents < 1:
        raise ShapeError("fusion needs at least one agent")
    wf, bf = require_weights(weights, FUSE_WEIGHT_NAMES, "fusion weights")
    c = bf.size
    if wf.size != 2 * c * c:
        raise ShapeError(f"fusion weights of size {wf.size} do not fit {c} channels")
    rows = c if rows is None else rows
    if not 0 < rows <= c:
        raise ShapeError(f"fusion rows must lie in 1..{c}, got {rows}")
    w = wf.reshape(c, 2 * c)
    w1, w2 = w[:, :c], w[:, c:]
    powers = [np.eye(c)[:rows]]            # W1^j, leading rows only
    for _ in range(n_agents - 1):
        powers.append(powers[-1] @ w1)
    offset = np.zeros(rows)
    for p in powers[:-1]:
        offset += p @ bf.ravel()
    mats = [powers[-1]] + [powers[n_agents - 1 - k] @ w2 for k in range(1, n_agents)]
    return tuple(ConvSpec(rows, c, 1, 1, a, bias=offset if k == 0 else None)
                 for k, a in enumerate(mats))


@dataclass(frozen=True)
class InstanceTerm:
    """Agent k's fusion term, folded into the tail of its instance branch.

    The branch would end in ``refined = Wa pre + ba + eps (h - h m)``, of
    which fusion reads only ``A_k refined`` (plus ``c`` for the ego; see
    :func:`fusion_fold`). Both are linear and m has one channel, so the term
    is ``(A_k Wa) pre + ((eps A_k) h) * (1 - m) + A_k ba (+ c)``, and no map
    of the aggregation's width is made.
    """

    product: np.ndarray  # A_k Wa: (rows, C) under the sum, (rows, 3C) under the concat
    back: np.ndarray     # eps A_k: (rows, C)
    bias: np.ndarray     # A_k ba, plus c for the ego: (rows,)


def instance_terms(weights: dict, n_agents: int, rows: int | None = None) -> tuple:
    """Every agent's :class:`InstanceTerm` over ``n_agents`` agents: the
    aggregation weights folded into the terms of :func:`fusion_fold`, whose
    ``rows`` they keep."""
    fold = fusion_fold(weights, n_agents, rows)
    wa, ba, eps = require_weights(weights, AGGREGATE_WEIGHT_NAMES, "aggregation weights")
    c = fold[0].in_channels
    _reads_concat(wa.size / c, c)
    if ba.size != c:
        raise ShapeError(f"ifam.agg.bias has {ba.size} values, needs {c}")
    wa = wa.reshape(c, -1)
    eps = float(eps.ravel()[0])
    terms = []
    for spec in fold:
        a = spec.weights.reshape(spec.out_channels, c)
        bias = a @ ba.ravel()
        if spec.bias is not None:
            bias += spec.bias
        arrays = (a @ wa, eps * a, bias)
        for arr in arrays:  # shared by every context under the weights
            arr.flags.writeable = False
        terms.append(InstanceTerm(*arrays))
    return tuple(terms)


# ---------------------------------------------------------------------------
# foreground occupancy loss
# ---------------------------------------------------------------------------

FOCAL_POS_SCALE = 0.25
FOCAL_NEG_SCALE = 0.75
FOREGROUND_CELL_WEIGHT = 2.0
BACKGROUND_CELL_WEIGHT = 1.0
_P_CLAMP = 1e-12


def foreground_loss(pred: np.ndarray, boxes: list,
                    spec: BevSpec) -> tuple[float, np.ndarray]:
    """Weighted focal loss against rasterized box footprints.

    Ground truth is 1 on cells whose center lies in any closed box
    footprint. Foreground cells weigh 2, background 1, and the whole sum is
    normalized by max(foreground count, 1). Per cell, foreground costs
    0.25 * (1-p)^2 * -log(p) and background 0.75 * p^2 * -log(1-p).
    Predictions are clamped away from {0, 1} by 1e-12 so saturated inputs
    stay finite; the gradient is zero in the clamped flats.
    """
    pred = ensure_tensor3(pred, "foreground prediction")
    if pred.shape != (1, spec.height, spec.width):
        raise ShapeError(
            f"prediction shape {pred.shape} must be (1, {spec.height}, {spec.width})"
        )
    if np.any(pred < 0.0) or np.any(pred > 1.0):
        raise ShapeError("foreground predictions must lie in [0, 1]")
    y = box_footprint_mask(boxes, spec.origin_x, spec.origin_y, spec.cell,
                           spec.height, spec.width).astype(np.float64)[None]
    norm = max(float(y.sum()), 1.0)
    w = (FOREGROUND_CELL_WEIGHT * y + BACKGROUND_CELL_WEIGHT * (1.0 - y)) / norm
    p = np.clip(pred, _P_CLAMP, 1.0 - _P_CLAMP)
    pos = FOCAL_POS_SCALE * (1.0 - p) ** 2 * -np.log(p)
    neg = FOCAL_NEG_SCALE * p ** 2 * -np.log1p(-p)
    loss = float((w * (y * pos + (1.0 - y) * neg)).sum())
    dpos = FOCAL_POS_SCALE * (2.0 * (1.0 - p) * np.log(p) - (1.0 - p) ** 2 / p)
    dneg = FOCAL_NEG_SCALE * (-2.0 * p * np.log1p(-p) + p ** 2 / (1.0 - p))
    grad = w * (y * dpos + (1.0 - y) * dneg)
    grad[(pred <= _P_CLAMP) | (pred >= 1.0 - _P_CLAMP)] = 0.0
    return loss, grad
