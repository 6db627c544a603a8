"""Literal references for the folded production path.

The stage modules hold only what a run executes: the gate one group of
channels at a time, the aggregation folded into each agent's fusion term,
the foreground head on the low-res scales, the split motion encoder and
the temporal loss without its gradient. Each function here writes one of
them out as the paper builds it, once, for the release gate
(:mod:`cpalign.checks`) and the tests. No run imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance_fusion import (FUSE_WEIGHT_NAMES, VERIF_GROUPS, fusion_fold, gate_groups,
                              struct_conv)
from .numerics import ConvSpec, ShapeError, conv2d, ensure_tensor3, require_weights
from .opcount import OpCounter
from .temporal_align import window_cosines, window_loss, window_partition


def fuse_agents(features: list, weights: dict) -> np.ndarray:
    """Left fold over agents with one shared 2C -> C 1x1 conv.

    features[0] is the ego view; collaborators follow in id order. A single
    agent passes through unchanged; an empty list is an error.
    """
    if not features:
        raise ShapeError("fuse_agents needs at least one agent's features")
    feats = [ensure_tensor3(f, f"agent {i} features") for i, f in enumerate(features)]
    shape = feats[0].shape
    for i, f in enumerate(feats[1:], start=1):
        if f.shape != shape:
            raise ShapeError(f"agent {i} features {f.shape} do not match ego {shape}")
    if len(feats) == 1:
        return feats[0].copy()
    c = shape[0]
    wf, bf = require_weights(weights, FUSE_WEIGHT_NAMES, "fusion weights")
    spec = ConvSpec(c, 2 * c, 1, 1, wf, bias=bf)
    state = feats[0]
    for nxt in feats[1:]:
        state = conv2d(np.concatenate([state, nxt]), spec)
    return state


def verification_weights(fore: np.ndarray, enhanced: np.ndarray, spec) -> np.ndarray:
    """The library's gate (:func:`~cpalign.instance_fusion.gate_groups`)
    assembled into one (C, H, W) map."""
    fore, _, groups = gate_groups(fore, enhanced, spec)
    out = np.empty_like(fore)
    for rows, gate in groups:
        out[rows] = gate
    return out


def literal_gate(fore: np.ndarray, enhanced: np.ndarray, spec) -> np.ndarray:
    """The gate built literally: concat, broadcast w_init, shuffle the four
    C-channel blocks channel by channel (block g of channel i to 4i + g),
    then the grouped 1x1 conv."""
    cat = np.concatenate([fore, enhanced])
    stats = np.stack([cat.max(axis=0), cat.mean(axis=0)])
    w_spatial = conv2d(stats, spec.spatial)
    gap = cat.mean(axis=(1, 2)).reshape(-1, 1, 1)
    w_channel = conv2d(conv2d(gap, spec.ca1), spec.ca2)
    z = np.concatenate([cat, np.broadcast_to(w_spatial + w_channel, cat.shape)])
    c, h, w = fore.shape
    z = z.reshape(VERIF_GROUPS, c, h, w).swapaxes(0, 1).reshape(VERIF_GROUPS * c, h, w)
    return conv2d(z, spec.gconv)


def literal_refined(h, m, struct, spec, weights) -> np.ndarray:
    """The unfolded branch's refined map: the literal gate and verified
    blend, the sum (or concat), the 1x1 aggregation and eps * (h - h * m)."""
    fore = h * m
    enh = struct_conv(fore, struct)
    gate = literal_gate(fore, enh, spec)
    blend = gate * fore + (1.0 - gate) * enh
    c = h.shape[0]
    wa = weights["ifam.agg.weight"]
    pre = blend + fore + enh if wa.size == c * c else np.concatenate([blend, fore, enh])
    refined = conv2d(pre, ConvSpec(c, pre.shape[0], 1, 1, wa,
                                   bias=weights["ifam.agg.bias"]))
    return refined + float(weights["ifam.eps"][0]) * (h - fore)


def folded_term(h, m, struct, spec, weights, n, k, rows) -> np.ndarray:
    """Agent k's folded term written out in refine_instance's order: the
    library gate, the blend and sum (or concat), ``A_k Wa`` on it (three
    C-column blocks under the concat) with bias ``A_k ba (+ c)``, then
    ``((eps A_k) h) * (1 - m)``, with A_k and c from :func:`fusion_fold`."""
    c = h.shape[0]
    fold = fusion_fold(weights, n, rows)
    a = fold[k].weights.reshape(rows, c)
    product = a @ weights["ifam.agg.weight"].reshape(c, -1)
    bias = a @ weights["ifam.agg.bias"]
    if k == 0:
        bias += fold[0].bias
    fore = h * m
    enh = struct_conv(fore, struct)
    gate = verification_weights(fore, enh, spec)
    blend = gate * fore + (1.0 - gate) * enh
    if product.shape[1] == c:
        out = conv2d(blend + fore + enh, ConvSpec(rows, c, 1, 1, product, bias=bias))
    else:
        out = conv2d(blend, ConvSpec(rows, c, 1, 1, product[:, :c], bias=bias))
        out += conv2d(fore, ConvSpec(rows, c, 1, 1, product[:, c:2 * c]))
        out += conv2d(enh, ConvSpec(rows, c, 1, 1, product[:, 2 * c:]))
    eps = float(weights["ifam.eps"][0])
    return out + conv2d(h, ConvSpec(rows, c, 1, 1, eps * a)) * (1.0 - m)


def literal_foreground(projected: np.ndarray, weights: dict) -> np.ndarray:
    """The foreground head as written: its 3x3 conv over all projected
    channels, the affine and relu, and the 1x1 conv into a sigmoid."""
    w = weights
    mid = w["fg.conv1.bias"].size
    h = conv2d(projected, ConvSpec(mid, projected.shape[0], 3, 3, w["fg.conv1.weight"],
                                   bias=w["fg.conv1.bias"], padding=1))
    h = np.maximum(h * w["fg.affine.scale"][:, None, None]
                   + w["fg.affine.shift"][:, None, None], 0.0)
    return conv2d(h, ConvSpec(1, mid, 1, 1, w["fg.conv2.weight"],
                              bias=w["fg.conv2.bias"], activation="sigmoid"))


def literal_motion(latest: np.ndarray, previous: np.ndarray, weights: dict) -> tuple:
    """The motion estimator as written, ``(dp, w)``: one 2C -> C encoder
    over each concatenated (frame, difference) pair, unprefixed weights."""
    w = weights
    c = latest.shape[0]
    mk = lambda cout, cin, name, act="none": ConvSpec(
        cout, cin, 3, 3, w[name + ".weight"], bias=w[name + ".bias"], padding=1,
        activation=act)
    enc, trunk = mk(c, 2 * c, "enc", "relu"), mk(c, 2 * c, "trunk", "relu")
    diff = latest - previous
    h = conv2d(np.concatenate([conv2d(np.concatenate([latest, diff]), enc),
                               conv2d(np.concatenate([previous, diff]), enc)]), trunk)
    return conv2d(h, mk(2, c, "dp")), conv2d(h, mk(1, c, "w", "sigmoid"))


@dataclass
class TemporalLossResult:
    loss: float
    grad: np.ndarray
    window_cosines: np.ndarray
    degenerate: list   # (r0, c0, side) triples where a zero norm was hit


def temporal_loss(pred: np.ndarray, target: np.ndarray, window: int,
                  counter: OpCounter | None = None) -> TemporalLossResult:
    """Mean squared cosine deviation over both window tilings.

    Every l x l window of both tilings contributes (1 - cos(pred_w,
    target_w))^2 with the window contents flattened across channels; the
    loss is the mean over all windows. The analytic gradient w.r.t. pred is
    returned alongside. A window with a zero-norm side scores cosine 0 and
    contributes no gradient; such windows are reported in ``degenerate``.
    The cosines are those of :func:`window_cosines`, the loss that of
    :func:`window_loss`.
    """
    pred = ensure_tensor3(pred, "prediction")
    target = ensure_tensor3(target, "target")
    cosines, pred_norms, target_norms = window_cosines(pred, target, window, counter)
    w1, w2 = window_partition(pred.shape[1], pred.shape[2], window)
    anchors = [(r, col, "full") for r, col in w1] + [(r, col, "offset") for r, col in w2]
    n = len(anchors)
    grad = np.zeros_like(pred)
    degenerate = []
    l = window
    for k, (r0, c0, side) in enumerate(anchors):
        np_ = float(pred_norms[k])
        ng = float(target_norms[k])
        if np_ == 0.0 or ng == 0.0:
            # cosine 0 adds a constant (1 - 0)^2: no gradient
            degenerate.append((int(r0), int(c0), side))
            continue
        cos = float(cosines[k])
        dev = 1.0 - cos
        p = pred[:, r0:r0 + l, c0:c0 + l]
        g = target[:, r0:r0 + l, c0:c0 + l]
        dcos = g / (np_ * ng) - (cos / (np_ * np_)) * p
        grad[:, r0:r0 + l, c0:c0 + l] += -2.0 * dev * dcos
    return TemporalLossResult(loss=window_loss(cosines), grad=grad / n,
                              window_cosines=cosines, degenerate=degenerate)
