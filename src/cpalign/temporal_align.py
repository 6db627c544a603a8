"""Progressive two-stage temporal alignment of delayed collaborator features.

A collaborator shares features captured at t - tau together with the frame
one interval before, t - tau - dt. Stage 1 advances the older frame by
exactly one interval of a per-cell motion field between the two frames.
Stage 2 advances the result by a second field, between it and the latest
frame, times a temporal scaling factor xi (ideally tau / dt, predicted from
the two fields and an embedding of the measured delay), landing the
features on the ego's current timestamp. Each stage takes the field it
warps by; :func:`estimate_motion` is the learned source of one.

Warping is destination-indexed: out(y) = w(y) * F(y - xi * dp(y)) with
bilinear interpolation and zero reads outside the grid, so integer
displacements transport values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .numerics import (
    ConvSpec,
    MlpSpec,
    ShapeError,
    conv2d,
    ensure_tensor3,
    he_normal,
    mlp_forward,
    relu,
    require_weights,
    sigmoid,
)
from .opcount import OpCounter, window_grid_counts

XI_EMBED_DIM = 16
XI_EMBED_BASE = 1.0e4
XI_TRUNK_CHANNELS = 16


@dataclass
class MotionField:
    """Per-cell displacement (cells per frame interval) and sampling confidence."""

    dp: np.ndarray   # (2, H, W): channel 0 shifts columns (x), 1 shifts rows (y)
    w: np.ndarray    # (1, H, W) in (0, 1)

    def __post_init__(self):
        self.dp = ensure_tensor3(self.dp, "motion displacement")
        self.w = ensure_tensor3(self.w, "sampling confidence")
        if self.dp.shape[0] != 2:
            raise ShapeError(f"displacement needs 2 channels, got {self.dp.shape[0]}")
        if self.w.shape != (1,) + self.dp.shape[1:]:
            raise ShapeError(
                f"confidence shape {self.w.shape} does not match displacement "
                f"{self.dp.shape}"
            )
        if not np.all(np.isfinite(self.dp)):
            raise ShapeError("displacement contains non-finite values")
        if np.any(self.w <= 0.0) or np.any(self.w >= 1.0):
            raise ShapeError("sampling confidence must lie strictly in (0, 1)")


@dataclass
class MotionEstimatorSpec:
    """Shared encoder over (frame, frame difference) pairs plus two heads.

    The encoder ``enc([x, diff]) = W_a x + W_b diff + b`` is held split by
    input block, so the difference term both frames share is computed once;
    the dp and w heads are held as one C -> 3 conv.
    """

    enc_frame: ConvSpec   # W_a: C -> C, no bias
    enc_diff: ConvSpec    # W_b: C -> C, carries the encoder bias
    trunk: ConvSpec
    heads: ConvSpec       # channels 0-1: dp, channel 2: w before its sigmoid

    NAMES = ("enc.weight", "enc.bias", "trunk.weight", "trunk.bias",
             "dp.weight", "dp.bias", "w.weight", "w.bias")

    @property
    def channels(self) -> int:
        return self.enc_frame.in_channels

    @classmethod
    def from_weights(cls, weights: dict, prefix: str) -> "MotionEstimatorSpec":
        """Build from the weights named ``prefix`` + :attr:`NAMES`."""
        ew, eb, tw, tb, dw, db, ww, wb = require_weights(
            weights, [prefix + n for n in cls.NAMES],
            f"motion estimator weights {prefix!r}")
        if ew.size % 18:
            raise ShapeError(f"{prefix}enc.weight size {ew.size} is not a 2C->C 3x3 stack")
        c = int(round(math.sqrt(ew.size / 18.0)))
        if 2 * c * c * 9 != ew.size:
            raise ShapeError(f"{prefix}enc.weight size {ew.size} is not a 2C->C 3x3 stack")
        ew = ew.reshape(c, 2 * c, 3, 3)
        mk = lambda cout, cin, w, b=None: ConvSpec(cout, cin, 3, 3, w, bias=b, padding=1)
        return cls(
            enc_frame=mk(c, c, np.ascontiguousarray(ew[:, :c])),
            enc_diff=mk(c, c, np.ascontiguousarray(ew[:, c:]), eb),
            trunk=ConvSpec(c, 2 * c, 3, 3, tw, bias=tb, padding=1, activation="relu"),
            heads=mk(3, c, np.concatenate([dw.reshape(2, c, 3, 3), ww.reshape(1, c, 3, 3)]),
                     np.concatenate([db.ravel(), wb.ravel()])),
        )


def default_motion_weights(channels: int, seed: int = 0, prefix: str = "") -> dict:
    """He-seeded encoder/trunk; zero heads.

    Zero heads make the untrained estimator the identity transport: dp is
    exactly zero and the confidence sits at sigmoid(4).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x_707, channels]))
    c = channels
    return {
        prefix + "enc.weight": he_normal(rng, c, 2 * c, 3, 3),
        prefix + "enc.bias": np.zeros(c),
        prefix + "trunk.weight": he_normal(rng, c, 2 * c, 3, 3),
        prefix + "trunk.bias": np.zeros(c),
        prefix + "dp.weight": np.zeros((2, c, 3, 3)),
        prefix + "dp.bias": np.zeros(2),
        prefix + "w.weight": np.zeros((1, c, 3, 3)),
        prefix + "w.bias": np.full(1, 4.0),
    }


def estimate_motion(latest: np.ndarray, previous: np.ndarray,
                    spec: MotionEstimatorSpec) -> MotionField:
    """Motion between two same-scale frames, newest first.

    Both frames are paired with their difference, run through a shared
    encoder, concatenated, and decoded into a displacement field (cells per
    frame interval) and a sampling confidence map. The encoder's
    difference term is the same for both frames and is computed once.
    """
    latest = ensure_tensor3(latest, "latest frame")
    previous = ensure_tensor3(previous, "previous frame")
    if latest.shape != previous.shape:
        raise ShapeError(
            f"frame shapes differ: {latest.shape} vs {previous.shape}"
        )
    if latest.shape[0] != spec.channels:
        raise ShapeError(
            f"motion estimator built for {spec.channels} channels, got "
            f"{latest.shape[0]}"
        )
    c = latest.shape[0]
    shared = conv2d(latest - previous, spec.enc_diff)
    enc = np.empty((2 * c,) + latest.shape[1:])
    for half, frame in zip((enc[:c], enc[c:]), (latest, previous)):
        np.add(conv2d(frame, spec.enc_frame), shared, out=half)
    np.maximum(enc, 0.0, out=enc)
    out = conv2d(conv2d(enc, spec.trunk), spec.heads)
    return MotionField(out[:2], sigmoid(out[2:]))


def warp_features(features: np.ndarray, dp: np.ndarray, xi: float,
                  w_samp: np.ndarray | None = None) -> np.ndarray:
    """Backward-warp features by xi times a per-destination displacement.

    out(y, x) = w_samp(y, x) * F(y - xi * dp_y, x - xi * dp_x), bilinear,
    zero outside the grid. xi = 0 (or dp = 0) with unit confidence returns
    the input bit for bit.
    """
    features = ensure_tensor3(features, "warp input")
    dp = ensure_tensor3(dp, "displacement")
    if dp.shape != (2,) + features.shape[1:]:
        raise ShapeError(
            f"displacement shape {dp.shape} does not match features "
            f"{features.shape}"
        )
    if not math.isfinite(xi) or xi < 0:
        raise ShapeError(f"temporal scale must be finite and >= 0, got {xi}")
    h, w = features.shape[1:]
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    sx = xx - xi * dp[0]
    sy = yy - xi * dp[1]
    out = kernels.bilinear_gather(features, sx, sy)
    if w_samp is not None:
        w_samp = ensure_tensor3(w_samp, "sampling confidence")
        if w_samp.shape != (1, h, w):
            raise ShapeError(
                f"sampling confidence shape {w_samp.shape} must be (1, {h}, {w})"
            )
        out = out * w_samp
    return out


# ---------------------------------------------------------------------------
# temporal scaling factor
# ---------------------------------------------------------------------------

XI_WEIGHT_NAMES = (
    "xi.conv0.weight", "xi.conv0.bias",
    "xi.res1a.weight", "xi.res1a.bias",
    "xi.res1b.weight", "xi.res1b.bias",
    "xi.res2a.weight", "xi.res2a.bias",
    "xi.res2b.weight", "xi.res2b.bias",
    "xi.mlp0.weight", "xi.mlp0.bias",
    "xi.mlp1.weight", "xi.mlp1.bias",
)


@dataclass
class XiPredictorSpec:
    conv0: ConvSpec
    res: list = field(default_factory=list)   # pairs of ConvSpecs
    mlp: MlpSpec | None = None

    @classmethod
    def from_weights(cls, weights: dict, prefix: str = "ptam.") -> "XiPredictorSpec":
        names = [prefix + n for n in XI_WEIGHT_NAMES]
        (c0w, c0b, r1aw, r1ab, r1bw, r1bb, r2aw, r2ab, r2bw, r2bb,
         m0w, m0b, m1w, m1b) = require_weights(
            weights, names, f"temporal scale predictor weights {prefix!r}")
        d = XI_TRUNK_CHANNELS
        mk = lambda w, b, cin, act: ConvSpec(d, cin, 3, 3, w, bias=b, padding=1,
                                             activation=act)
        return cls(
            conv0=mk(c0w, c0b, 2, "relu"),
            res=[(mk(r1aw, r1ab, d, "relu"), mk(r1bw, r1bb, d, "none")),
                 (mk(r2aw, r2ab, d, "relu"), mk(r2bw, r2bb, d, "none"))],
            mlp=MlpSpec(weights=[m0w.reshape(2 * d, 2 * d), m1w.reshape(1, 2 * d)],
                        biases=[m0b, m1b]),
        )


def default_xi_weights(seed: int = 0, prefix: str = "") -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x_C5]))
    d = XI_TRUNK_CHANNELS
    out = {
        prefix + "xi.conv0.weight": he_normal(rng, d, 2, 3, 3),
        prefix + "xi.conv0.bias": np.zeros(d),
        prefix + "xi.mlp0.weight": rng.normal(0.0, math.sqrt(2.0 / (2 * d)),
                                              size=(2 * d, 2 * d)),
        prefix + "xi.mlp0.bias": np.zeros(2 * d),
        prefix + "xi.mlp1.weight": rng.normal(0.0, math.sqrt(2.0 / (2 * d)),
                                              size=(1, 2 * d)),
        prefix + "xi.mlp1.bias": np.zeros(1),
    }
    for blk in (1, 2):
        for part in ("a", "b"):
            out[prefix + f"xi.res{blk}{part}.weight"] = he_normal(rng, d, d, 3, 3)
            out[prefix + f"xi.res{blk}{part}.bias"] = np.zeros(d)
    return out


def delay_embedding(delay_frames: float, dim: int = XI_EMBED_DIM) -> np.ndarray:
    """Sinusoidal embedding of the delay measured in frame intervals."""
    if dim % 2:
        raise ShapeError(f"embedding dim must be even, got {dim}")
    i = np.arange(dim // 2)
    freq = XI_EMBED_BASE ** (2.0 * i / dim)
    emb = np.empty(dim)
    emb[0::2] = np.sin(delay_frames / freq)
    emb[1::2] = np.cos(delay_frames / freq)
    return emb


def predict_xi(stage1: MotionField, stage2: MotionField, delay_frames: float,
               spec: XiPredictorSpec | None = None) -> float:
    """Temporal scaling factor, >= 0 via a final relu.

    Without a spec this is oracle xi: the delay in frame intervals, exactly.
    With one, xi is learned: the confidence-weighted motion difference
    between the two stages is encoded, global-average-pooled, added to a
    sinusoidal embedding of the measured delay, and regressed by a small MLP.
    """
    if spec is None:
        return delay_frames
    if stage1.dp.shape != stage2.dp.shape:
        raise ShapeError(
            f"stage motion shapes differ: {stage1.dp.shape} vs {stage2.dp.shape}"
        )
    dm = stage2.dp * stage2.w - stage1.dp * stage1.w
    h = conv2d(dm, spec.conv0)
    for conv_a, conv_b in spec.res:
        h = relu(h + conv2d(conv2d(h, conv_a), conv_b))
    f_m = h.mean(axis=(1, 2))
    f_t = f_m + delay_embedding(delay_frames, f_m.size)
    out = mlp_forward(np.concatenate([f_m, f_t]), spec.mlp)
    return float(max(out[0], 0.0))


# ---------------------------------------------------------------------------
# two-stage alignment
# ---------------------------------------------------------------------------

def ptam_stage1(previous: np.ndarray, field: MotionField) -> np.ndarray:
    """Advance the older frame by one interval of ``field``."""
    return warp_features(previous, field.dp, 1.0, field.w)


def ptam_stage2(inter: np.ndarray, stage1_field: MotionField | None, field: MotionField,
                delay_frames: float, xi_spec: XiPredictorSpec | None = None,
                variant: str = "scaled") -> tuple[np.ndarray, float]:
    """Advance the stage-1 result across the remaining delay; returns
    ``(aligned, xi)``.

    variant "scaled" warps by xi times ``field``'s displacement; variant
    "literal" reuses the stage-1 displacement unscaled. Both sample with
    ``field``'s confidence. ``delay_frames`` is the delay in frame
    intervals; ``xi_spec`` predicts xi from it, and without one xi is oracle
    (:func:`predict_xi`). Only the literal variant and learned xi read
    ``stage1_field``; otherwise it may be None.
    """
    if variant not in ("scaled", "literal"):
        raise ShapeError(f"unknown stage-2 variant {variant!r}")
    if stage1_field is None and (variant == "literal" or xi_spec is not None):
        raise ShapeError("the literal variant and learned xi read the stage-1 field")
    if variant == "scaled":
        xi = predict_xi(stage1_field, field, delay_frames, xi_spec)
        return warp_features(inter, field.dp, xi, field.w), xi
    return warp_features(inter, stage1_field.dp, 1.0, field.w), 1.0


# ---------------------------------------------------------------------------
# dual-window cosine objective
# ---------------------------------------------------------------------------

#: Window side l of the dual-window cosine, fixed as in the paper.
WINDOW = 16


def window_partition(height: int, width: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchor coordinates (row, col) of the two window tilings.

    The full tiling starts at (0, 0); the offset tiling starts at
    (window // 2, window // 2). Counts follow floor(h/l) * floor(w/l) and
    floor((h-l)/l) * floor((w-l)/l); the full tiling must be non-empty.
    """
    n1_rows = height // window
    n1_cols = width // window
    window_grid_counts(height, width, window)  # validates geometry
    w1 = np.array([(r * window, c * window)
                   for r in range(n1_rows) for c in range(n1_cols)], dtype=np.int64)
    off = window // 2
    n2_rows = (height - window) // window
    n2_cols = (width - window) // window
    w2 = np.array([(off + r * window, off + c * window)
                   for r in range(n2_rows) for c in range(n2_cols)],
                  dtype=np.int64).reshape(-1, 2)
    return w1, w2


@dataclass
class TemporalLossResult:
    loss: float
    grad: np.ndarray
    window_cosines: np.ndarray
    degenerate: list   # (r0, c0, side) triples where a zero norm was hit


def _window_anchors(height: int, width: int, window: int) -> list:
    w1, w2 = window_partition(height, width, window)
    return [(r, col, "full") for r, col in w1] + [(r, col, "offset") for r, col in w2]


def window_cosines(pred: np.ndarray, target: np.ndarray, window: int,
                   counter: OpCounter | None = None) -> tuple:
    """Cosine between pred and target over every window of both tilings.

    Windows follow :func:`window_partition` order, the full tiling first,
    with their contents flattened across channels. Returns ``(cosines,
    pred_norms, target_norms)``; a window with a zero-norm side scores
    cosine 0.
    """
    pred = ensure_tensor3(pred, "prediction")
    target = ensure_tensor3(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    c, h, w = pred.shape
    anchors = _window_anchors(h, w, window)
    n = len(anchors)
    cosines = np.zeros(n)
    pred_norms = np.empty(n)
    target_norms = np.empty(n)
    l = window
    for k, (r0, c0, _) in enumerate(anchors):
        p = pred[:, r0:r0 + l, c0:c0 + l]
        g = target[:, r0:r0 + l, c0:c0 + l]
        dot = float(np.vdot(p, g))
        np_ = math.sqrt(float(np.vdot(p, p)))
        ng = math.sqrt(float(np.vdot(g, g)))
        if counter is not None:
            counter.charge_window(c, l * l)
        pred_norms[k] = np_
        target_norms[k] = ng
        if np_ != 0.0 and ng != 0.0:
            cosines[k] = dot / (np_ * ng)
    return cosines, pred_norms, target_norms


def temporal_loss(pred: np.ndarray, target: np.ndarray, window: int,
                  counter: OpCounter | None = None) -> TemporalLossResult:
    """Mean squared cosine deviation over both window tilings.

    Every l x l window of both tilings contributes (1 - cos(pred_w,
    target_w))^2 with the window contents flattened across channels; the
    loss is the mean over all windows. The analytic gradient w.r.t. pred is
    returned alongside. A window with a zero-norm side scores cosine 0 and
    contributes no gradient; such windows are reported in ``degenerate``.
    The cosines are those of :func:`window_cosines`.
    """
    pred = ensure_tensor3(pred, "prediction")
    target = ensure_tensor3(target, "target")
    cosines, pred_norms, target_norms = window_cosines(pred, target, window, counter)
    anchors = _window_anchors(pred.shape[1], pred.shape[2], window)
    n = len(anchors)
    grad = np.zeros_like(pred)
    degenerate = []
    total = 0.0
    l = window
    for k, (r0, c0, side) in enumerate(anchors):
        np_ = float(pred_norms[k])
        ng = float(target_norms[k])
        if np_ == 0.0 or ng == 0.0:
            total += 1.0  # (1 - 0)^2, constant: no gradient
            degenerate.append((int(r0), int(c0), side))
            continue
        cos = float(cosines[k])
        dev = 1.0 - cos
        total += dev * dev
        p = pred[:, r0:r0 + l, c0:c0 + l]
        g = target[:, r0:r0 + l, c0:c0 + l]
        dcos = g / (np_ * ng) - (cos / (np_ * np_)) * p
        grad[:, r0:r0 + l, c0:c0 + l] += -2.0 * dev * dcos
    return TemporalLossResult(loss=total / n, grad=grad / n,
                              window_cosines=cosines, degenerate=degenerate)
