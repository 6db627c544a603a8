"""Domain alignment between ego and collaborator BEV features.

Collaborator features arrive in the collaborator's frame; they are
resampled onto the ego grid, the unobservable cells are filled from the
ego's own features, and a small discriminator is trained adversarially
(via a gradient reversal contract) with every cell's contribution weighted
by how ambiguous its foreground evidence is between the two agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import (
    ConvSpec,
    ShapeError,
    conv2d,
    ensure_tensor3,
    he_normal,
    require_weights,
    sigmoid,
    softplus,
)
from .featurizer import BEVPROJ_WEIGHT_NAMES, BevSpec, MultiScaleFeatures
from .pointcloud import normalize_angle

#: gradient reversal scale: feature-path gradient = GRL_GAMMA * logit gradient
GRL_GAMMA = -0.1


@dataclass
class Pose2:
    """Planar pose: translation plus heading, radians in (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        for v in (self.x, self.y, self.yaw):
            if not math.isfinite(v):
                raise ShapeError("pose components must be finite")
        self.yaw = normalize_angle(float(self.yaw))

    def to_world(self, xy: np.ndarray) -> np.ndarray:
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        xy = np.asarray(xy, dtype=np.float64)
        out = np.empty_like(xy)
        out[..., 0] = c * xy[..., 0] - s * xy[..., 1] + self.x
        out[..., 1] = s * xy[..., 0] + c * xy[..., 1] + self.y
        return out

    def to_local(self, xy: np.ndarray) -> np.ndarray:
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        xy = np.asarray(xy, dtype=np.float64)
        dx = xy[..., 0] - self.x
        dy = xy[..., 1] - self.y
        out = np.empty_like(xy)
        out[..., 0] = c * dx + s * dy
        out[..., 1] = -s * dx + c * dy
        return out


# ---------------------------------------------------------------------------
# foreground estimator
# ---------------------------------------------------------------------------

FOREGROUND_WEIGHT_NAMES = (
    "fg.conv1.weight", "fg.conv1.bias",
    "fg.affine.scale", "fg.affine.shift",
    "fg.conv2.weight", "fg.conv2.bias",
)


def default_foreground_weights(channels: int, seed: int = 0) -> dict:
    mid = max(channels // 2, 1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF6]))
    return {
        "fg.conv1.weight": he_normal(rng, mid, channels, 3, 3),
        "fg.conv1.bias": np.zeros(mid),
        "fg.affine.scale": np.ones(mid),
        "fg.affine.shift": np.zeros(mid),
        "fg.conv2.weight": he_normal(rng, 1, mid, 1, 1),
        "fg.conv2.bias": np.zeros(1),
    }


#: bev_project emits three blocks of this many channels: large, middle, small.
_PROJECTED_BLOCK = 128


def _phase_taps(phase: int, stride: int) -> list:
    """(low-res offset, sub-pixel) that each 3x3 tap row of an output phase reads.

    Output row ``stride * Y + phase`` with tap ``d`` reads canvas row
    ``stride * Y + phase + d - 1``, which a stride = kernel transposed conv
    filled from low-res row ``Y + offset`` through kernel row ``sub``.
    """
    return [divmod(phase + d - 1, stride) for d in range(3)]


def _fold_tiled(w1: np.ndarray, wt: np.ndarray) -> list:
    """A 3x3 pad-1 conv after a stride = kernel transposed conv, per output phase.

    ``w1`` (mid, cb, 3, 3) reads the canvas that ``wt`` (cin, cb, s, s)
    tiles from a low-res map. Output phase (py, px) reads only the low-res
    rows and columns its taps land in, so it is a small conv on the low-res
    map with composite weights sum W1[:, :, dy, dx] @ Wt[:, :, a, b]^T.
    Phases that read the same offsets form one group, stacked along output
    channels. Returns ``(r0, c0, phases, kernel)`` per group: kernel
    (len(phases) * mid, cin, rows, cols) reads low-res offsets from (r0, c0).
    """
    mid = w1.shape[0]
    cin, cb, s = wt.shape[:3]
    taps = [_phase_taps(p, s) for p in range(s)]
    by_span = {}
    for p, tp in enumerate(taps):
        offsets = [r for r, _ in tp]
        by_span.setdefault((min(offsets), max(offsets)), []).append(p)
    groups, slot = [], {}
    for (r0, r1), rows in by_span.items():
        for (c0, c1), cols in by_span.items():
            phases = [(py, px) for py in rows for px in cols]
            for i, ph in enumerate(phases):
                slot[ph] = (len(groups), i * mid)
            kernel = np.zeros((len(phases) * mid, cin, r1 - r0 + 1, c1 - c0 + 1))
            groups.append((r0, c0, phases, kernel))
    wt_flat = np.ascontiguousarray(wt.transpose(1, 0, 2, 3)).reshape(cb, cin * s * s)
    for dy in range(3):
        for dx in range(3):
            # one tap at a time keeps the transient at (mid, cin, s, s)
            comp = (w1[:, :, dy, dx] @ wt_flat).reshape(mid, cin, s, s)
            for py in range(s):
                ry, a = taps[py][dy]
                for px in range(s):
                    rx, b = taps[px][dx]
                    g, o = slot[(py, px)]
                    r0, c0, _, kernel = groups[g]
                    kernel[o:o + mid, :, ry - r0, rx - c0] += comp[:, :, a, b]
    return groups


@dataclass
class ForegroundHead:
    """The foreground estimator's weights in the form
    :func:`foreground_estimate` runs: fg.conv1 split by projected block,
    the two tiled blocks folded onto the low-res scales they tile."""

    large: np.ndarray     # (mid, 128, 3, 3): conv over the large block as is
    middle: list          # _fold_tiled groups over the middle scale
    small: list           # _fold_tiled groups over the small scale
    tap_bias: np.ndarray  # (mid, 3, 3): each tap applied to the tconv biases
    bias: np.ndarray      # (mid, 1, 1): fg.conv1.bias
    scale: np.ndarray     # (mid, 1, 1): the frozen affine
    shift: np.ndarray     # (mid, 1, 1)
    conv2: ConvSpec       # mid -> 1, 1x1, sigmoid

    @classmethod
    def from_weights(cls, weights: dict) -> "ForegroundHead":
        """Fold the fg.* weights with the bev projection's tconv weights; a
        tensor that does not fit 384 projected channels raises ShapeError."""
        w1, b1, scale, shift, w2, b2 = require_weights(
            weights, FOREGROUND_WEIGHT_NAMES, "foreground estimator weights")
        _, _, wm, bm, ws, bs = require_weights(
            weights, BEVPROJ_WEIGHT_NAMES, "bev projection weights")
        k = _PROJECTED_BLOCK
        c = 3 * k
        if w1.size % (c * 9):
            raise ShapeError(f"foreground conv1 weights of size {w1.size} do not "
                             f"fit input with {c} channels")
        mid = w1.size // (c * 9)
        for name, arr in zip(FOREGROUND_WEIGHT_NAMES[1:4], (b1, scale, shift)):
            if arr.size != mid:
                raise ShapeError(f"{name} has {arr.size} entries, needs {mid}")
        w1 = w1.reshape(mid, c, 3, 3)
        # the tconv geometry bev_project uses: middle 128 -> 128 and small
        # 256 -> 128 channels, stride = kernel = 2 and 4
        return cls(
            large=np.ascontiguousarray(w1[:, :k]),
            middle=_fold_tiled(w1[:, k:2 * k], wm.reshape(k, k, 2, 2)),
            small=_fold_tiled(w1[:, 2 * k:], ws.reshape(2 * k, k, 4, 4)),
            tap_bias=(np.einsum("ocyx,c->oyx", w1[:, k:2 * k], bm.ravel())
                      + np.einsum("ocyx,c->oyx", w1[:, 2 * k:], bs.ravel())),
            bias=b1.reshape(mid, 1, 1),
            scale=scale.reshape(mid, 1, 1),
            shift=shift.reshape(mid, 1, 1),
            conv2=ConvSpec(1, mid, 1, 1, w2, bias=b2, activation="sigmoid"),
        )


def _in_canvas(n: int) -> np.ndarray:
    """(3, n): 1 where tap d of a pad-1 3x3 conv at position i reads inside."""
    src = np.arange(n) + np.arange(3)[:, None] - 1
    return ((src >= 0) & (src < n)).astype(np.float64)


def _add_tiled(h: np.ndarray, low: np.ndarray, groups: list) -> None:
    """Add the folded block's conv output over the low-res map into h."""
    c, hl, wl = low.shape
    mid = h.shape[0]
    s = h.shape[1] // hl
    lpad = np.zeros((c, hl + 2, wl + 2))
    lpad[:, 1:hl + 1, 1:wl + 1] = low
    for r0, c0, phases, kernel in groups:
        rows, cols = kernel.shape[2:]
        window = lpad[:, 1 + r0:r0 + rows + hl, 1 + c0:c0 + cols + wl]
        out = kernels.conv2d_core(window, kernel, 1, 1)
        for i, (py, px) in enumerate(phases):
            h[:, py::s, px::s] += out[i * mid:(i + 1) * mid]


def foreground_estimate(projected: np.ndarray, scales: MultiScaleFeatures,
                        head: ForegroundHead) -> np.ndarray:
    """Per-cell foreground confidence in (0, 1), shape (1, H, W).

    A 3x3 conv halves the 384 projected channels, a frozen per-channel
    affine stands in for batch normalization, relu, then a 1x1 conv and a
    sigmoid squash to one channel, as ``ForegroundHead`` holds them.

    ``projected`` is ``bev_project(scales, weights)``. Its middle and small
    blocks are stride = kernel transposed convs of ``scales``, so the 3x3
    conv over them runs as per-phase convs on the low-res maps (see
    :func:`_fold_tiled`) and only ``projected[:128]`` is read. The tconv
    biases fill the canvas but not its zero padding, so they enter as a map
    that differs on the border rows and columns.
    """
    projected = ensure_tensor3(projected, "foreground input")
    k = _PROJECTED_BLOCK
    c, hh, ww = projected.shape
    if c != 3 * k:
        raise ShapeError(f"foreground input must have {3 * k} channels, got {c}")
    if scales.large.shape[1:] != (hh, ww):
        raise ShapeError(
            f"scales at {scales.large.shape[1:]} do not match the projected "
            f"grid ({hh}, {ww})"
        )
    xpad = np.zeros((k, hh + 2, ww + 2))
    xpad[:, 1:hh + 1, 1:ww + 1] = projected[:k]
    h = kernels.conv2d_core(xpad, head.large, 1, 1)
    _add_tiled(h, scales.middle, head.middle)
    _add_tiled(h, scales.small, head.small)
    bias = np.matmul(_in_canvas(hh).T, head.tap_bias @ _in_canvas(ww))
    bias += head.bias
    h += bias
    h *= head.scale
    h += head.shift
    np.maximum(h, 0.0, out=h)
    return conv2d(h, head.conv2)


# ---------------------------------------------------------------------------
# grid resampling between agent frames
# ---------------------------------------------------------------------------

def transform_to_ego(grid: np.ndarray, source_pose: Pose2, ego_pose: Pose2,
                     spec: BevSpec) -> tuple[np.ndarray, np.ndarray]:
    """Resample a source-frame BEV grid onto the ego grid.

    Inverse mapping: each ego cell center is sent through ego -> world ->
    source, then the source grid is sampled bilinearly. Returns the
    resampled grid and a float (1, H, W) validity mask that is 1 where the
    sample point lay inside the source grid support and 0 where the output
    was zero-filled.
    """
    grid = ensure_tensor3(grid, "source grid")
    h, w = spec.height, spec.width
    if grid.shape[1:] != (h, w):
        raise ShapeError(
            f"grid spatial dims {grid.shape[1:]} do not match spec ({h}, {w})"
        )
    cx, cy = spec.cell_centers()
    world = ego_pose.to_world(np.stack([cx, cy], axis=-1))
    local = source_pose.to_local(world)
    sx = (local[..., 0] - spec.origin_x) / spec.cell - 0.5
    sy = (local[..., 1] - spec.origin_y) / spec.cell - 0.5
    # snap sample coords that are within a nanocell of an exact grid node so
    # identity poses and lattice-aligned motions resample bitwise exactly
    for s in (sx, sy):
        nearest = np.round(s)
        close = np.abs(s - nearest) < 1e-9
        s[close] = nearest[close]
    valid = ((sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0))
    out = kernels.bilinear_gather(grid, sx, sy)
    out[:, ~valid] = 0.0
    return out, valid.astype(np.float64)[None]


def complete_voids(projected: np.ndarray, valid: np.ndarray,
                   ego: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fill invalid cells of a projected grid from the ego grid.

    out = valid * projected + (1 - valid) * ego, evaluated as an exact
    selection so values pass through untouched. Idempotent when the mask is
    binary. The result goes to ``out`` when given, which may be
    ``projected`` itself (a resample the caller owns), else to a new array.
    """
    projected = ensure_tensor3(projected, "projected grid")
    ego = ensure_tensor3(ego, "ego grid")
    valid = np.asarray(valid, dtype=np.float64)
    if valid.ndim == 2:
        valid = valid[None]
    if valid.shape != (1,) + projected.shape[1:]:
        raise ShapeError(
            f"valid mask shape {valid.shape} does not match grid {projected.shape}"
        )
    if projected.shape != ego.shape:
        raise ShapeError(
            f"projected {projected.shape} and ego {ego.shape} grids must match"
        )
    if not np.all((valid == 0.0) | (valid == 1.0)):
        raise ShapeError("valid mask must be binary")
    if out is None:
        return np.where(valid > 0.5, projected, ego)
    if out.shape != projected.shape:
        raise ShapeError(f"out {out.shape} does not match grid {projected.shape}")
    if out is not projected:
        np.copyto(out, projected)
    np.copyto(out, ego, where=valid < 0.5)
    return out


def observability_weighting(map_ego: np.ndarray, map_collab: np.ndarray) -> np.ndarray:
    """Per-cell ambiguity weight in (0, 0.5].

    The two foreground confidences are treated as a two-way softmax per
    cell and the smaller probability is kept, so cells where the agents
    agree score 0.5 and cells dominated by one agent score near 0.
    Equivalent closed form: sigmoid(-|a - b|).
    """
    a = ensure_tensor3(map_ego, "ego observability map")
    b = ensure_tensor3(map_collab, "collaborator observability map")
    if a.shape != b.shape or a.shape[0] != 1:
        raise ShapeError(
            f"observability maps must both be (1, H, W), got {a.shape} / {b.shape}"
        )
    return sigmoid(-np.abs(a - b))


# ---------------------------------------------------------------------------
# discriminator and the adversarial objective
# ---------------------------------------------------------------------------

DISCRIMINATOR_WEIGHT_NAMES = (
    "disc.conv1.weight", "disc.conv1.bias",
    "disc.conv2.weight", "disc.conv2.bias",
)


def default_discriminator_weights(channels: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD15C]))
    return {
        "disc.conv1.weight": he_normal(rng, 256, channels, 1, 1),
        "disc.conv1.bias": np.zeros(256),
        "disc.conv2.weight": he_normal(rng, 1, 256, 1, 1),
        "disc.conv2.bias": np.zeros(1),
    }


def discriminator_forward(features: np.ndarray, weights: dict) -> np.ndarray:
    """Per-cell domain logits (1, H, W): 1x1 conv to 256, relu, 1x1 to 1."""
    features = ensure_tensor3(features, "discriminator input")
    c = features.shape[0]
    w1, b1, w2, b2 = require_weights(
        weights, DISCRIMINATOR_WEIGHT_NAMES, "discriminator weights")
    h = conv2d(features, ConvSpec(256, c, 1, 1, w1, bias=b1, activation="relu"))
    return conv2d(h, ConvSpec(1, 256, 1, 1, w2, bias=b2))


def domain_loss_and_grads(logits: np.ndarray, label: float,
                          weight: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Observability-weighted binary cross entropy over cells.

    loss = sum(W * bce(sigmoid(logit), label)) / sum(W). Returns the loss,
    the gradient w.r.t. the logits, and the gradient handed to the feature
    path after reversal, which is exactly GRL_GAMMA times the logit
    gradient (reversal is the identity on the forward pass, so the
    features need no layer of their own).
    """
    logits = ensure_tensor3(logits, "domain logits")
    weight = ensure_tensor3(weight, "observability weight")
    if logits.shape[0] != 1 or logits.shape != weight.shape:
        raise ShapeError(
            f"logits {logits.shape} and weights {weight.shape} must both be (1, H, W)"
        )
    if label not in (0.0, 1.0):
        raise ShapeError(f"domain label must be 0 or 1, got {label}")
    if np.any(weight < 0.0):
        raise ShapeError("observability weights must be non-negative")
    wsum = float(weight.sum())
    if wsum <= 0.0:
        raise ShapeError("observability weights sum to zero; loss undefined")
    # bce(sigmoid(x), z) = softplus(x) - z * x, stable for large |x|
    bce = softplus(logits) - label * logits
    loss = float((weight * bce).sum() / wsum)
    dlogits = weight * (sigmoid(logits) - label) / wsum
    return loss, dlogits, GRL_GAMMA * dlogits


def save_pgm(grid: np.ndarray, path) -> None:
    """Write a (1, H, W) or (H, W) map in [0, 1] as a binary 8-bit PGM."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim == 3:
        if arr.shape[0] != 1:
            raise ShapeError(f"PGM export needs one channel, got {arr.shape}")
        arr = arr[0]
    if arr.ndim != 2:
        raise ShapeError(f"PGM export needs a 2-d map, got shape {arr.shape}")
    pix = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
