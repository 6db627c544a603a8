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
from .featurizer import BevSpec
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


def foreground_estimate(features: np.ndarray, weights: dict | None = None,
                        seed: int = 0) -> np.ndarray:
    """Per-cell foreground confidence in (0, 1), shape (1, H, W).

    A 3x3 conv halves the channel count, a frozen per-channel affine stands
    in for batch normalization, relu, then a 1x1 conv and a sigmoid squash
    to one channel.
    """
    features = ensure_tensor3(features, "foreground input")
    c = features.shape[0]
    if weights is None:
        weights = default_foreground_weights(c, seed)
    w1, b1, scale, shift, w2, b2 = require_weights(
        weights, FOREGROUND_WEIGHT_NAMES, "foreground estimator weights")
    if w1.size % (c * 9):
        raise ShapeError(
            f"foreground conv1 weights of size {w1.size} do not fit input "
            f"with {c} channels"
        )
    mid = w1.size // (c * 9)
    h = conv2d(features, ConvSpec(mid, c, 3, 3, w1, bias=b1, padding=1))
    scale = np.asarray(scale, dtype=np.float64).ravel()
    shift = np.asarray(shift, dtype=np.float64).ravel()
    if scale.size != mid or shift.size != mid:
        raise ShapeError(
            f"affine params must have {mid} entries, got {scale.size}/{shift.size}"
        )
    h *= scale[:, None, None]
    h += shift[:, None, None]
    np.maximum(h, 0.0, out=h)
    return conv2d(h, ConvSpec(1, mid, 1, 1, w2, bias=b2, activation="sigmoid"))


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
                   ego: np.ndarray) -> np.ndarray:
    """Fill invalid cells of a projected grid from the ego grid.

    out = valid * projected + (1 - valid) * ego, evaluated as an exact
    selection so values pass through untouched. Idempotent when the mask is
    binary.
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
    return np.where(valid > 0.5, projected, ego)


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


def discriminator_forward(features: np.ndarray, weights: dict | None = None,
                          seed: int = 0) -> np.ndarray:
    """Per-cell domain logits (1, H, W): 1x1 conv to 256, relu, 1x1 to 1."""
    features = ensure_tensor3(features, "discriminator input")
    c = features.shape[0]
    if weights is None:
        weights = default_discriminator_weights(c, seed)
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
    gradient (the reversal layer is the identity on the forward pass).
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


def grad_reverse(x: np.ndarray) -> np.ndarray:
    """Forward pass of the gradient reversal layer: the identity."""
    return np.asarray(x)


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
