"""BEV featurization: pillar statistics, a three-scale backbone, and the
linear projection that folds all scales back onto the full-resolution grid.

Grid convention: channel-row-column tensors; row r spans y, column c spans
x. Cell (r, c) covers [origin + (c, r) * cell, origin + (c + 1, r + 1) * cell)
and its center sits at origin + (c + 0.5, r + 0.5) * cell. Points on the
upper boundary of the last cell fall outside the grid.
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
)
from .pointcloud import ensure_cloud

PILLAR_CHANNELS = 8


@dataclass
class BevSpec:
    """Geometry of the BEV grid, in metres."""

    x_extent: float
    y_extent: float
    cell: float = 0.4
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        if self.cell <= 0:
            raise ShapeError("cell size must be positive")
        for name, extent in (("x_extent", self.x_extent), ("y_extent", self.y_extent)):
            if extent <= 0:
                raise ShapeError(f"{name} must be positive")
            ratio = extent / self.cell
            if abs(ratio - round(ratio)) > 1e-6:
                raise ShapeError(
                    f"{name}={extent} is not an integer multiple of cell={self.cell}"
                )
        if self.width % 4 or self.height % 4:
            raise ShapeError(
                f"grid {self.height}x{self.width} must be divisible by 4 in "
                "both dims so the scale pyramid stays integral"
            )

    @classmethod
    def centered(cls, x_extent: float, y_extent: float, cell: float = 0.4) -> "BevSpec":
        return cls(x_extent, y_extent, cell,
                   origin_x=-x_extent / 2.0, origin_y=-y_extent / 2.0)

    @property
    def width(self) -> int:
        return int(round(self.x_extent / self.cell))

    @property
    def height(self) -> int:
        return int(round(self.y_extent / self.cell))

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(cx, cy) arrays of shape (H, W) with cell center coordinates."""
        xs = self.origin_x + (np.arange(self.width) + 0.5) * self.cell
        ys = self.origin_y + (np.arange(self.height) + 0.5) * self.cell
        cx, cy = np.meshgrid(xs, ys)
        return cx, cy

    def point_cells(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows and cols of the in-bounds planar points (N, 2), and the mask
        that picks them; a point so far out that it overflows is dropped."""
        with np.errstate(over="ignore"):  # inf fails the float bounds test
            cols = np.floor((xy[:, 0] - self.origin_x) / self.cell)
            rows = np.floor((xy[:, 1] - self.origin_y) / self.cell)
        ok = (cols >= 0) & (cols < self.width) & (rows >= 0) & (rows < self.height)
        return rows[ok].astype(np.int64), cols[ok].astype(np.int64), ok


def pillar_encode(cloud: np.ndarray, spec: BevSpec) -> np.ndarray:
    """Deterministic per-cell statistics, shape (8, H, W).

    Channels: occupancy, log1p(count), mean z, max z, min z, z spread,
    mean intensity, mean planar offset from the cell center. Empty cells
    are all-zero.
    """
    cloud = ensure_cloud(cloud)
    h, w = spec.height, spec.width
    out = np.zeros((PILLAR_CHANNELS, h, w))
    if cloud.shape[0] == 0:
        return out
    rows, cols, ok = spec.point_cells(cloud[:, :2])
    if not ok.any():
        return out
    pts = cloud[ok]
    ccx = spec.origin_x + (cols + 0.5) * spec.cell
    ccy = spec.origin_y + (rows + 0.5) * spec.cell
    off = np.hypot(pts[:, 0] - ccx, pts[:, 1] - ccy)
    count, zsum, zmax, zmin, isum, osum = kernels.pillar_stats(
        rows, cols, pts[:, 2], pts[:, 3], off, h, w)
    occ = count > 0
    out[0][occ] = 1.0
    out[1][occ] = np.log1p(count[occ])
    out[2][occ] = zsum[occ] / count[occ]
    out[3][occ] = zmax[occ]
    out[4][occ] = zmin[occ]
    out[5][occ] = zmax[occ] - zmin[occ]
    out[6][occ] = isum[occ] / count[occ]
    out[7][occ] = osum[occ] / count[occ]
    return out


@dataclass
class MultiScaleFeatures:
    """Backbone outputs: full, half and quarter resolution."""

    large: np.ndarray    # (64, H, W)
    middle: np.ndarray   # (128, H/2, W/2)
    small: np.ndarray    # (256, H/4, W/4)

    def __post_init__(self):
        self.large = ensure_tensor3(self.large, "large scale")
        self.middle = ensure_tensor3(self.middle, "middle scale")
        self.small = ensure_tensor3(self.small, "small scale")
        c0, h, w = self.large.shape
        if (c0, self.middle.shape[0], self.small.shape[0]) != (64, 128, 256):
            raise ShapeError(
                "scale channels must be (64, 128, 256), got "
                f"({c0}, {self.middle.shape[0]}, {self.small.shape[0]})"
            )
        if self.middle.shape[1:] != (h // 2, w // 2) or self.small.shape[1:] != (h // 4, w // 4):
            raise ShapeError("scales must halve spatial dims step by step")

    @property
    def scales(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.large, self.middle, self.small)


BACKBONE_WEIGHT_NAMES = (
    "backbone.conv1.weight", "backbone.conv1.bias",
    "backbone.conv2.weight", "backbone.conv2.bias",
    "backbone.conv3.weight", "backbone.conv3.bias",
)

BEVPROJ_WEIGHT_NAMES = (
    "bevproj.large.weight", "bevproj.large.bias",
    "bevproj.middle.weight", "bevproj.middle.bias",
    "bevproj.small.weight", "bevproj.small.bias",
)


def default_backbone_weights(seed: int = 0) -> dict:
    """Seeded He-normal weights, zero biases, for the three-stage backbone."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x_BACB]))
    return {
        "backbone.conv1.weight": he_normal(rng, 64, PILLAR_CHANNELS, 3, 3),
        "backbone.conv1.bias": np.zeros(64),
        "backbone.conv2.weight": he_normal(rng, 128, 64, 3, 3),
        "backbone.conv2.bias": np.zeros(128),
        "backbone.conv3.weight": he_normal(rng, 256, 128, 3, 3),
        "backbone.conv3.bias": np.zeros(256),
    }


def backbone_forward(pillars: np.ndarray, weights: dict) -> MultiScaleFeatures:
    """8-channel pillars -> (64, H, W), (128, H/2, W/2), (256, H/4, W/4).

    Three strided 3x3 conv + relu stages. ``weights`` must contain every
    ``backbone.*`` entry; absent names raise one error listing all of them.
    """
    pillars = ensure_tensor3(pillars, "pillars")
    if pillars.shape[0] != PILLAR_CHANNELS:
        raise ShapeError(
            f"pillars must have {PILLAR_CHANNELS} channels, got {pillars.shape[0]}"
        )
    if pillars.shape[1] % 4 or pillars.shape[2] % 4:
        raise ShapeError("pillar grid dims must be divisible by 4")
    w1, b1, w2, b2, w3, b3 = require_weights(
        weights, BACKBONE_WEIGHT_NAMES, "backbone weights")
    large = conv2d(pillars, ConvSpec(64, PILLAR_CHANNELS, 3, 3, w1, bias=b1,
                                     padding=1, activation="relu"))
    middle = conv2d(large, ConvSpec(128, 64, 3, 3, w2, bias=b2, stride=2,
                                    padding=1, activation="relu"))
    small = conv2d(middle, ConvSpec(256, 128, 3, 3, w3, bias=b3, stride=2,
                                    padding=1, activation="relu"))
    return MultiScaleFeatures(large, middle, small)


def default_bevproj_weights(seed: int = 0) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x_BE7]))
    return {
        "bevproj.large.weight": he_normal(rng, 64, 128, 3, 3),
        "bevproj.large.bias": np.zeros(128),
        "bevproj.middle.weight": he_normal(rng, 128, 128, 2, 2),
        "bevproj.middle.bias": np.zeros(128),
        "bevproj.small.weight": he_normal(rng, 256, 128, 4, 4),
        "bevproj.small.bias": np.zeros(128),
    }


def _upsample_tiled(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Transposed conv by ``w`` (C, out, k, k) at stride k, plus bias: the
    taps never overlap, so one GEMM fills every cell's k x k tile and a
    transpose moves the tiles into place."""
    _, hl, wl = x.shape
    out_c, k = w.shape[1:3]
    if bias.size != out_c:
        raise ShapeError(f"upsampling bias has {bias.size} entries, expected {out_c}")
    m = np.tensordot(w, x, axes=([0], [0]))     # (out, k, k, hl, wl)
    out = np.ascontiguousarray(m.transpose(0, 3, 1, 4, 2)).reshape(out_c, hl * k, wl * k)
    out += bias.reshape(out_c, 1, 1)
    return out


def bev_project(features: MultiScaleFeatures, weights: dict) -> np.ndarray:
    """Upsample every scale to 128 channels at full resolution and concat.

    Purely linear (transposed convs, no activation), so the output is 384 =
    3 x 128 channels ordered large, middle, small. Strides 1/2/4 with
    kernels 3/2/4 and padding 1/0/0 reproduce the full grid exactly.
    """
    wl, bl, wm, bm, ws, bs = require_weights(
        weights, BEVPROJ_WEIGHT_NAMES, "bev projection weights")
    h, w = features.large.shape[1:]
    # ConvSpec checks each kernel's size against the strided conv it undoes.
    # The stride-1 pad-1 transposed conv is the pad-2 conv with the flipped,
    # in/out-swapped kernel, less its rim. It runs before out exists, and
    # each block goes into its slice at once, so no two are live together
    wl = ConvSpec(64, 128, 3, 3, wl).weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    large = conv2d(features.large, ConvSpec(128, 64, 3, 3, wl, bias=bl, padding=2))
    out = np.empty((3 * 128, h, w))
    out[:128] = large[:, 1:h + 1, 1:w + 1]
    del large
    out[128:256] = _upsample_tiled(
        features.middle, ConvSpec(128, 128, 2, 2, wm).weights, bm)
    out[256:] = _upsample_tiled(
        features.small, ConvSpec(256, 128, 4, 4, ws).weights, bs)
    return out


def box_footprint_mask(boxes: list, origin_x: float, origin_y: float, cell: float,
                       height: int, width: int, pad_cells: int = 0) -> np.ndarray:
    """Bool (height, width): cells whose center lies in any closed box
    footprint, each box grown by ``pad_cells`` cells on every side.

    The grid is given explicitly, so any scale of the pyramid can be
    rasterised, not only a :class:`BevSpec`.
    """
    mask = np.zeros((height, width), dtype=bool)
    if not boxes:
        return mask
    xs = origin_x + (np.arange(width) + 0.5) * cell
    ys = origin_y + (np.arange(height) + 0.5) * cell
    cx, cy = np.meshgrid(xs, ys)
    pts = np.stack([cx.ravel(), cy.ravel()], axis=1)
    for box in boxes:
        d = pts - np.array([box.cx, box.cy])
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        lx = c * d[:, 0] + s * d[:, 1]
        ly = -s * d[:, 0] + c * d[:, 1]
        inside = ((np.abs(lx) <= (box.length + 2.0 * pad_cells * cell) / 2.0)
                  & (np.abs(ly) <= (box.width + 2.0 * pad_cells * cell) / 2.0))
        mask |= inside.reshape(height, width)
    return mask
