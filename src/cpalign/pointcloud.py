"""Point clouds, oriented boxes, and proximal hierarchical downsampling.

A point cloud is a float64 array of shape (N, 4): x, y, z, intensity.
The downsampling pass thins points inside selected near-range boxes while
leaving everything else untouched: each kept box is split into a concentric
inner box (dims scaled by alpha) and the remaining outer shell, and each
region is reduced by farthest point sampling with its own keep ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .numerics import ShapeError


def ensure_cloud(points: np.ndarray, name: str = "point cloud") -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ShapeError(f"{name} must have shape (N, 4), got {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise ShapeError(f"{name} contains non-finite values")
    return np.ascontiguousarray(pts)


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.remainder(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass
class OrientedBox:
    """Axis box in the ground plane: center, dims, yaw about +z.

    length runs along the box's local x axis (the yaw direction), width
    along local y, height along z. Membership tests are closed: boundary
    points count as inside.
    """

    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    yaw: float = 0.0

    def __post_init__(self):
        if min(self.length, self.width, self.height) <= 0:
            raise ShapeError(
                f"box dims must be positive: ({self.length}, {self.width}, {self.height})"
            )
        self.yaw = normalize_angle(float(self.yaw))

    def scaled(self, factor: float) -> "OrientedBox":
        if factor <= 0:
            raise ShapeError(f"scale factor must be positive, got {factor}")
        return OrientedBox(self.cx, self.cy, self.cz, self.length * factor,
                           self.width * factor, self.height * factor, self.yaw)

    def to_local(self, xyz: np.ndarray) -> np.ndarray:
        """World points (N, 3) -> box frame."""
        xyz = np.asarray(xyz, dtype=np.float64)
        d = xyz - np.array([self.cx, self.cy, self.cz])
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        local = d.copy()
        local[:, 0] = c * d[:, 0] + s * d[:, 1]
        local[:, 1] = -s * d[:, 0] + c * d[:, 1]
        return local

    def contains(self, xyz: np.ndarray) -> np.ndarray:
        """Closed membership mask for world points (N, 3)."""
        local = self.to_local(xyz)
        return ((np.abs(local[:, 0]) <= self.length / 2.0)
                & (np.abs(local[:, 1]) <= self.width / 2.0)
                & (np.abs(local[:, 2]) <= self.height / 2.0))

    def corners_bev(self) -> np.ndarray:
        """Footprint corners (4, 2) in world coordinates, counter-clockwise."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        hx, hy = self.length / 2.0, self.width / 2.0
        local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.cx, self.cy])


#: Proximal hierarchical downsampling, fixed as in the paper: at most
#: PHD_MAX_BOXES boxes within PHD_DISTANCE planar metres of the agent, each
#: split at the alpha = PHD_INNER_SCALE concentric box, its inner box and
#: outer shell kept at these FPS ratios.
PHD_DISTANCE = 50.0
PHD_MAX_BOXES = 2
PHD_INNER_SCALE = 0.5
PHD_INNER_KEEP = 0.6
PHD_OUTER_KEEP = 0.8


def select_proximal(boxes: list, agent_xy, seed: int) -> list:
    """Indices of boxes within PHD_DISTANCE, at most PHD_MAX_BOXES of them,
    chosen uniformly without replacement (seeded by ``seed``) when more
    qualify. Always returned in ascending index order."""
    ax, ay = float(agent_xy[0]), float(agent_xy[1])
    near = [i for i, b in enumerate(boxes)
            if math.hypot(b.cx - ax, b.cy - ay) <= PHD_DISTANCE]
    if len(near) <= PHD_MAX_BOXES:
        return near
    chosen = np.random.default_rng(seed).choice(len(near), size=PHD_MAX_BOXES,
                                                replace=False)
    return sorted(near[int(i)] for i in chosen)


def partition_regions(cloud: np.ndarray, box: OrientedBox,
                      inner_scale: float) -> tuple:
    """Split a box's points into (inner_idx, outer_idx), both ascending.

    inner is the alpha-scaled concentric box; outer is the shell between it
    and the full box. Both tests are closed, and inner wins the shared
    boundary, so the two index sets never overlap.
    """
    cloud = ensure_cloud(cloud)
    if cloud.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    full = box.contains(cloud[:, :3])
    inner = box.scaled(inner_scale).contains(cloud[:, :3])
    inner_idx = np.nonzero(full & inner)[0]
    outer_idx = np.nonzero(full & ~inner)[0]
    return inner_idx.astype(np.int64), outer_idx.astype(np.int64)


def fps(points: np.ndarray, ratio: float) -> np.ndarray:
    """Farthest point sampling on xyz; keeps ceil(ratio * N) points.

    Returns indices into ``points`` in ascending order, so slicing with
    them preserves the original point order. Greedy max-min selection,
    seeded at the point farthest from the centroid, lowest index on ties.
    """
    pts = ensure_cloud(points, "fps input")
    if not 0.0 < ratio <= 1.0:
        raise ShapeError(f"fps ratio must lie in (0, 1], got {ratio}")
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    k = int(math.ceil(ratio * n))
    picks = kernels.fps_order(pts[:, :3], k)
    return np.sort(picks)


def phd_apply(cloud: np.ndarray, boxes: list, agent_xy, seed: int) -> np.ndarray:
    """Proximal hierarchical downsampling of one cloud.

    Thins the points of the near-range boxes :func:`select_proximal` picks
    under ``seed`` (inner and outer regions FPS-reduced with their own
    ratios) and passes every other point through untouched, preserving the
    original ordering. A point that falls inside several selected boxes is
    owned by the first selected box that contains it.
    """
    cloud = ensure_cloud(cloud)
    n = cloud.shape[0]
    if n == 0 or not boxes:
        return cloud.copy()
    selected = select_proximal(boxes, agent_xy, seed)
    keep = np.ones(n, dtype=bool)
    owner = np.full(n, -1, dtype=np.int64)
    for bi in selected:
        mask = boxes[bi].contains(cloud[:, :3]) & (owner < 0)
        owner[mask] = bi
    for bi in selected:
        owned = np.nonzero(owner == bi)[0]
        if owned.size == 0:
            continue
        sub = cloud[owned]
        inner_local, outer_local = partition_regions(sub, boxes[bi], PHD_INNER_SCALE)
        keep[owned] = False
        for local_idx, ratio in ((inner_local, PHD_INNER_KEEP),
                                 (outer_local, PHD_OUTER_KEEP)):
            if local_idx.size:
                kept_local = local_idx[fps(sub[local_idx], ratio)]
                keep[owned[kept_local]] = True
    return cloud[keep]
