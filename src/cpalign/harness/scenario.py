"""Scenario definition and deterministic point cloud rendering.

A scenario is a handful of agents (static or constant-velocity sensor
platforms) plus rigid object tracks moving on a fixed frame grid.  Rendering
draws a frozen set of body-frame surface points per (agent, object) pair so
that two renders of the same scene at different times differ by exactly the
rigid motion of the tracks, which is what the temporal alignment checks rely
on.
"""

import json
import math
import numbers

import numpy as np
from dataclasses import dataclass, asdict

from ..domain_align import Pose2
from ..featurizer import BevSpec, box_footprint_mask
from ..numerics import ShapeError, finite_number
from ..pointcloud import OrientedBox, normalize_angle
from ..temporal_align import MotionField

_RENDER_TAG = 0x5E0D
_GROUND_TAG = 0x6E0D
_FRAME_TOL = 1e-6


@dataclass
class ObjectTrack:
    """Rigid box trajectory: pose at t=0 plus planar velocity and yaw rate."""

    box: OrientedBox
    vx: float = 0.0
    vy: float = 0.0
    yaw_rate: float = 0.0


@dataclass
class AgentSpec:
    agent_id: str
    pose: Pose2
    vx: float = 0.0
    vy: float = 0.0


@dataclass
class Scenario:
    agents: list
    objects: list
    duration: float = 1.2
    frame_interval: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not self.agents:
            raise ShapeError("scenario needs at least one agent")
        if not (finite_number(self.frame_interval) and self.frame_interval > 0.0):
            raise ShapeError(
                f"frame_interval must be positive and finite, got {self.frame_interval!r}")
        if not (finite_number(self.duration) and self.duration >= 0.0):
            raise ShapeError(f"duration must be non-negative and finite, got {self.duration!r}")
        if not (finite_number(self.seed, numbers.Integral) and self.seed >= 0):
            raise ShapeError(f"seed must be a non-negative integer, got {self.seed!r}")
        ids = [a.agent_id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ShapeError("agent ids must be unique")
        # a track that overflows stays non-finite: the last frame finds every
        # one, and only then are the frames scanned for the first
        if self._overflowed(self.n_frames - 1):
            k = next(k for k in range(self.n_frames) if self._overflowed(k))
            raise ShapeError(f"{self._overflowed(k)} pose is not finite at frame {k} "
                             f"(t = {k * self.frame_interval:g} s)")

    def _overflowed(self, k: int) -> str | None:
        """Key path of the first agent or object whose pose at frame k is not
        finite, or None."""
        t = k * self.frame_interval
        for i, agent in enumerate(self.agents):
            try:
                agent_pose_at(self, agent, t)
            except ShapeError:  # Pose2 refuses a non-finite component
                return f"agents[{i}]"
        for i, track in enumerate(self.objects):
            try:
                box = object_box_at(self, track, t)
            except ValueError:  # normalize_angle refuses a yaw that overflowed
                return f"objects[{i}]"
            if not (math.isfinite(box.cx) and math.isfinite(box.cy)):
                return f"objects[{i}]"
        return None

    @property
    def n_frames(self):
        return int(round(self.duration / self.frame_interval)) + 1

    def frame_index(self, t: float) -> int:
        """Map a timestamp onto the frame grid; off-grid times are an error."""
        if not math.isfinite(t):
            raise ShapeError(f"time {t} is not finite")
        k = t / self.frame_interval
        ki = int(round(k))
        if abs(k - ki) > _FRAME_TOL:
            raise ShapeError(f"time {t} is not on the {self.frame_interval}s frame grid")
        if ki < 0 or ki >= self.n_frames:
            raise ShapeError(f"time {t} outside scenario duration {self.duration}")
        return ki

    def agent(self, agent_id: str) -> AgentSpec:
        for a in self.agents:
            if a.agent_id == agent_id:
                return a
        raise KeyError(f"unknown agent id {agent_id!r}")

    def agent_index(self, agent_id: str) -> int:
        for i, a in enumerate(self.agents):
            if a.agent_id == agent_id:
                return i
        raise KeyError(f"unknown agent id {agent_id!r}")


def agent_pose_at(scenario: Scenario, agent: AgentSpec, t: float) -> Pose2:
    k = scenario.frame_index(t)
    dt = k * scenario.frame_interval
    return Pose2(agent.pose.x + agent.vx * dt, agent.pose.y + agent.vy * dt,
                 agent.pose.yaw)


def object_box_at(scenario: Scenario, track: ObjectTrack, t: float) -> OrientedBox:
    """Box pose after k frame steps.

    Straight tracks use the closed form so equal time deltas give bitwise
    equal displacements; turning tracks integrate per frame with the velocity
    vector rotating alongside the heading.
    """
    k = scenario.frame_index(t)
    dt = scenario.frame_interval
    b = track.box
    if track.yaw_rate == 0.0:
        return OrientedBox(b.cx + track.vx * (k * dt), b.cy + track.vy * (k * dt),
                           b.cz, b.length, b.width, b.height, b.yaw)
    cx, cy, yaw = b.cx, b.cy, b.yaw
    vx, vy = track.vx, track.vy
    for _ in range(k):
        cx += vx * dt
        cy += vy * dt
        step = track.yaw_rate * dt
        c, s = math.cos(step), math.sin(step)
        vx, vy = c * vx - s * vy, s * vx + c * vy
        yaw = normalize_angle(yaw + step)
    return OrientedBox(cx, cy, b.cz, b.length, b.width, b.height, yaw)


def scenario_boxes_at(scenario: Scenario, t: float) -> list:
    return [object_box_at(scenario, tr, t) for tr in scenario.objects]


#: Renderer settings that no run varies: the fewest points an object gets,
#: the share of an object's points drawn inside its box rather than on its
#: shell, and the ground plane's point count, square side (m) and height
#: noise (m).
MIN_POINTS = 8
INTERIOR_FRACTION = 0.2
GROUND_POINTS = 400
GROUND_EXTENT = 20.0
GROUND_Z_SIGMA = 0.02


@dataclass
class RenderConfig:
    """Point budget of the renderer, and whether it draws the ground."""

    density: float = 6000.0      # points = density / distance^2, then clipped
    max_points: int = 500
    include_ground: bool = True

    def __post_init__(self):
        def need(ok, name, want):
            if not ok:
                raise ShapeError(f"{name} must be {want}, got {getattr(self, name)!r}")

        need(finite_number(self.max_points, numbers.Integral)
             and self.max_points >= MIN_POINTS,
             "max_points", f"an integer of at least {MIN_POINTS}")
        need(finite_number(self.density) and self.density > 0.0,
             "density", "positive and finite")
        need(isinstance(self.include_ground, bool), "include_ground", "true or false")


def _object_local_points(rng, box: OrientedBox, n: int, inside: float):
    """Sample body-frame points on the box shell plus a sprinkle inside."""
    n_in = int(round(n * inside))
    n_surf = n - n_in
    hl, hw, hh = box.length / 2.0, box.width / 2.0, box.height / 2.0
    # faces: +x, -x, +y, -y, top; weighted by area
    areas = np.array([
        box.width * box.height, box.width * box.height,
        box.length * box.height, box.length * box.height,
        box.length * box.width,
    ])
    face = rng.choice(5, size=n_surf, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=n_surf)
    v = rng.uniform(-1.0, 1.0, size=n_surf)
    # +-x faces pin x and spread (u, v) over (y, z); +-y faces pin y and
    # spread them over (x, z); the top pins z and spreads them over (x, y)
    pts = np.empty((n_surf, 3))
    pts[:, 0] = np.where(face == 0, hl, np.where(face == 1, -hl, u * hl))
    pts[:, 1] = np.where(face <= 1, u * hw,
                         np.where(face == 2, hw, np.where(face == 3, -hw, v * hw)))
    pts[:, 2] = np.where(face == 4, hh, v * hh)
    if n_in > 0:
        inner = rng.uniform(-1.0, 1.0, size=(n_in, 3)) * np.array([hl, hw, hh])
        pts = np.concatenate([pts, inner], axis=0)
    inten = rng.uniform(0.3, 1.0, size=(pts.shape[0], 1))
    return np.concatenate([pts, inten], axis=1)


def _frozen_object_samples(scenario: Scenario, agent_idx: int, cfg: RenderConfig):
    """Per-object body-frame samples, frozen at t=0 geometry.

    The point count depends only on the distance at t=0 so later frames reuse
    the exact same body-frame points and renders differ by a rigid transform.
    """
    agent = scenario.agents[agent_idx]
    samples = []
    for oi, track in enumerate(scenario.objects):
        b0 = track.box
        d = math.hypot(b0.cx - agent.pose.x, b0.cy - agent.pose.y)
        d = max(d, 1.0)
        n = int(np.clip(round(cfg.density / (d * d)), MIN_POINTS, cfg.max_points))
        rng = np.random.default_rng(
            np.random.SeedSequence([scenario.seed, _RENDER_TAG, agent_idx, oi]))
        samples.append(_object_local_points(rng, b0, n, INTERIOR_FRACTION))
    return samples


def _ground_plane(scenario: Scenario, agent_idx: int):
    agent = scenario.agents[agent_idx]
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.seed, _GROUND_TAG, agent_idx]))
    half = GROUND_EXTENT / 2.0
    xy = rng.uniform(-half, half, size=(GROUND_POINTS, 2))
    xy += np.array([agent.pose.x, agent.pose.y])
    z = rng.normal(0.0, GROUND_Z_SIGMA, size=(GROUND_POINTS, 1))
    inten = rng.uniform(0.05, 0.25, size=(GROUND_POINTS, 1))
    return np.concatenate([xy, z, inten], axis=1)


def render_pointcloud(scenario: Scenario, agent_id: str, t: float,
                      cfg: RenderConfig = None) -> np.ndarray:
    """Render the scene into the agent frame at time t as (n, 4) xyzi."""
    if cfg is None:
        cfg = RenderConfig()
    agent_idx = scenario.agent_index(agent_id)
    agent = scenario.agents[agent_idx]
    pose = agent_pose_at(scenario, agent, t)
    chunks = []
    samples = _frozen_object_samples(scenario, agent_idx, cfg)
    for track, local in zip(scenario.objects, samples):
        box = object_box_at(scenario, track, t)
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        world = np.empty_like(local)
        world[:, 0] = c * local[:, 0] - s * local[:, 1] + box.cx
        world[:, 1] = s * local[:, 0] + c * local[:, 1] + box.cy
        world[:, 2] = local[:, 2] + box.cz
        world[:, 3] = local[:, 3]
        chunks.append(world)
    if cfg.include_ground:
        chunks.append(_ground_plane(scenario, agent_idx))
    if not chunks:
        return np.zeros((0, 4))
    world = np.concatenate(chunks, axis=0)
    out = world.copy()
    xy = pose.to_local(world[:, :2])
    out[:, 0] = xy[:, 0]
    out[:, 1] = xy[:, 1]
    return out


def _box_in_agent_frame(box: OrientedBox, pose: Pose2) -> OrientedBox:
    local = pose.to_local(np.array([[box.cx, box.cy]]))[0]
    return OrientedBox(local[0], local[1], box.cz, box.length, box.width,
                       box.height, normalize_angle(box.yaw - pose.yaw))


def scenario_boxes_local(scenario: Scenario, agent_id: str, t: float) -> list:
    """Ground-truth boxes at time t expressed in the agent frame."""
    agent = scenario.agent(agent_id)
    pose = agent_pose_at(scenario, agent, t)
    return [_box_in_agent_frame(b, pose) for b in scenario_boxes_at(scenario, t)]


_FOOTPRINT_DILATE = 3  # cells by which the footprint motion grows each box


def ideal_motion_field(scenario: Scenario, agent_id: str, src_t: float,
                       dst_t: float, bev: BevSpec, scale: int = 0) -> MotionField:
    """Ground-truth one-frame displacement field on an agent-frame grid.

    The grid is ``bev`` at pyramid level ``scale``: the same origin, the
    cell doubled and the height and width halved per level. Values are the
    per-frame step of each track in cell units, measured at the destination
    time, so scaling by the frame count of the gap reproduces the full
    displacement.  Each track's step is stamped over the union of its
    source and destination footprints (dilated by three cells to cover
    feature bleed from small convolutions); everywhere else the displacement
    is zero, which keeps static structure pinned.
    """
    agent = scenario.agent(agent_id)
    pose = agent_pose_at(scenario, agent, dst_t)
    dt = scenario.frame_interval
    cell = bev.cell * (1 << scale)
    h, w = bev.height >> scale, bev.width >> scale
    dp = np.zeros((2, h, w))
    for track in scenario.objects:
        b_dst = object_box_at(scenario, track, dst_t)
        b_pre = object_box_at(scenario, track, dst_t - dt)
        d_world = np.array([[b_dst.cx, b_dst.cy], [b_pre.cx, b_pre.cy]])
        d_local = pose.to_local(d_world)
        step = (d_local[0] - d_local[1]) / cell
        b_src = object_box_at(scenario, track, src_t)
        m = box_footprint_mask([_box_in_agent_frame(b_src, pose),
                                _box_in_agent_frame(b_dst, pose)],
                               bev.origin_x, bev.origin_y, cell, h, w, _FOOTPRINT_DILATE)
        dp[0][m] = step[0]
        dp[1][m] = step[1]
    w_map = np.full((1, h, w), np.nextafter(1.0, 0.0))
    return MotionField(dp=dp, w=w_map)


# ---------------------------------------------------------------------------
# templates and serialization

_CAR = dict(length=4.2, width=1.8, height=1.6, cz=0.8)


def _car(cx, cy, yaw=0.0):
    return OrientedBox(cx=cx, cy=cy, yaw=yaw, **_CAR)


def generate_scenario(template: str, seed: int = 0, speed: float = 4.0,
                      duration: float = 1.2, frame_interval: float = 0.1) -> Scenario:
    """Build one of the canned two-agent scenes."""
    if not finite_number(speed):
        raise ShapeError(f"speed must be a finite number, got {speed!r}")
    agents = [
        AgentSpec("ego", Pose2(0.0, 0.0, 0.0)),
        AgentSpec("collab", Pose2(1.6, 0.8, 0.0)),
    ]
    if template == "straight":
        objects = [
            ObjectTrack(_car(-6.0, 3.6), vx=speed),
            ObjectTrack(_car(4.0, -3.6, yaw=math.pi), vx=-0.5 * speed),
        ]
    elif template == "crossing":
        objects = [
            ObjectTrack(_car(-6.0, -4.8), vx=speed),
            ObjectTrack(_car(4.8, -6.0, yaw=math.pi / 2.0), vy=speed),
        ]
    elif template == "turning":
        objects = [
            ObjectTrack(_car(-4.0, -4.0, yaw=math.pi / 4.0),
                        vx=speed * math.cos(math.pi / 4.0),
                        vy=speed * math.sin(math.pi / 4.0),
                        yaw_rate=0.3),
        ]
    else:
        raise ShapeError(f"unknown template {template!r}")
    return Scenario(agents=agents, objects=objects, duration=duration,
                    frame_interval=frame_interval, seed=seed)


def scenario_to_dict(scn: Scenario) -> dict:
    return {
        "duration": scn.duration,
        "frame_interval": scn.frame_interval,
        "seed": scn.seed,
        "agents": [
            {"id": a.agent_id, "x": a.pose.x, "y": a.pose.y, "yaw": a.pose.yaw,
             "vx": a.vx, "vy": a.vy}
            for a in scn.agents
        ],
        "objects": [
            {"box": asdict(tr.box), "vx": tr.vx, "vy": tr.vy,
             "yaw_rate": tr.yaw_rate}
            for tr in scn.objects
        ],
    }


def _number(value, path: str) -> float:
    """``value`` as a finite float, else a ShapeError naming its key path;
    true, false and strings are not numbers."""
    if finite_number(value):
        return float(value)
    if isinstance(value, float):  # NaN or +-inf
        raise ShapeError(f"{path} must be finite, got {value}")
    if isinstance(value, int) and not isinstance(value, bool):
        raise ShapeError(f"{path} must fit a float, got {value}")
    raise ShapeError(f"{path} must be a number, got {value!r}")


def _box(data: dict, path: str) -> OrientedBox:
    """The box of a document's ``box`` entry; each number, and a size that
    is not positive, is named by its key path."""
    box = {k: _number(v, f"{path}.{k}") for k, v in data.items()}
    for k in ("length", "width", "height"):
        if box.get(k, 1.0) <= 0.0:
            raise ShapeError(f"{path}.{k} must be positive, got {box[k]}")
    return OrientedBox(**box)


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario a :func:`scenario_to_dict` document describes.

    A missing key or a non-finite number raises :class:`ShapeError`; a
    number is named by its key path, e.g. ``objects[0].box.length``.
    """
    try:
        agents = [
            AgentSpec(a["id"], Pose2(*(_number(a[k], f"agents[{i}].{k}")
                                       for k in ("x", "y", "yaw"))),
                      **{k: _number(a.get(k, 0.0), f"agents[{i}].{k}")
                         for k in ("vx", "vy")})
            for i, a in enumerate(data["agents"])
        ]
        objects = [
            ObjectTrack(_box(tr["box"], f"objects[{i}].box"),
                        **{k: _number(tr.get(k, 0.0), f"objects[{i}].{k}")
                           for k in ("vx", "vy", "yaw_rate")})
            for i, tr in enumerate(data["objects"])
        ]
        seed = data.get("seed", 0)
        if isinstance(seed, float):
            _number(seed, "seed")  # names a non-finite seed; Scenario the rest
        return Scenario(agents=agents, objects=objects,
                        duration=_number(data.get("duration", 1.2), "duration"),
                        frame_interval=_number(data.get("frame_interval", 0.1),
                                               "frame_interval"),
                        seed=seed)
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"malformed scenario document: {exc}") from exc


def save_scenario(scn: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scn), fh, indent=2)
        fh.write("\n")
