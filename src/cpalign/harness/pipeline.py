"""End-to-end delayed collaborative perception runs.

One run renders the scene for every agent, featurizes, pushes the
collaborator's stale frames through the two-stage temporal alignment, ships
them over a lossy channel, projects them into the ego frame with pose noise,
applies observability-weighted domain supervision, instance-focused fusion,
and finally the energy detector.  The ego's chain runs on the calling thread.
Each collaborator's chain is split at the channel into a sender job (its
frames, PTAM stage 1, the codec) and a receiver job (stage 2 onwards); the
jobs run on one worker thread and on whatever the calling thread takes, and
the receivers meet the ego at void completion.  A sweep repeats this over
delays and noise levels with and without temporal alignment, one whole run
per lane at a time, and tabulates the metrics.
"""

import csv
import functools
import math
import numbers
import threading
import time
from concurrent import futures
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from ..domain_align import (
    ForegroundHead,
    Pose2,
    default_discriminator_weights,
    default_foreground_weights,
    discriminator_forward,
    domain_loss_and_grads,
    complete_voids,
    foreground_estimate,
    observability_weighting,
    transform_to_ego,
)
from ..featurizer import (
    BevSpec,
    MultiScaleFeatures,
    backbone_forward,
    bev_project,
    default_backbone_weights,
    default_bevproj_weights,
    pillar_encode,
)
from ..instance_fusion import (
    StructKernels,
    VerificationSpec,
    default_aggregate_weights,
    default_fuse_weights,
    default_verification_weights,
    foreground_loss,
    fusion_fold,
    fusion_term,
    refine_instance,
)
from ..numerics import ShapeError, finite_number, freeze_weights, he_normal
from ..opcount import OpCounter, count_similarity_ops
from ..pointcloud import phd_apply
from ..temporal_align import (
    WINDOW,
    MotionEstimatorSpec,
    MotionField,
    XiPredictorSpec,
    default_motion_weights,
    default_xi_weights,
    estimate_motion,
    predict_xi,
    ptam_stage1,
    ptam_stage2,
    temporal_loss,
    window_cosines,
)
from .codec import (CodecConfig, encode_decode, pack_nonzeros, transmit_tensors,
                    unpack_nonzeros, wire_bytes)
from .detect import ENERGY_CHANNELS, detection_map, evaluate_detection
from .scenario import (
    RenderConfig,
    Scenario,
    agent_pose_at,
    ideal_motion_field,
    render_pointcloud,
    scenario_boxes_local,
)

SCALE_CHANNELS = (64, 128, 256)
PROJECTED_CHANNELS = 384
_NOISE_TAG = 0x906E
_NOISE_SEED = 1  # the pose-noise stream: fixed, in its own slot of the seed sequence
_STRUCT_TAG = 0x57C
_W_CLIP = 1e-6


@dataclass
class PipelineOptions:
    """Run-level switches; everything defaults to the clean oracle setup.

    At the default weights learned motion and xi are a cost model, not an
    estimator: every field is dp = 0, w = sigmoid(4), and xi = 0 at seed 0.
    """

    ptam: bool = True
    xi_mode: str = "oracle"          # oracle | learned
    motion_mode: str = "ideal"       # ideal | learned
    codec: str = "identity"
    phd: bool = True
    phd_collaborators: bool = False
    sigma_local: float = 0.0
    sigma_head_deg: float = 0.0
    detector_threshold: float = 0.5
    combine: str = "sum"             # sum | concat: the default weights' IFAM mode
    weight_seed: int = 0

    def __post_init__(self):
        for name in ("ptam", "phd", "phd_collaborators"):
            if not isinstance(getattr(self, name), bool):
                raise ShapeError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.xi_mode not in ("oracle", "learned"):
            raise ShapeError(f"unknown xi mode {self.xi_mode!r}")
        if self.motion_mode not in ("ideal", "learned"):
            raise ShapeError(f"unknown motion mode {self.motion_mode!r}")
        if self.combine not in ("sum", "concat"):
            raise ShapeError(f"unknown combine mode {self.combine!r}")
        for name in ("sigma_local", "sigma_head_deg"):
            value = getattr(self, name)
            if not (finite_number(value) and value >= 0.0):
                raise ShapeError(f"{name} must be non-negative and finite, got {value!r}")
        # the detector cuts a map normalised to a peak of 1
        threshold = self.detector_threshold
        if not (finite_number(threshold) and 0.0 < threshold <= 1.0):
            raise ShapeError(f"detector_threshold must be in (0, 1], got {threshold!r}")
        seed = self.weight_seed
        if not (finite_number(seed, numbers.Integral) and seed >= 0):
            raise ShapeError(f"weight_seed must be a non-negative integer, got {seed!r}")
        CodecConfig(self.codec)  # validates the mode


def build_pipeline_weights(seed: int = 0, combine: str = "sum") -> Mapping[str, np.ndarray]:
    """One flat name -> array mapping covering every stage of the pipeline.

    The mapping and its arrays are read-only (:func:`freeze_weights`), so
    every caller can share the cached mapping, and every :class:`RunContext`
    under it the values derived from it. Threads share the cache: the first
    to ask for a key builds it, so every thread gets the same mapping object.
    """
    return _WEIGHTS.memo((seed, combine), lambda: _build_weights(seed, combine))


def _build_weights(seed: int, combine: str) -> Mapping[str, np.ndarray]:
    weights = {}
    weights.update(default_backbone_weights(seed))
    weights.update(default_bevproj_weights(seed))
    weights.update(default_foreground_weights(PROJECTED_CHANNELS, seed))
    weights.update(default_discriminator_weights(PROJECTED_CHANNELS, seed))
    for i, ch in enumerate(SCALE_CHANNELS):
        weights.update(default_motion_weights(ch, seed, prefix=f"ptam.motion.s{i}."))
    weights.update(default_xi_weights(seed, prefix="ptam."))
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STRUCT_TAG]))
    weights["ifam.struct.weight"] = he_normal(
        rng, PROJECTED_CHANNELS, 1, 3, 3).reshape(PROJECTED_CHANNELS, 3, 3)
    weights["ifam.struct.bias"] = np.zeros((5, PROJECTED_CHANNELS))
    weights.update(default_verification_weights(PROJECTED_CHANNELS, seed))
    weights.update(default_aggregate_weights(PROJECTED_CHANNELS, seed, combine))
    weights.update(default_fuse_weights(PROJECTED_CHANNELS, seed))
    for arr in weights.values():  # ours alone: freeze_weights keeps them uncopied
        arr.flags.writeable = False
    return freeze_weights(weights)


@dataclass
class RunReport:
    tau_ms: float
    t: float
    ptam: bool
    codec: str
    sigma_local: float
    sigma_head_deg: float
    xi: list = field(default_factory=list)
    ap50: float = 0.0
    ap70: float = 0.0
    mean_matched_iou: float = 0.0
    n_detections: int = 0
    n_truth: int = 0
    cosine_pre: float = 0.0
    cosine_post: float = 0.0
    temporal_loss_value: float = 0.0
    domain_loss: float = 0.0
    foreground_loss_value: float = 0.0
    codec_mse: float = 0.0
    bytes_tx: int = 0
    op_counts: dict = field(default_factory=dict)
    ops_match_closed_form: bool = False
    wall_time_s: float = 0.0
    maps: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "tau_ms": self.tau_ms, "t": self.t, "ptam": self.ptam,
            "codec": self.codec, "sigma_local_m": self.sigma_local,
            "sigma_head_deg": self.sigma_head_deg,
            "ap50": self.ap50, "ap70": self.ap70,
            "mean_matched_iou": self.mean_matched_iou,
            "n_detections": self.n_detections, "n_truth": self.n_truth,
            "cosine_pre": self.cosine_pre, "cosine_post": self.cosine_post,
            "temporal_loss": self.temporal_loss_value,
            "domain_loss": self.domain_loss,
            "foreground_loss": self.foreground_loss_value,
            "codec_mse": self.codec_mse,
            "bytes_tx": self.bytes_tx,
            "ops_match_closed_form": self.ops_match_closed_form,
            "wall_time_s": self.wall_time_s,
        }
        for i, xi in enumerate(self.xi):
            out[f"xi_s{i}"] = xi
        out.update({f"ops_{k}": v for k, v in self.op_counts.items()})
        return out


class _Memo:
    """Values built once each, also across threads; with ``keep=False``
    nothing is kept and every claim is fresh."""

    def __init__(self, keep: bool = True):
        self.entries = {} if keep else None
        self._lock = threading.Lock()

    def claim(self, keys) -> tuple:
        """``(slots, mine)``: one ``Future`` per memo key, claimed together.

        Keys claimed together are in the memo as a complete set or not at
        all. If they are, the caller gets their Futures, done or not, and
        ``mine`` is False. Otherwise the caller gets fresh Futures, already
        in the memo, and must fill every one or hand them to :meth:`fail`.
        """
        with self._lock:
            if self.entries is not None and all(k in self.entries for k in keys):
                return [self.entries[k] for k in keys], False
            slots = [Future() for _ in keys]
            if self.entries is not None:
                self.entries.update(zip(keys, slots))
            return slots, True

    def fail(self, keys, slots, exc) -> None:
        """Undo a claim whose builds did not all finish.

        The keys leave the memo, so a later call builds them afresh, and
        every slot still open carries ``exc`` to whoever waits on it. A
        claim whose slots are all filled is left alone.
        """
        if all(slot.done() and slot.exception() is None for slot in slots):
            return
        with self._lock:
            for key, slot in zip(keys, slots):
                if self.entries is not None and self.entries.get(key) is slot:
                    del self.entries[key]
        for slot in slots:
            if not slot.done():
                slot.set_exception(exc)

    def memo(self, key, build):
        """The value under ``key``. The first caller builds it on its own
        thread, the others wait for that build, and a build that raises is
        not kept."""
        (slot,), mine = self.claim((key,))
        if mine:
            try:
                slot.set_result(build())
            except BaseException as exc:
                self.fail((key,), (slot,), exc)
                raise
        return slot.result()


#: (seed, combine) -> the frozen weights :func:`build_pipeline_weights` built
_WEIGHTS = _Memo()


#: the 4 frozen weight sets last used -> (a copy of the mapping, the memo
#: of what contexts derive from it), least recently used first
_DERIVED = {}
_DERIVED_LOCK = threading.Lock()


def _derived_memo(weights) -> tuple:
    """``(source, memo)``: what contexts derive ``weights``' values from, and
    the memo that keeps them.

    A set whose arrays are all read-only and own their data cannot change:
    it is keyed by its names and the ids of its arrays, which its entry
    keeps alive, and every context under it shares one memo. Any other set
    gets a fresh memo, so each context derives it afresh.
    """
    items = tuple(weights.items())
    if not all(isinstance(a, np.ndarray) and not a.flags.writeable and a.flags.owndata
               for _, a in items):
        return weights, _Memo()
    key = tuple((name, id(a)) for name, a in items)
    with _DERIVED_LOCK:
        entry = _DERIVED.pop(key, None) or (dict(items), _Memo())
        _DERIVED[key] = entry
        while len(_DERIVED) > 4:
            del _DERIVED[next(iter(_DERIVED))]
    return entry


class RunContext(_Memo):
    """The scene, weights, BEV grid and renderer that a set of runs share,
    with what is built from them once.

    Everything derived from the weights is built here on first use (the
    foreground head, the IFAM and PTAM specs, the fusion terms over the
    scenario's agents), shared by all contexts under the same frozen
    weights (:func:`_derived_memo`). With ``memo`` the context also keeps
    what its runs build: featurizations, the ego's view and its fusion
    term. Every entry depends on the four inputs, so a run under any other
    one is refused (:meth:`check`); scenario and weights are compared by
    identity, the specs by value. Without ``memo`` every claim is fresh,
    so a lone run's builds die with it.
    """

    def __init__(self, scenario: Scenario, weights: dict, bev: BevSpec,
                 render_cfg: RenderConfig, memo: bool = True):
        super().__init__(keep=memo)
        self.scenario = scenario
        self.weights = weights
        self.bev = bev
        self.render_cfg = render_cfg
        self._source, self._derived = _derived_memo(weights)

    def _derive(self, key, build, *args):
        return self._derived.memo(key, lambda: build(self._source, *args))

    @property
    def head(self) -> ForegroundHead:
        return self._derive("head", ForegroundHead.from_weights)

    @property
    def struct(self) -> StructKernels:
        return self._derive("struct", StructKernels.from_weights, PROJECTED_CHANNELS)

    @property
    def verification(self) -> VerificationSpec:
        return self._derive("verification", VerificationSpec.from_weights)

    @property
    def xi_spec(self) -> XiPredictorSpec:
        return self._derive("xi", XiPredictorSpec.from_weights, "ptam.")

    @property
    def fold(self):
        # the detector reads only the fused map's leading channels
        n = len(self.scenario.agents)
        return self._derive(("fold", n), fusion_fold, n, ENERGY_CHANNELS)

    def motion_spec(self, s: int) -> MotionEstimatorSpec:
        return self._derive(("motion", s), MotionEstimatorSpec.from_weights,
                            f"ptam.motion.s{s}.")

    def check(self, scenario, weights, bev, render_cfg) -> None:
        """Raise unless a run under these inputs may use this context."""
        if scenario is not self.scenario:
            raise ShapeError("cache was filled for another scenario object")
        if weights is not self.weights:
            raise ShapeError("cache was filled under another weights object")
        if bev != self.bev:
            raise ShapeError(f"cache was filled under {self.bev}, not {bev}")
        if render_cfg != self.render_cfg:
            raise ShapeError(f"cache was filled under {self.render_cfg}, not {render_cfg}")

    def featurize(self, agent_id, t, phd) -> MultiScaleFeatures:
        """One agent's backbone features at t, memoized by frame.

        An agent whose rendered cloud holds NaN or +-inf, or is empty once
        rendered (and downsampled), raises :class:`ShapeError` naming the
        agent and the frame.
        """
        frame = self.scenario.frame_index(t)

        def refuse(what):
            return ShapeError(f"agent {agent_id!r} has {what} point cloud "
                              f"at frame {frame} (t = {t:g} s)")

        def build():
            cloud = render_pointcloud(self.scenario, agent_id, t, self.render_cfg)
            if not np.isfinite(cloud).all():
                raise refuse("a non-finite")
            if phd:
                boxes = scenario_boxes_local(self.scenario, agent_id, t)
                cloud = phd_apply(cloud, boxes, (0.0, 0.0), self.scenario.seed)
            if cloud.shape[0] == 0:
                raise refuse("an empty")
            return backbone_forward(pillar_encode(cloud, self.bev), self.weights)

        return self.memo(("ms", agent_id, frame, phd), build)


def _noisy_pose(pose: Pose2, scenario, frame_idx, agent_idx, opts) -> Pose2:
    if opts.sigma_local == 0.0 and opts.sigma_head_deg == 0.0:
        return pose
    rng = np.random.default_rng(np.random.SeedSequence(
        [scenario.seed, _NOISE_TAG, _NOISE_SEED, frame_idx, agent_idx]))
    dx, dy = rng.normal(0.0, opts.sigma_local, size=2) if opts.sigma_local else (0.0, 0.0)
    dyaw = rng.normal(0.0, math.radians(opts.sigma_head_deg)) if opts.sigma_head_deg else 0.0
    return Pose2(pose.x + dx, pose.y + dy, pose.yaw + dyaw)


_LANE_LOCK = threading.Lock()
_lane = None


def _worker_lane() -> ThreadPoolExecutor:
    """The one worker thread of the second lane, started on first use."""
    global _lane
    with _LANE_LOCK:
        if _lane is None:
            _lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cpalign-lane")
        return _lane


def _help_or_wait(jobs, first=None, abort=None) -> list:
    """Run ``jobs`` over both lanes; returns their results in order.

    Every job goes to the worker. This thread runs ``first`` (if given),
    then takes every job the worker has not started and runs it itself, so
    it never waits on a job that has not started; it waits only for the
    ones the worker is running. A job the worker runs may call this again:
    its own jobs then all run on the worker, in place. If anything raises,
    ``abort(exc)`` runs first (it must release whatever the started jobs
    could be waiting for), the jobs not started are dropped, and the
    started ones finish before the error propagates.
    """
    lane = _worker_lane()
    tasks = []
    try:
        for job in jobs:
            tasks.append(lane.submit(job))
        if first is not None:
            first()
        here = [(job(),) if task.cancel() else None for job, task in zip(jobs, tasks)]
        return [r[0] if r is not None else task.result() for r, task in zip(here, tasks)]
    except BaseException as exc:
        if abort is not None:
            abort(exc)
        # a cancelled job counts as done only once the worker dequeues it,
        # and the worker may be this thread: wait only for started ones
        futures.wait([task for task in tasks if not task.cancel()])
        raise


@dataclass(frozen=True)
class _Run:
    """What every lane of one run_pipeline call reads; none of it changes."""

    ctx: RunContext
    t: float
    tau: float
    opts: PipelineOptions
    collect: bool
    k_eval: int
    delay_frames: float
    ego_pose: Pose2


@dataclass
class _Collaborator:
    """What a collaborator's receiver hands to fusion and to the report."""

    xi: list
    mse: list
    bytes_tx: int
    cosine_pre: float
    cosine_post: float
    temporal_loss: float
    term: np.ndarray | None = None
    domain_loss: float = 0.0
    maps: dict = field(default_factory=dict)


def _ego_keys(run: _Run) -> tuple:
    """Memo keys of the ego's view and of its fusion term, claimed together."""
    tag = (run.ctx.scenario.agents[0].agent_id, run.k_eval, run.opts.phd)
    return ("ego-view",) + tag, ("ego-term",) + tag


def _ego_lane(run: _Run, view: Future, term: Future) -> None:
    """The ego's chain, into its two claimed memo slots.

    ``view`` gets (features, foreground, logits) as soon as they exist, for
    the collaborators' void completion; ``term`` then gets the ego's fusion
    term, which replaces its refined map.
    """
    ctx = run.ctx
    ms = ctx.featurize(ctx.scenario.agents[0].agent_id, run.t, run.opts.phd)
    h = bev_project(ms, ctx.weights)
    m = foreground_estimate(h, ms, ctx.head)
    del ms
    logits = discriminator_forward(h, ctx.weights)
    view.set_result((h, m, logits))
    refined = refine_instance(h, m, ctx.struct, ctx.verification, ctx.weights)
    term.set_result(fusion_term(refined, ctx.fold, 0))


def _motion(run: _Run, s, agent_id, src_t, dst_t, newer, older) -> MotionField:
    """The one choice of the field PTAM warps scale ``s`` by, src_t to dst_t:
    the scene's ideal field, or the estimate from the two frames."""
    ctx = run.ctx
    if run.opts.motion_mode == "ideal":
        return ideal_motion_field(ctx.scenario, agent_id, src_t, dst_t, ctx.bev, s)
    return estimate_motion(newer, older, ctx.motion_spec(s))


def _xi(run: _Run, rx, field: MotionField) -> float:
    """The one choice of the factor stage 2 scales ``field`` by: the delay in
    frame intervals under oracle xi, else the prediction from the received
    stage-1 field (its confidence kept inside (0, 1) past a lossy codec)."""
    opts = run.opts
    if opts.xi_mode == "oracle":
        return run.delay_frames
    w = rx["w"]
    if opts.codec != "identity":
        w = np.clip(w, _W_CLIP, 1.0 - _W_CLIP)
    return predict_xi(MotionField(rx["dp"], w), field, run.delay_frames, run.ctx.xi_spec)


def _shipped(opts: PipelineOptions, s: int) -> tuple:
    """The one rule of what a collaborator ships of scale ``s``, in channel
    order: exactly the tensors its receiver reads under ``opts``.

    Without PTAM the latest frame is fused as received. With it the
    receiver reads the stage-1 result; the latest frame only under learned
    motion, which estimates stage 2's field from it; and the stage-1 field
    only under learned xi, its only reader.
    """
    if not opts.ptam:
        return ("latest",)
    kinds = ("latest", "inter") if opts.motion_mode == "learned" else ("inter",)
    if opts.xi_mode == "learned":
        kinds += ("dp", "w")
    return kinds


def _ship_stage1(run: _Run, agent_id, ms_latest):
    """The collaborator's side: PTAM stage 1 and the channel. Returns the
    received tensors, their errors, the bytes they took on the channel and
    the large latest frame, handed over beside the channel for
    ``cosine_pre``; the payload dies here.

    Each tensor goes on the channel as its nonzeros plus a bitmap; its
    error is taken over the dense tensor, as the dense codec reported it,
    and is 0.0 under identity, whose round trip is bit-exact.
    """
    opts, ctx = run.opts, run.ctx
    t_prev = run.t - run.tau - ctx.scenario.frame_interval
    if opts.ptam:
        ms_prev = ctx.featurize(agent_id, t_prev, opts.phd_collaborators)
    payload = {}
    for s in range(len(SCALE_CHANNELS)):
        tensors = {"latest": ms_latest.scales[s]}
        if opts.ptam:
            mf1 = _motion(run, s, agent_id, t_prev, run.t - run.tau,
                          ms_latest.scales[s], ms_prev.scales[s])
            tensors.update(inter=ptam_stage1(ms_prev.scales[s], mf1), dp=mf1.dp, w=mf1.w)
        payload.update((f"s{s}.{kind}", tensors[kind]) for kind in _shipped(opts, s))
    packed = pack_nonzeros(payload, opts.codec)
    received = unpack_nonzeros(transmit_tensors(packed, CodecConfig(opts.codec))[0],
                               {name: a.shape for name, a in payload.items()})
    errors = {name: 0.0 if opts.codec == "identity"
              else float(np.mean((received[name] - a) ** 2))
              for name, a in payload.items()}
    return received, errors, wire_bytes(packed, opts.codec), ms_latest.large


def _fill(slot: Future, result=None, exc=None) -> None:
    """Settle ``slot`` unless it is settled already: the sender that owns a
    slot and the abort of a failing run may both try, from two lanes."""
    try:
        if exc is None:
            slot.set_result(result)
        else:
            slot.set_exception(exc)
    except InvalidStateError:
        pass


def _sender(run: _Run, agent_id, shipped: Future) -> None:
    """A collaborator's job before the channel: its frame at t - tau, then
    stage 1 and the codec. ``shipped`` gets
    ``[(received, errors, bytes, frame)]``, a one-item list the receiver
    pops, so the received tensors die with the receiver's use of them; or
    the error, if this job raises."""
    try:
        ms_latest = run.ctx.featurize(agent_id, run.t - run.tau,
                                      run.opts.phd_collaborators)
        received = _ship_stage1(run, agent_id, ms_latest)
    except BaseException as exc:
        _fill(shipped, exc=exc)
        raise
    _fill(shipped, [received])


def _align_collaborator(run: _Run, agent_id, shipped: Future, counter):
    """Stage 2 and the temporal metrics of one collaborator, from what its
    sender shipped. Returns its aligned features and a record of the
    metrics; the received tensors die here."""
    opts, ctx = run.opts, run.ctx
    received, errors, nbytes, frame = shipped.result().pop()
    xi_report = []
    if opts.ptam:
        aligned_scales = []
        for s in range(len(SCALE_CHANNELS)):
            rx = {kind: received[f"s{s}.{kind}"] for kind in _shipped(opts, s)}
            mf2 = _motion(run, s, agent_id, run.t - run.tau, run.t, rx["inter"],
                          rx.get("latest"))
            xi = _xi(run, rx, mf2)
            aligned_scales.append(ptam_stage2(rx["inter"], mf2, xi))
            xi_report.append(xi)
        ms_aligned = MultiScaleFeatures(*aligned_scales)
    else:
        ms_aligned = MultiScaleFeatures(received["s0.latest"],
                                        received["s1.latest"],
                                        received["s2.latest"])

    ms_gt = ctx.featurize(agent_id, run.t, opts.phd_collaborators)
    tl = temporal_loss(ms_aligned.large, ms_gt.large, WINDOW, counter)
    cos_post = float(np.mean(tl.window_cosines))
    if opts.ptam:
        # the frame stale fusion would receive, whether or not it is shipped:
        # bit for bit the s0.latest the channel delivers
        stale = encode_decode(frame, opts.codec)[0]
        cos_pre = float(np.mean(window_cosines(stale, ms_gt.large, WINDOW)[0]))
    else:
        # unaligned, the large scale compared above is the received one
        cos_pre = cos_post
    return ms_aligned, _Collaborator(xi=xi_report, mse=list(errors.values()),
                                     bytes_tx=nbytes, cosine_pre=cos_pre,
                                     cosine_post=cos_post, temporal_loss=tl.loss)


def _project_collaborator(run: _Run, j, agent, ms_aligned):
    """Projected features and foreground, resampled into the ego frame."""
    ctx = run.ctx
    h = bev_project(ms_aligned, ctx.weights)
    m = foreground_estimate(h, ms_aligned, ctx.head)
    pose = _noisy_pose(agent_pose_at(ctx.scenario, agent, run.t - run.tau),
                       ctx.scenario, run.k_eval, j, run.opts)
    h_proj, valid = transform_to_ego(h, pose, run.ego_pose, ctx.bev)
    m_proj, _ = transform_to_ego(m, pose, run.ego_pose, ctx.bev)
    return h_proj, m_proj, valid


def _collaborator(run: _Run, j, agent, shipped: Future, ego_view: Future,
                  counter) -> _Collaborator:
    """A collaborator's job after the channel, its receiver: from what its
    sender shipped to its fusion term in the ego frame. Only void completion
    onwards waits for the ego's view."""
    ms_aligned, out = _align_collaborator(run, agent.agent_id, shipped, counter)
    h_proj, m_proj, valid = _project_collaborator(run, j, agent, ms_aligned)
    del ms_aligned
    h_ego, m_ego, logits_ego = ego_view.result()
    # the resamples are this task's own: the ego fills their voids in place
    h_comp = complete_voids(h_proj, valid, h_ego, out=h_proj)
    m_comp = complete_voids(m_proj, valid, m_ego, out=m_proj)
    w_obs = observability_weighting(m_ego, m_comp)
    loss_c, _, _ = domain_loss_and_grads(
        discriminator_forward(h_comp, run.ctx.weights), 1.0, w_obs)
    loss_e, _, _ = domain_loss_and_grads(logits_ego, 0.0, w_obs)
    out.domain_loss = 0.5 * (loss_c + loss_e)
    # h_comp is this task's and dead after the IFAM branch: its background
    # overwrites it (the ego's features are shared, so the ego lane cannot)
    refined = refine_instance(h_comp, m_comp, run.ctx.struct, run.ctx.verification,
                              run.ctx.weights, reuse_h=True)
    out.term = fusion_term(refined, run.ctx.fold, j)
    if run.collect:
        out.maps = {f"collab{j}_foreground": m_comp,
                    f"collab{j}_observability": w_obs}
    return out


def _resolve_inputs(opts: PipelineOptions, weights, bev, render_cfg) -> tuple:
    """(weights, bev, render_cfg), each left out one set to its default."""
    if weights is None:
        weights = build_pipeline_weights(opts.weight_seed, opts.combine)
    return weights, bev or BevSpec.centered(19.2, 19.2), render_cfg or RenderConfig()


def run_pipeline(scenario: Scenario, t: float, tau: float,
                 opts: PipelineOptions | None = None, weights: dict | None = None,
                 bev: BevSpec | None = None, render_cfg: RenderConfig | None = None,
                 context: RunContext | None = None, collect: bool = False) -> RunReport:
    """Run one fused detection pass at time t with transmission delay tau.

    The collaborator captures at t - tau - dt and t - tau, aligns stage one
    locally, transmits, and the ego completes stage two before fusion.  A
    :class:`RunContext` shared by repeated calls on the same scenario,
    weights, BEV grid and render config holds their specs and memoizes
    their featurizations; a call under any other one raises
    :class:`ShapeError`. Without one, the run builds its own, with no memo.

    The ego's chain runs on the calling thread. Each collaborator's chain
    is two jobs split at the channel, a sender (stage 1 and the codec) and
    a receiver (stage 2 onwards); all senders are queued before all
    receivers, on one worker thread that the calling thread helps once the
    ego's chain is done. The receivers meet the ego at void completion. Each
    agent's refined map enters fusion as its own term of the folded
    :func:`fuse_agents`. The memo builds each entry once, also across
    threads, and holds the ego's view and fusion term. The result does not
    depend on which thread ran what.
    """
    start = time.perf_counter()
    opts = opts or PipelineOptions()
    weights, bev, render_cfg = _resolve_inputs(opts, weights, bev, render_cfg)
    if tau < 0:
        raise ShapeError(f"delay must be non-negative, got {tau} s")
    k_eval = scenario.frame_index(t)
    scenario.frame_index(t - tau - scenario.frame_interval)  # validates the stale frames exist
    if context is None:
        context = RunContext(scenario, weights, bev, render_cfg, memo=False)
    else:
        context.check(scenario, weights, bev, render_cfg)

    ego = scenario.agents[0]
    run = _Run(
        ctx=context, t=t, tau=tau, opts=opts, collect=collect, k_eval=k_eval,
        delay_frames=tau / scenario.frame_interval,
        ego_pose=agent_pose_at(scenario, ego, t),
    )
    counter = OpCounter()
    keys = _ego_keys(run)
    (view, term), mine = context.claim(keys)
    collaborators = scenario.agents[1:]
    shipped = [Future() for _ in collaborators]
    # senders first: the lanes take jobs in order, so a receiver's sender has
    # started before the receiver does, and the worker ships every
    # collaborator while the calling thread runs the ego
    jobs = [functools.partial(_sender, run, agent.agent_id, slot)
            for agent, slot in zip(collaborators, shipped)]
    jobs += [functools.partial(_collaborator, run, j, agent, slot, view,
                               counter if j == 1 else None)
             for j, (agent, slot) in enumerate(zip(collaborators, shipped), start=1)]

    def abort(exc):
        # a receiver may be waiting on a sender that will now never run
        if mine:
            context.fail(keys, (view, term), exc)
        for slot in shipped:
            _fill(slot, exc=exc)

    # a run whose ego slots another lane is filling starts on its
    # collaborators at once; they wait for the ego only at void completion
    collabs = _help_or_wait(
        jobs, functools.partial(_ego_lane, run, view, term) if mine else None,
        abort)[len(shipped):]

    fused = sum((c.term for c in collabs), term.result())
    m_ego = view.result()[1]
    dmap = detection_map(fused)
    gt_local = scenario_boxes_local(scenario, ego.agent_id, t)
    det = evaluate_detection(dmap, gt_local, bev, opts.detector_threshold)
    fg_loss, _ = foreground_loss(m_ego, gt_local, bev)
    maps = None
    if collect:
        maps = {"ego_foreground": m_ego}
        for c in collabs:
            maps.update(c.maps)
        maps["detection"] = dmap

    mse_all = [e for c in collabs for e in c.mse]
    expected = count_similarity_ops(SCALE_CHANNELS[0], bev.height, bev.width,
                                    WINDOW, mode="blockwise")
    first = collabs[0] if collabs else None
    report = RunReport(
        tau_ms=tau * 1000.0, t=t, ptam=opts.ptam, codec=opts.codec,
        sigma_local=opts.sigma_local, sigma_head_deg=opts.sigma_head_deg,
        xi=first.xi if first else [],
        ap50=det.ap.get(0.5, 0.0), ap70=det.ap.get(0.7, 0.0),
        mean_matched_iou=det.mean_matched_iou,
        n_detections=det.n_detections, n_truth=det.n_truth,
        cosine_pre=float(np.mean([c.cosine_pre for c in collabs])) if collabs else 0.0,
        cosine_post=float(np.mean([c.cosine_post for c in collabs])) if collabs else 0.0,
        temporal_loss_value=first.temporal_loss if first else 0.0,
        domain_loss=float(np.mean([c.domain_loss for c in collabs])) if collabs else 0.0,
        foreground_loss_value=fg_loss,
        codec_mse=float(np.mean(mse_all)) if mse_all else 0.0,
        bytes_tx=sum(c.bytes_tx for c in collabs),
        op_counts=counter.counts.as_dict(),
        ops_match_closed_form=counter.counts.as_dict() == expected.as_dict(),
        wall_time_s=time.perf_counter() - start,
        maps=maps,
    )
    return report


SWEEP_FIELDS = ("metric", "value", "tau_ms", "sigma_local_m", "sigma_head_deg")


def sweep(scenario: Scenario, taus_ms, opts: PipelineOptions | None = None,
          sigmas=((0.0, 0.0),), t: float | None = None,
          weights: dict | None = None, bev: BevSpec | None = None,
          render_cfg: RenderConfig | None = None) -> list:
    """Delay/noise grid with and without temporal alignment.

    Returns rows shaped for the sweep CSV: one (metric, value) pair per row
    tagged with the grid point. The baseline rows rerun the pipeline with
    alignment disabled but everything else identical. The runs share one
    :class:`RunContext`, its specs and its memo, and spread over the two
    lanes, a whole run per lane.
    """
    opts = opts or PipelineOptions()
    if t is None:
        t = (scenario.n_frames - 1) * scenario.frame_interval
    ctx = RunContext(scenario, *_resolve_inputs(opts, weights, bev, render_cfg))
    grid = [(tau_ms, sigma_local, sigma_head)
            for sigma_local, sigma_head in sigmas for tau_ms in taus_ms]
    runs = _help_or_wait([
        functools.partial(run_pipeline, scenario, t, tau_ms / 1000.0,
                          replace(opts, ptam=ptam, sigma_local=sigma_local,
                                  sigma_head_deg=sigma_head),
                          ctx.weights, ctx.bev, ctx.render_cfg, ctx)
        for tau_ms, sigma_local, sigma_head in grid for ptam in (True, False)])
    rows = []
    for i, tag in enumerate(grid):
        on, off = runs[2 * i], runs[2 * i + 1]
        for metric, value in (
            ("mean_iou_ptam", on.mean_matched_iou),
            ("mean_iou_baseline", off.mean_matched_iou),
            ("ap50_ptam", on.ap50),
            ("ap50_baseline", off.ap50),
            ("ap70_ptam", on.ap70),
            ("ap70_baseline", off.ap70),
            ("cosine_pre", on.cosine_pre),
            ("cosine_post", on.cosine_post),
            ("domain_loss", on.domain_loss),
            ("codec_mse", on.codec_mse),
        ):
            rows.append({"metric": metric, "value": value,
                         "tau_ms": tag[0], "sigma_local_m": tag[1],
                         "sigma_head_deg": tag[2]})
    return rows


def write_sweep_csv(rows: list, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
