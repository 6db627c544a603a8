"""End-to-end delayed collaborative perception runs.

One run renders the scene for every agent, featurizes, pushes the
collaborator's stale frames through the two-stage temporal alignment, ships
them over a lossy channel, projects them into the ego frame with pose noise,
applies observability-weighted domain supervision, instance-focused fusion,
and finally the energy detector.  A sweep repeats this over delays and noise
levels with and without temporal alignment and tabulates the metrics.
"""

import csv
import math
import time

import numpy as np
from dataclasses import dataclass, field

from ..domain_align import (
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
    aggregate_instance,
    default_aggregate_weights,
    default_fuse_weights,
    default_verification_weights,
    foreground_loss,
    fuse_agents,
    split_foreground,
    struct_conv,
    verification_weights,
)
from ..numerics import ShapeError, freeze_weights, he_normal, require_weights
from ..opcount import OpCounter, count_similarity_ops
from ..pointcloud import PhdConfig, phd_apply
from ..temporal_align import (
    DelayContext,
    MotionEstimatorSpec,
    MotionField,
    XiPredictorSpec,
    default_motion_weights,
    default_xi_weights,
    ptam_stage1,
    ptam_stage2,
    temporal_loss,
    window_cosines,
)
from .codec import CodecConfig, transmit_tensors
from .detect import detection_map, evaluate_detection
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
_STRUCT_TAG = 0x57C
_W_CLIP = 1e-6


@dataclass
class PipelineOptions:
    """Run-level switches; everything defaults to the clean oracle setup."""

    ptam: bool = True
    xi_mode: str = "oracle"          # oracle | learned
    motion_mode: str = "ideal"       # ideal | learned
    ideal_mode: str = "footprint"    # footprint | global
    stage2_variant: str = "scaled"   # scaled | literal
    codec: str = "identity"
    phd: bool = True
    phd_collaborators: bool = False
    sigma_local: float = 0.0
    sigma_head_deg: float = 0.0
    detector_threshold: float = 0.5
    window: int = 16
    combine: str = "sum"
    weight_seed: int = 0
    noise_seed: int = 1

    def __post_init__(self):
        if self.xi_mode not in ("oracle", "learned"):
            raise ShapeError(f"unknown xi mode {self.xi_mode!r}")
        if self.motion_mode not in ("ideal", "learned"):
            raise ShapeError(f"unknown motion mode {self.motion_mode!r}")
        if self.ideal_mode not in ("footprint", "global"):
            raise ShapeError(f"unknown ideal motion mode {self.ideal_mode!r}")
        if self.sigma_local < 0.0 or self.sigma_head_deg < 0.0:
            raise ShapeError("noise magnitudes must be non-negative")
        if self.window < 1:
            raise ShapeError("window must be at least 1")
        CodecConfig(self.codec)  # validates the mode


_WEIGHT_CACHE = {}


def build_pipeline_weights(seed: int = 0, combine: str = "sum") -> dict:
    """One flat name -> array dict covering every stage of the pipeline.

    The arrays are read-only and own their data (:func:`freeze_weights`),
    so every caller can share the cached dict and the values derived from
    it once per weights (the folded foreground head, the motion specs).
    """
    key = (seed, combine)
    if key in _WEIGHT_CACHE:
        return _WEIGHT_CACHE[key]
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
    weights = freeze_weights(weights)
    _WEIGHT_CACHE[key] = weights
    return weights


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
            "ops_match_closed_form": self.ops_match_closed_form,
            "wall_time_s": self.wall_time_s,
        }
        for i, xi in enumerate(self.xi):
            out[f"xi_s{i}"] = xi
        out.update({f"ops_{k}": v for k, v in self.op_counts.items()})
        return out


def _scale_geometry(bev: BevSpec, scale_idx: int):
    f = 1 << scale_idx
    return (bev.origin_x, bev.origin_y, bev.cell * f,
            bev.height // f, bev.width // f)


_CACHE_CONTEXT = "context"


def _claim_cache(cache, scenario, weights, bev, render_cfg) -> None:
    """Tie a memo to the scenario, weights, grid and renderer that fill it.

    The first call records them; a later call under any other one raises,
    because the memo would serve features computed under the old ones.
    Scenario and weights are compared by identity, the specs by value.
    """
    if cache is None:
        return
    owner = cache.setdefault(_CACHE_CONTEXT, (scenario, weights, bev, render_cfg))
    if owner[0] is not scenario:
        raise ShapeError("cache was filled for another scenario object")
    if owner[1] is not weights:
        raise ShapeError("cache was filled under another weights object")
    if owner[2] != bev:
        raise ShapeError(f"cache was filled under {owner[2]}, not {bev}")
    if owner[3] != render_cfg:
        raise ShapeError(f"cache was filled under {owner[3]}, not {render_cfg}")


def _featurize(scenario, agent_id, t, bev, render_cfg, weights, phd,
               cache) -> MultiScaleFeatures:
    key = ("ms", agent_id, scenario.frame_index(t), phd)
    if cache is not None and key in cache:
        return cache[key]
    cloud = render_pointcloud(scenario, agent_id, t, render_cfg)
    if phd:
        boxes = scenario_boxes_local(scenario, agent_id, t)
        cloud = phd_apply(cloud, boxes, (0.0, 0.0), PhdConfig(seed=scenario.seed))
    ms = backbone_forward(pillar_encode(cloud, bev), weights)
    if cache is not None:
        cache[key] = ms
    return ms


def _noisy_pose(pose: Pose2, scenario, frame_idx, agent_idx, opts) -> Pose2:
    if opts.sigma_local == 0.0 and opts.sigma_head_deg == 0.0:
        return pose
    rng = np.random.default_rng(np.random.SeedSequence(
        [scenario.seed, _NOISE_TAG, opts.noise_seed, frame_idx, agent_idx]))
    dx, dy = rng.normal(0.0, opts.sigma_local, size=2) if opts.sigma_local else (0.0, 0.0)
    dyaw = rng.normal(0.0, math.radians(opts.sigma_head_deg)) if opts.sigma_head_deg else 0.0
    return Pose2(pose.x + dx, pose.y + dy, pose.yaw + dyaw)


def _ideal_fields(scenario, agent_id, src_t, dst_t, bev, mode):
    fields = []
    for s in range(len(SCALE_CHANNELS)):
        ox, oy, cell, h, w = _scale_geometry(bev, s)
        fields.append(ideal_motion_field(scenario, agent_id, src_t, dst_t,
                                         ox, oy, cell, h, w, mode))
    return fields


def _struct_kernels(weights) -> StructKernels:
    base, biases = require_weights(
        weights, ("ifam.struct.weight", "ifam.struct.bias"), "struct conv weights")
    c = PROJECTED_CHANNELS
    return StructKernels(base=base.reshape(c, 3, 3), biases=biases.reshape(5, c))


def _refine_instance(h_map, m_map, weights, combine):
    fore, back = split_foreground(h_map, m_map)
    enhanced = struct_conv(fore, _struct_kernels(weights))
    verif = verification_weights(fore, enhanced, VerificationSpec.from_weights(weights))
    return aggregate_instance(fore, enhanced, back, verif, weights, combine=combine)


def run_pipeline(scenario: Scenario, t: float, tau: float,
                 opts: PipelineOptions | None = None, weights: dict | None = None,
                 bev: BevSpec | None = None, render_cfg: RenderConfig | None = None,
                 cache: dict | None = None, collect: bool = False) -> RunReport:
    """Run one fused detection pass at time t with transmission delay tau.

    The collaborator captures at t - tau - dt and t - tau, aligns stage one
    locally, transmits, and the ego completes stage two before fusion.  The
    optional cache memoizes featurizations across repeated calls on the same
    scenario. It belongs to the scenario, weights, BEV grid and render
    config of the first call that uses it; a call under any other one
    raises :class:`ShapeError`.
    """
    start = time.perf_counter()
    opts = opts or PipelineOptions()
    bev = bev or BevSpec.centered(19.2, 19.2)
    render_cfg = render_cfg or RenderConfig()
    weights = weights if weights is not None else build_pipeline_weights(
        opts.weight_seed, opts.combine)
    if tau < 0:
        raise ShapeError("delay must be non-negative")
    _claim_cache(cache, scenario, weights, bev, render_cfg)
    dt = scenario.frame_interval
    k_eval = scenario.frame_index(t)
    scenario.frame_index(t - tau - dt)  # validates the stale frames exist
    ctx = DelayContext(tau=tau, frame_interval=dt, xi_mode=opts.xi_mode)
    codec = CodecConfig(opts.codec)
    lossy = opts.codec != "identity"

    ego = scenario.agents[0]
    ego_pose = agent_pose_at(scenario, ego, t)
    ego_key = ("ego", ego.agent_id, k_eval, opts.phd)
    if cache is not None and ego_key in cache:
        h_ego, m_ego, logits_ego, refined_ego = cache[ego_key]
    else:
        ms_ego = _featurize(scenario, ego.agent_id, t, bev, render_cfg,
                            weights, opts.phd, cache)
        h_ego = bev_project(ms_ego, weights)
        m_ego = foreground_estimate(h_ego, ms_ego, weights)
        logits_ego = discriminator_forward(h_ego, weights)
        refined_ego = _refine_instance(h_ego, m_ego, weights, opts.combine)
        if cache is not None:
            cache[ego_key] = (h_ego, m_ego, logits_ego, refined_ego)

    # ideal motion overrides every estimate, so only learned motion needs specs
    motion_specs = [MotionEstimatorSpec.from_weights(weights, f"ptam.motion.s{i}.")
                    if opts.motion_mode == "learned" else None
                    for i in range(len(SCALE_CHANNELS))]
    xi_spec = XiPredictorSpec.from_weights(weights, "ptam.")

    refined = [refined_ego]
    xi_report = []
    domain_losses = []
    mse_all = []
    cos_pre_all = []
    cos_post_all = []
    tl_value = 0.0
    counter = OpCounter()
    maps = {"ego_foreground": m_ego} if collect else None

    for j, collab in enumerate(scenario.agents[1:], start=1):
        phd_c = opts.phd_collaborators
        ms_latest = _featurize(scenario, collab.agent_id, t - tau, bev,
                               render_cfg, weights, phd_c, cache)
        payload = {}
        stage1_fields = []
        if opts.ptam:
            ms_prev = _featurize(scenario, collab.agent_id, t - tau - dt, bev,
                                 render_cfg, weights, phd_c, cache)
            ideal1 = (_ideal_fields(scenario, collab.agent_id, t - tau - dt,
                                    t - tau, bev, opts.ideal_mode)
                      if opts.motion_mode == "ideal" else [None] * 3)
            for s in range(len(SCALE_CHANNELS)):
                inter, mf1 = ptam_stage1(ms_prev.scales[s], ms_latest.scales[s],
                                         motion_specs[s], ideal1[s])
                payload[f"s{s}.latest"] = ms_latest.scales[s]
                payload[f"s{s}.inter"] = inter
                payload[f"s{s}.dp"] = mf1.dp
                payload[f"s{s}.w"] = mf1.w
                stage1_fields.append(mf1)
        else:
            for s in range(len(SCALE_CHANNELS)):
                payload[f"s{s}.latest"] = ms_latest.scales[s]

        received, errors = transmit_tensors(payload, codec)
        mse_all.extend(errors.values())

        if opts.ptam:
            ideal2 = (_ideal_fields(scenario, collab.agent_id, t - tau, t, bev,
                                    opts.ideal_mode)
                      if opts.motion_mode == "ideal" else [None] * 3)
            aligned_scales = []
            for s in range(len(SCALE_CHANNELS)):
                w_rx = received[f"s{s}.w"]
                if lossy:
                    w_rx = np.clip(w_rx, _W_CLIP, 1.0 - _W_CLIP)
                mf1 = MotionField(dp=received[f"s{s}.dp"], w=w_rx)
                aligned, _, xi = ptam_stage2(
                    received[f"s{s}.latest"], received[f"s{s}.inter"], mf1,
                    ctx, motion_specs[s], xi_spec, ideal2[s],
                    opts.stage2_variant)
                aligned_scales.append(aligned)
                if j == 1:
                    xi_report.append(xi)
            ms_aligned = MultiScaleFeatures(*aligned_scales)
        else:
            ms_aligned = MultiScaleFeatures(received["s0.latest"],
                                            received["s1.latest"],
                                            received["s2.latest"])

        ms_gt = _featurize(scenario, collab.agent_id, t, bev, render_cfg,
                           weights, phd_c, cache)
        tl = temporal_loss(ms_aligned.large, ms_gt.large, opts.window,
                           counter if j == 1 else None)
        cos_post_all.append(float(np.mean(tl.window_cosines)))
        if opts.ptam:
            cos_pre_all.append(float(np.mean(window_cosines(
                received["s0.latest"], ms_gt.large, opts.window)[0])))
        else:
            # unaligned, the large scale compared above is the received one
            cos_pre_all.append(cos_post_all[-1])
        if j == 1:
            tl_value = tl.loss

        h_collab = bev_project(ms_aligned, weights)
        m_collab = foreground_estimate(h_collab, ms_aligned, weights)
        collab_pose = _noisy_pose(agent_pose_at(scenario, collab, t - tau),
                                  scenario, k_eval, j, opts)
        h_proj, valid = transform_to_ego(h_collab, collab_pose, ego_pose, bev)
        m_proj, _ = transform_to_ego(m_collab, collab_pose, ego_pose, bev)
        h_comp = complete_voids(h_proj, valid, h_ego)
        m_comp = complete_voids(m_proj, valid, m_ego)
        w_obs = observability_weighting(m_ego, m_comp)
        loss_c, _, _ = domain_loss_and_grads(
            discriminator_forward(h_comp, weights), 1.0, w_obs)
        loss_e, _, _ = domain_loss_and_grads(logits_ego, 0.0, w_obs)
        domain_losses.append(0.5 * (loss_c + loss_e))
        refined.append(_refine_instance(h_comp, m_comp, weights, opts.combine))
        if collect:
            maps[f"collab{j}_foreground"] = m_comp
            maps[f"collab{j}_observability"] = w_obs

    fused = fuse_agents(refined, weights)
    dmap = detection_map(fused)
    gt_local = scenario_boxes_local(scenario, ego.agent_id, t)
    det = evaluate_detection(dmap, gt_local, bev, opts.detector_threshold)
    fg_loss, _ = foreground_loss(m_ego, gt_local, bev)
    if collect:
        maps["detection"] = dmap

    expected = count_similarity_ops(SCALE_CHANNELS[0], bev.height, bev.width,
                                    opts.window, mode="blockwise")
    report = RunReport(
        tau_ms=tau * 1000.0, t=t, ptam=opts.ptam, codec=opts.codec,
        sigma_local=opts.sigma_local, sigma_head_deg=opts.sigma_head_deg,
        xi=xi_report,
        ap50=det.ap.get(0.5, 0.0), ap70=det.ap.get(0.7, 0.0),
        mean_matched_iou=det.mean_matched_iou,
        n_detections=det.n_detections, n_truth=det.n_truth,
        cosine_pre=float(np.mean(cos_pre_all)) if cos_pre_all else 0.0,
        cosine_post=float(np.mean(cos_post_all)) if cos_post_all else 0.0,
        temporal_loss_value=tl_value,
        domain_loss=float(np.mean(domain_losses)) if domain_losses else 0.0,
        foreground_loss_value=fg_loss,
        codec_mse=float(np.mean(mse_all)) if mse_all else 0.0,
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
    alignment disabled but everything else identical.
    """
    opts = opts or PipelineOptions()
    if t is None:
        t = (scenario.n_frames - 1) * scenario.frame_interval
    rows = []
    cache = {}
    for sigma_local, sigma_head in sigmas:
        for tau_ms in taus_ms:
            tau = tau_ms / 1000.0
            base_kwargs = {k: getattr(opts, k) for k in (
                "xi_mode", "motion_mode", "ideal_mode", "stage2_variant",
                "codec", "phd", "phd_collaborators", "detector_threshold",
                "window", "combine", "weight_seed", "noise_seed")}
            on = run_pipeline(scenario, t, tau,
                              PipelineOptions(ptam=True, sigma_local=sigma_local,
                                              sigma_head_deg=sigma_head,
                                              **base_kwargs),
                              weights, bev, render_cfg, cache)
            off = run_pipeline(scenario, t, tau,
                               PipelineOptions(ptam=False, sigma_local=sigma_local,
                                               sigma_head_deg=sigma_head,
                                               **base_kwargs),
                               weights, bev, render_cfg, cache)
            tag = (tau_ms, sigma_local, sigma_head)
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
