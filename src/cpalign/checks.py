"""Self-contained release gate: one callable per pinned behavior.

Every check returns (name, passed, detail) and is independent of the
others.  Reference values are recomputed with straightforward
implementations rather than imported from the modules under test wherever
that is feasible, so a regression in the library cannot silently move the
goalposts. The literal forms the tests share live in :mod:`cpalign.reference`;
the rest are written out beside the check that reads them.
"""

import math
import time

import numpy as np
from dataclasses import dataclass

from .domain_align import (
    GRL_GAMMA,
    ForegroundHead,
    Pose2,
    domain_loss_and_grads,
    foreground_estimate,
    observability_weighting,
)
from .featurizer import (
    BevSpec,
    MultiScaleFeatures,
    backbone_forward,
    bev_project,
    pillar_encode,
)
from .harness.codec import (CODEC_MODES, CodecConfig, encode_decode, pack_nonzeros,
                            transmit_tensors, unpack_nonzeros)
from .harness.pipeline import (
    PipelineOptions,
    build_pipeline_weights,
    sweep,
)
from .harness.scenario import (
    AgentSpec,
    ObjectTrack,
    RenderConfig,
    Scenario,
    ideal_motion_field,
    render_pointcloud,
)
from .instance_fusion import (
    StructKernels,
    VerificationSpec,
    default_aggregate_weights,
    default_fuse_weights,
    default_verification_weights,
    foreground_loss,
    fusion_fold,
    instance_terms,
    refine_instance,
    struct_conv,
)
from .numerics import ConvSpec, conv2d
from .opcount import OpCounter, count_similarity_ops, window_grid_counts
from .pointcloud import (
    PHD_INNER_KEEP,
    PHD_INNER_SCALE,
    PHD_OUTER_KEEP,
    OrientedBox,
    fps,
    phd_apply,
)
from . import reference
from .temporal_align import (
    WINDOW,
    MotionEstimatorSpec,
    default_motion_weights,
    estimate_motion,
    ptam_stage1,
    ptam_stage2,
    warp_features,
    window_cosines,
    window_partition,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# -- 1 ----------------------------------------------------------------------

def check_window_counts() -> CheckResult:
    """Dual-tiling window counts at the pinned 256x128 grid, l=16."""
    n1, n2 = window_grid_counts(256, 128, 16)
    w1, w2 = window_partition(256, 128, 16)
    ok = (n1, n2) == (128, 105) and len(w1) == 128 and len(w2) == 105
    return _result("window-counts",
                   ok, f"counts=({n1},{n2}) enumerated=({len(w1)},{len(w2)}) "
                       "expected (128,105)")


# -- 2 ----------------------------------------------------------------------

def check_similarity_op_budget() -> CheckResult:
    """Multiplication budgets at C=64, 256x128, l=16, plus live counter."""
    g = count_similarity_ops(64, 256, 128, mode="global")
    b = count_similarity_ops(64, 256, 128, window=16, mode="blockwise")
    ratio = b.mul / g.mul
    rng = np.random.default_rng(2)
    pred = rng.normal(size=(64, 256, 128))
    target = rng.normal(size=(64, 256, 128))
    counter = OpCounter()
    window_cosines(pred, target, 16, counter)
    ok = (g.mul == 6_356_992 and b.mul == 11_571_712
          and 1.80 <= ratio <= 1.83
          and counter.counts.as_dict() == b.as_dict())
    return _result(
        "similarity-op-budget", ok,
        f"global mul={g.mul} blockwise mul={b.mul} ratio={ratio:.4f} "
        f"counter match={counter.counts.as_dict() == b.as_dict()}")


# -- 3 ----------------------------------------------------------------------

def check_warp_transport() -> CheckResult:
    """Integer displacements copy cells bitwise; half cells split evenly."""
    rng = np.random.default_rng(3)
    f = rng.normal(size=(5, 12, 12))
    dp = np.zeros((2, 12, 12))
    dp[0], dp[1] = 3.0, -2.0
    out = warp_features(f, dp, 1.0)
    expected = np.zeros_like(f)
    expected[:, :10, 3:] = f[:, 2:, :9]   # src row y+2, src col x-3
    exact = np.array_equal(out, expected)

    dp_half = np.zeros((2, 12, 12))
    dp_half[0] = 0.5
    out_h = warp_features(f, dp_half, 1.0)
    ref = np.zeros_like(f)
    ref[:, :, 1:] = 0.5 * (f[:, :, 1:] + f[:, :, :-1])
    half_err = float(np.abs(out_h[:, :, 1:] - ref[:, :, 1:]).max())
    ok = exact and half_err <= 1e-9
    return _result("warp-transport", ok,
                   f"integer transport exact={exact} half-cell err={half_err:.2e} "
                   "(tol 1e-9)")


# -- 4 ----------------------------------------------------------------------

def _compensation_scenario() -> tuple:
    scn = Scenario(
        agents=[AgentSpec("ego", Pose2(0.0, 0.0, 0.0)),
                AgentSpec("collab", Pose2(1.6, 0.8, 0.0))],
        objects=[ObjectTrack(OrientedBox(-12.0, 1.2, 0.8, 4.2, 1.8, 1.6),
                             vx=16.0)],
        duration=1.2, seed=11)
    cfg = RenderConfig(include_ground=False, density=20000.0)
    return scn, cfg


def check_delay_compensation() -> CheckResult:
    """Oracle scaling plus ideal motion reproduces the current frame.

    The object moves 4 cells per frame, so every scale of the pyramid sees
    an integer per-frame step and the two warps must be numerically exact.
    Window cosine against the ground-truth frame must improve at every
    tested delay.
    """
    scn, cfg = _compensation_scenario()
    bev = BevSpec.centered(19.2, 19.2)
    weights = build_pipeline_weights(0)
    t = 1.2
    cache = {}

    def feats(at):
        key = round(at, 3)
        if key not in cache:
            cloud = render_pointcloud(scn, "collab", at, cfg)
            cache[key] = backbone_forward(pillar_encode(cloud, bev), weights)
        return cache[key]

    ms_gt = feats(t)
    worst = 0.0
    improvements = []
    for tau_ms in (100, 200, 300, 400, 500):
        tau = tau_ms / 1000.0
        ms_prev, ms_latest = feats(t - tau - 0.1), feats(t - tau)
        for s in range(3):
            # the footprint fields the pipeline runs under ideal motion
            mf1 = ideal_motion_field(scn, "collab", t - tau - 0.1, t - tau, bev, s)
            mf2 = ideal_motion_field(scn, "collab", t - tau, t, bev, s)
            inter = ptam_stage1(ms_prev.scales[s], mf1)
            # oracle xi: the delay in frame intervals
            aligned = ptam_stage2(inter, mf2, tau / 0.1)
            worst = max(worst, float(np.abs(aligned - ms_gt.scales[s]).max()))
            if s == 0:
                pre = float(np.mean(window_cosines(
                    ms_latest.scales[0], ms_gt.scales[0], WINDOW)[0]))
                post = float(np.mean(window_cosines(
                    aligned, ms_gt.scales[0], WINDOW)[0]))
                improvements.append(post > pre)
    ok = worst <= 1e-6 and all(improvements)
    return _result("delay-compensation", ok,
                   f"max |aligned - truth| = {worst:.3e} (tol 1e-6), cosine "
                   f"improved at {sum(improvements)}/5 delays")


# -- 5 ----------------------------------------------------------------------

def _fd_max_rel_err(loss_fn, x, grad, rng, samples=24, eps=1e-6) -> float:
    flat = x.ravel()
    gflat = grad.ravel()
    idx = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
    scale = max(float(np.abs(gflat[idx]).max()), 1e-8)
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_fn(x)
        flat[i] = orig - eps
        down = loss_fn(x)
        flat[i] = orig
        fd = (up - down) / (2.0 * eps)
        worst = max(worst, abs(fd - gflat[i]) / scale)
    return worst


def check_loss_gradients() -> CheckResult:
    """Central-difference agreement for all three analytic gradients."""
    worst = {"temporal": 0.0, "domain": 0.0, "foreground": 0.0}
    spec = BevSpec.centered(6.4, 6.4)
    boxes = [OrientedBox(0.6, -0.5, 0.5, 2.2, 1.4, 1.0, 0.4)]
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)

        pred = rng.normal(size=(3, 16, 16))
        target = rng.normal(size=(3, 16, 16))
        res = reference.temporal_loss(pred, target, 5)
        worst["temporal"] = max(worst["temporal"], _fd_max_rel_err(
            lambda x: reference.temporal_loss(x, target, 5).loss, pred, res.grad, rng))

        logits = rng.normal(size=(1, 8, 8))
        w = rng.uniform(0.1, 1.0, size=(1, 8, 8))
        label = float(trial % 2)
        _, dlogits, _ = domain_loss_and_grads(logits, label, w)
        worst["domain"] = max(worst["domain"], _fd_max_rel_err(
            lambda x: domain_loss_and_grads(x, label, w)[0], logits, dlogits,
            rng))

        p = rng.uniform(0.05, 0.95, size=(1, 16, 16))
        _, dpred = foreground_loss(p, boxes, spec)
        worst["foreground"] = max(worst["foreground"], _fd_max_rel_err(
            lambda x: foreground_loss(x, boxes, spec)[0], p, dpred, rng))
    ok = all(v <= 1e-4 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    return _result("loss-gradients", ok, f"max rel err {detail} (tol 1e-4)")


# -- 6 ----------------------------------------------------------------------

def check_gradient_reversal() -> CheckResult:
    """Feature gradient is exactly -0.1 times the logit gradient."""
    ok = GRL_GAMMA == -0.1
    worst_exact = True
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        logits = rng.normal(size=(1, 6, 6))
        w = rng.uniform(0.2, 1.0, size=(1, 6, 6))
        _, dlogits, dfeat = domain_loss_and_grads(logits, float(trial % 2), w)
        if not np.array_equal(dfeat, -0.1 * dlogits):
            worst_exact = False
    ok = ok and worst_exact
    return _result("gradient-reversal", ok,
                   f"gamma={GRL_GAMMA}, bitwise factor match over 20 trials: "
                   f"{worst_exact}")


# -- 7 ----------------------------------------------------------------------

def _fps_reference(points: np.ndarray, ratio: float) -> np.ndarray:
    """Quadratic-time restatement of the sampling rule."""
    xyz = points[:, :3]
    n = xyz.shape[0]
    k = int(math.ceil(ratio * n))
    centroid = xyz.mean(axis=0)
    chosen = [int(np.argmax(((xyz - centroid) ** 2).sum(axis=1)))]
    while len(chosen) < k:
        best_i, best_d = -1, -1.0
        for i in range(n):
            if i in chosen:
                continue
            d = min(((xyz[i] - xyz[j]) ** 2).sum() for j in chosen)
            if d > best_d:
                best_i, best_d = i, d
        chosen.append(best_i)
    return np.sort(np.array(chosen))


def check_fps_reference() -> CheckResult:
    """Library sampler matches the quadratic reference on 100 seeded clouds."""
    mismatches = 0
    trials = 0
    per_beta = {0.25: 34, 0.5: 33, 0.75: 33}
    for beta, reps in per_beta.items():
        for _ in range(reps):
            rng = np.random.default_rng(3000 + trials)
            n = int(rng.integers(12, 40))
            pts = np.concatenate([rng.normal(size=(n, 3)),
                                  rng.uniform(size=(n, 1))], axis=1)
            got = fps(pts, beta)
            want = _fps_reference(pts, beta)
            if not np.array_equal(got, want):
                mismatches += 1
            trials += 1
    ok = mismatches == 0 and trials == 100
    return _result("fps-reference", ok,
                   f"{trials} trials across beta 0.25/0.5/0.75, "
                   f"{mismatches} mismatches")


# -- 8 ----------------------------------------------------------------------

def check_downsample_contract() -> CheckResult:
    """Kept counts follow ceil(ratio * n) per region; the rest is untouched."""
    rng = np.random.default_rng(88)
    box_a = OrientedBox(0.0, 0.0, 0.0, 4.0, 4.0, 2.0)
    box_b = OrientedBox(10.0, 0.0, 0.0, 4.0, 4.0, 2.0, 0.3)
    inside_a = np.concatenate([rng.uniform(-1.9, 1.9, size=(60, 3)) * [1, 1, 0.5],
                               rng.uniform(size=(60, 1))], axis=1)
    inside_b = inside_a.copy()
    inside_b[:, 0] += 10.0
    far = np.concatenate([rng.uniform(30, 40, size=(40, 3)),
                          rng.uniform(size=(40, 1))], axis=1)
    cloud = np.concatenate([inside_a, far[:20], inside_b, far[20:]], axis=0)
    out = phd_apply(cloud, [box_a, box_b], (0.0, 0.0), 1)

    kept_rows = {tuple(r) for r in out}
    far_ok = all(tuple(r) in kept_rows for r in far)

    expected = cloud.shape[0]
    for box in (box_a, box_b):
        member = box.contains(cloud[:, :3])
        inner = box.scaled(PHD_INNER_SCALE).contains(cloud[:, :3]) & member
        outer = member & ~inner
        expected -= int(member.sum())
        expected += (math.ceil(PHD_INNER_KEEP * inner.sum())
                     + math.ceil(PHD_OUTER_KEEP * outer.sum()))
    count_ok = out.shape[0] == expected

    order = [np.nonzero((cloud == r).all(axis=1))[0][0] for r in out]
    order_ok = order == sorted(order)
    ok = far_ok and count_ok and order_ok
    return _result("downsample-contract", ok,
                   f"kept={out.shape[0]} expected={expected}, pass-through "
                   f"intact={far_ok}, order preserved={order_ok}")


# -- 9 ----------------------------------------------------------------------

def check_ambiguity_weights() -> CheckResult:
    """Weights live in (0, 0.5] and depend only on the confidence gap."""
    rng = np.random.default_rng(9)
    a = rng.uniform(size=(1, 20, 20))
    b = rng.uniform(size=(1, 20, 20))
    w = observability_weighting(a, b)
    bounds_ok = bool(np.all(w > 0.0) and np.all(w <= 0.5))
    agree = observability_weighting(a, a.copy())
    peak_ok = bool(np.all(agree == 0.5))
    shift = 0.173
    w_shift = observability_weighting(a + shift, b + shift)
    shift_err = float(np.abs(w_shift - w).max())
    ok = bounds_ok and peak_ok and shift_err <= 1e-9
    return _result("ambiguity-weights", ok,
                   f"bounds ok={bounds_ok}, equal maps hit 0.5={peak_ok}, "
                   f"shared-shift dev={shift_err:.2e} (tol 1e-9)")


# -- 10 ---------------------------------------------------------------------

def check_struct_conv() -> CheckResult:
    """Fused bank equals the five-pass sum; derived banks keep their nulls."""
    rng = np.random.default_rng(10)
    sk = StructKernels(base=rng.normal(size=(6, 3, 3)),
                       biases=rng.normal(size=(5, 6)))
    x = rng.normal(size=(6, 14, 14))
    separate = np.zeros_like(x)
    for bank, bias in zip(sk.banks(), sk.biases):
        separate += conv2d(x, ConvSpec(6, 6, 3, 3, bank.reshape(6, 1, 3, 3),
                                       bias=bias, padding=1, groups=6))
    diff = float(np.abs(struct_conv(x, sk) - separate).max())

    cs_sum = float(np.abs(sk.center_surround().sum(axis=(1, 2))).max())
    hz = sk.horizontal()
    vt = sk.vertical()
    structural = (np.array_equal(hz[:, :, 1], np.zeros((6, 3)))
                  and np.array_equal(vt[:, 1, :], np.zeros((6, 3))))
    sym = np.zeros((1, 3, 3))
    sym[0] = [[1.0, 2.0, 1.0], [2.0, 5.0, 2.0], [1.0, 2.0, 1.0]]
    ang_null = np.array_equal(StructKernels(base=sym).angular(), np.zeros_like(sym))
    ok = diff <= 1e-6 and cs_sum <= 1e-12 and structural and ang_null
    return _result("struct-conv", ok,
                   f"fused vs separate={diff:.2e} (tol 1e-6), "
                   f"center-surround residual={cs_sum:.1e}, zero "
                   f"columns/rows={structural}, symmetric angular null={ang_null}")


# -- 11 ---------------------------------------------------------------------

def check_fusion_algebra() -> CheckResult:
    """Neutral gates, epsilon background linearity, fold identities, and the
    folded verification gate, folded foreground head, split motion encoder,
    per-agent fusion terms and folded IFAM terms against their literal
    builds."""
    c, h, w = 8, 10, 10
    rng = np.random.default_rng(11)
    fore = rng.normal(size=(c, h, w))
    enh = rng.normal(size=(c, h, w))
    h_map = rng.normal(size=(c, h, w))

    zeroed = {name: np.zeros_like(v) for name, v in
              default_verification_weights(c, 0).items()}
    gates = reference.verification_weights(fore, enh,
                                           VerificationSpec.from_weights(zeroed))
    neutral = bool(np.all(gates == 0.5))

    # the whole branch under the neutral gates, ended in collaborator 1's
    # term of a two-agent fusion: eps * A_1 (h - h * m) is linear
    branch_rng = np.random.default_rng([11, 1])
    m_map = branch_rng.uniform(size=(1, h, w))
    struct = StructKernels(base=branch_rng.normal(size=(c, 3, 3)))
    fuse = default_fuse_weights(c, 0)
    wts = default_aggregate_weights(c, 0) | fuse
    with_eps, without = (refine_instance(h_map, m_map, struct,
                                         VerificationSpec.from_weights(zeroed),
                                         instance_terms(weights, 2)[1])
                         for weights in (wts, wts | {"ifam.eps": np.array([0.0])}))
    back = conv2d(0.1 * (h_map - h_map * m_map), fusion_fold(fuse, 2)[1])
    eps_dev = float(np.abs((with_eps - without) - back).max())

    fuse_agents = reference.fuse_agents
    fold_single = np.array_equal(fuse_agents([fore], fuse), fore)
    parts = [rng.normal(size=(c, h, w)) for _ in range(3)]
    folded = fuse_agents(parts, fuse)
    manual = fuse_agents([fuse_agents(parts[:2], fuse), parts[2]], fuse)
    fold_assoc = np.array_equal(folded, manual)

    spec = VerificationSpec.from_weights(default_verification_weights(c, 3))
    gate_dev = float(np.abs(reference.verification_weights(fore, enh, spec)
                            - reference.literal_gate(fore, enh, spec)).max())
    fg_dev = _folded_foreground_dev(rng)
    motion_dev = _split_motion_dev(rng)
    terms_dev = _fusion_terms_dev(rng)
    ifam_dev = _folded_ifam_dev(rng)
    ok = (neutral and eps_dev <= 1e-9 and fold_single and fold_assoc
          and max(gate_dev, fg_dev, motion_dev, terms_dev, ifam_dev) <= 1e-12)
    return _result("fusion-algebra", ok,
                   f"neutral gates={neutral}, eps linearity dev={eps_dev:.2e} "
                   f"(tol 1e-9), fold single={fold_single}, fold "
                   f"chain={fold_assoc}, folded gate dev={gate_dev:.2e}, folded "
                   f"foreground dev={fg_dev:.2e}, split motion dev="
                   f"{motion_dev:.2e}, per-agent fusion terms dev={terms_dev:.2e}, "
                   f"folded IFAM term dev={ifam_dev:.2e} (tol 1e-12)")


def _fusion_terms_dev(rng) -> float:
    """Sum of per-agent fusion terms vs the literal fuse_agents fold over 1,
    2 and 3 agents, with a non-zero fusion bias."""
    c = 8
    weights = default_fuse_weights(c, seed=6)
    weights["ifam.fuse.bias"] = rng.normal(size=c)
    dev = 0.0
    for n in (1, 2, 3):
        maps = [rng.normal(size=(c, 5, 6)) for _ in range(n)]
        fold = fusion_fold(weights, n)
        terms = sum(conv2d(x, fold[k]) for k, x in enumerate(maps))
        dev = max(dev, float(np.abs(terms - reference.fuse_agents(maps, weights)).max()))
    return dev


def _folded_ifam_dev(rng) -> float:
    """Each agent's folded IFAM term vs its literal refined map through
    fusion_fold's term, over 1, 2 and 3 agents, sum and concat, with
    non-zero aggregation, fusion and bank biases."""
    c, rows = 8, 5
    struct = StructKernels(base=rng.normal(size=(c, 3, 3)),
                           biases=rng.normal(size=(5, c)))
    verif = default_verification_weights(c, 4)
    verif = {name: rng.normal(scale=0.5, size=v.shape) if name.endswith(".bias") else v
             for name, v in verif.items()}
    spec = VerificationSpec.from_weights(verif)
    dev = 0.0
    for combine in ("sum", "concat"):
        weights = default_aggregate_weights(c, 4, combine) | default_fuse_weights(c, 4)
        weights["ifam.agg.bias"] = rng.normal(size=c)
        weights["ifam.fuse.bias"] = rng.normal(size=c)
        weights["ifam.eps"] = np.array([0.37])
        for n in (1, 2, 3):
            fold, terms = fusion_fold(weights, n, rows), instance_terms(weights, n, rows)
            for k in range(n):
                h = rng.normal(size=(c, 5, 6))
                m = rng.uniform(size=(1, 5, 6))
                want = conv2d(reference.literal_refined(h, m, struct, spec, weights),
                              fold[k])
                got = refine_instance(h, m, struct, spec, terms[k])
                dev = max(dev, float(np.abs(got - want).max()))
    return dev


def _folded_foreground_dev(rng) -> float:
    """Foreground head on low-res scales vs its 3x3 conv over all 384
    projected channels, with non-zero conv and tconv biases."""
    weights = dict(build_pipeline_weights(0))
    for name in ("fg.conv1.bias", "bevproj.large.bias", "bevproj.middle.bias",
                 "bevproj.small.bias"):
        weights[name] = rng.normal(size=weights[name].shape)
    # keep the sigmoid off its flat tails so deviations show
    weights["fg.conv2.weight"] = 0.1 * weights["fg.conv2.weight"]
    ms = MultiScaleFeatures(rng.normal(size=(64, 8, 8)), rng.normal(size=(128, 4, 4)),
                            rng.normal(size=(256, 2, 2)))
    projected = bev_project(ms, weights)
    literal = reference.literal_foreground(projected, weights)
    head = ForegroundHead.from_weights(weights)
    return float(np.abs(foreground_estimate(projected, ms, head) - literal).max())


def _split_motion_dev(rng) -> float:
    """Motion estimator with the shared difference term vs one 2C -> C encoder
    over each concatenated (frame, difference) pair, non-zero heads."""
    c = 8
    w = default_motion_weights(c, 5)
    w["enc.bias"] = rng.normal(size=c)
    w["dp.weight"] = rng.normal(scale=0.1, size=(2, c, 3, 3))
    w["dp.bias"] = rng.normal(size=2)
    w["w.weight"] = rng.normal(scale=0.1, size=(1, c, 3, 3))
    latest, previous = rng.normal(size=(2, c, 6, 6))
    dp, conf = reference.literal_motion(latest, previous, w)
    mf = estimate_motion(latest, previous, MotionEstimatorSpec.from_weights(w, ""))
    return max(float(np.abs(mf.dp - dp).max()), float(np.abs(mf.w - conf).max()))


# -- 12 ---------------------------------------------------------------------

def check_codec_bounds() -> CheckResult:
    """int8 round trip stays within max|x| / 254 per element."""
    worst_margin = -np.inf
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        x = rng.normal(scale=rng.uniform(0.1, 10.0), size=(4, 9, 9))
        dec, _ = encode_decode(x, "int8")
        bound = float(np.abs(x).max()) / 254.0
        err = float(np.abs(dec - x).max())
        worst_margin = max(worst_margin, err - bound)
        if err > bound + 1e-12:
            ok = False
    zeros, mse = encode_decode(np.zeros((2, 3, 3)), "int8")
    ok = ok and np.array_equal(zeros, np.zeros((2, 3, 3))) and mse == 0.0
    packed_ok = _packed_round_trip_exact()
    return _result("codec-bounds", ok and packed_ok,
                   f"worst err-bound margin={worst_margin:.2e} over 100 "
                   "tensors (tol 1e-12), zero tensor exact; packed channel "
                   f"{'bit-exact' if packed_ok else 'DIFFERS'} under "
                   f"{'/'.join(CODEC_MODES)}")


def _packed_round_trip_exact() -> bool:
    """Whether a relu'd payload with -0.0s, a tensor with a subnormal int8
    peak and an all-zero tensor cross the packed channel (pack, transmit,
    unpack) as ``encode_decode`` delivers them, bit for bit, under every
    codec."""
    feat = np.maximum(np.random.default_rng(4100).normal(size=(16, 6, 6)), 0.0)
    feat[:, 0, :2] = -0.0
    payload = {"feat": feat,
               "tiny": np.array([[[5e-324, -1e-320, 0.0], [-0.0, 2e-322, -5e-324]]]),
               "zero": np.zeros((3, 4, 4))}
    shapes = {name: a.shape for name, a in payload.items()}
    for mode in CODEC_MODES:
        packed = pack_nonzeros(payload, mode)
        received = unpack_nonzeros(transmit_tensors(packed, CodecConfig(mode))[0],
                                   shapes, mode)
        for name, a in payload.items():
            want = encode_decode(a, mode)[0]
            if received[name].tobytes() != want.tobytes():
                return False
    return True


# -- 13 ---------------------------------------------------------------------

def check_delay_sweep_ordering() -> CheckResult:
    """Aligned runs never trail the stale baseline across the delay grid."""
    from .harness.scenario import generate_scenario

    start = time.perf_counter()
    scn = generate_scenario("crossing", seed=0)
    taus_ms = (100, 200, 300, 400, 500)
    rows = sweep(scn, taus_ms, PipelineOptions(phd=False), t=1.2)
    iou = {(r["metric"], r["tau_ms"]): r["value"] for r in rows}
    violations = []
    strict_ok = True
    for tau_ms in taus_ms:
        on, off = iou["mean_iou_ptam", tau_ms], iou["mean_iou_baseline", tau_ms]
        if on < off - 1e-9:
            violations.append(tau_ms)
        if tau_ms >= 300 and not (on > off):
            strict_ok = False
    elapsed = time.perf_counter() - start
    ok = not violations and strict_ok and elapsed < 120.0
    return _result("delay-sweep-ordering", ok,
                   f"violations at tau={violations or 'none'}, strict gain "
                   f"at >=300ms={strict_ok}, wall={elapsed:.1f}s (budget 120s)")


ALL_CHECKS = (
    ("window-counts", check_window_counts),
    ("similarity-op-budget", check_similarity_op_budget),
    ("warp-transport", check_warp_transport),
    ("delay-compensation", check_delay_compensation),
    ("loss-gradients", check_loss_gradients),
    ("gradient-reversal", check_gradient_reversal),
    ("fps-reference", check_fps_reference),
    ("downsample-contract", check_downsample_contract),
    ("ambiguity-weights", check_ambiguity_weights),
    ("struct-conv", check_struct_conv),
    ("fusion-algebra", check_fusion_algebra),
    ("codec-bounds", check_codec_bounds),
    ("delay-sweep-ordering", check_delay_sweep_ordering),
)


def run_all(names=None) -> list:
    unknown = set(names or ()) - {n for n, _ in ALL_CHECKS}
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(sorted(unknown))}")
    return [fn() for name, fn in ALL_CHECKS if not names or name in names]
