"""Scenario rendering, transmission, detection, and pipeline behavior."""

import json
import math
import os

import numpy as np
import pytest

from cpalign.domain_align import Pose2
from cpalign.featurizer import BevSpec
from cpalign.harness.codec import CodecConfig, encode_decode, transmit_tensors
from cpalign.harness.config import ConfigError, load_config
from cpalign.harness.detect import (
    box_to_aabb,
    detection_map,
    evaluate_detection,
    extract_detections,
    iou_aabb,
)
from cpalign.harness.pipeline import (
    PipelineOptions,
    build_pipeline_weights,
    run_pipeline,
    sweep,
    write_sweep_csv,
)
from cpalign.harness.scenario import (
    AgentSpec,
    ObjectTrack,
    RenderConfig,
    Scenario,
    agent_pose_at,
    generate_scenario,
    ideal_motion_field,
    load_scenario,
    object_box_at,
    render_pointcloud,
    save_scenario,
    scenario_boxes_local,
)
from cpalign.numerics import ShapeError
from cpalign.pointcloud import OrientedBox


def _simple_scenario(**kw):
    defaults = dict(
        agents=[AgentSpec("ego", Pose2(0.0, 0.0, 0.0)),
                AgentSpec("collab", Pose2(1.0, 0.5, 0.0))],
        objects=[ObjectTrack(OrientedBox(-4.0, 1.0, 0.8, 4.2, 1.8, 1.6),
                             vx=4.0)],
        duration=1.0, seed=5)
    defaults.update(kw)
    return Scenario(**defaults)


# ---------------------------------------------------------------------------
# scenario and kinematics

def test_frame_grid_rejects_off_grid_times():
    scn = _simple_scenario()
    assert scn.frame_index(0.3) == 3
    with pytest.raises(ShapeError):
        scn.frame_index(0.35)
    with pytest.raises(ShapeError):
        scn.frame_index(1.2)  # past duration


def test_duplicate_agent_ids_rejected():
    with pytest.raises(ShapeError):
        _simple_scenario(agents=[AgentSpec("a", Pose2()), AgentSpec("a", Pose2())])


def test_straight_track_closed_form():
    scn = _simple_scenario()
    b = object_box_at(scn, scn.objects[0], 0.7)
    assert b.cx == pytest.approx(-4.0 + 4.0 * 0.7, abs=1e-12)
    assert b.cy == 1.0 and b.yaw == 0.0


def test_turning_track_rotates_velocity():
    track = ObjectTrack(OrientedBox(0.0, 0.0, 0.8, 4.2, 1.8, 1.6),
                        vx=2.0, yaw_rate=math.pi / 2.0)
    scn = _simple_scenario(objects=[track])
    # after 0.2 s with omega = pi/2 rad/s the heading turned 0.1 pi
    b = object_box_at(scn, track, 0.2)
    step = math.pi / 2.0 * 0.1
    expected_x = 2.0 * 0.1 + 2.0 * math.cos(step) * 0.1
    expected_y = 2.0 * math.sin(step) * 0.1
    assert b.cx == pytest.approx(expected_x, abs=1e-12)
    assert b.cy == pytest.approx(expected_y, abs=1e-12)
    assert b.yaw == pytest.approx(2 * step, abs=1e-12)


def test_moving_agent_pose():
    scn = _simple_scenario(agents=[AgentSpec("ego", Pose2(0, 0, 0), vx=1.0),
                                   AgentSpec("c", Pose2(1, 0, 0))])
    p = agent_pose_at(scn, scn.agents[0], 0.4)
    assert p.x == pytest.approx(0.4, abs=1e-12)


# ---------------------------------------------------------------------------
# rendering

def test_render_deterministic_and_frozen_counts():
    scn = _simple_scenario()
    a = render_pointcloud(scn, "ego", 0.3)
    b = render_pointcloud(scn, "ego", 0.3)
    assert np.array_equal(a, b)
    # same body-frame samples at another time: identical point count
    c = render_pointcloud(scn, "ego", 0.8)
    assert c.shape == a.shape


def test_render_rigid_translation_between_frames():
    scn = _simple_scenario()
    cfg = RenderConfig(include_ground=False)
    a = render_pointcloud(scn, "ego", 0.2, cfg)
    b = render_pointcloud(scn, "ego", 0.5, cfg)
    d = b[:, :3] - a[:, :3]
    assert np.abs(d - d[0]).max() < 1e-12
    assert d[0, 0] == pytest.approx(4.0 * 0.3, abs=1e-9)
    assert np.array_equal(a[:, 3], b[:, 3])


def test_render_density_falls_with_distance():
    near = ObjectTrack(OrientedBox(3.0, 0.0, 0.8, 4.2, 1.8, 1.6))
    far = ObjectTrack(OrientedBox(9.0, 0.0, 0.8, 4.2, 1.8, 1.6))
    scn = _simple_scenario(objects=[near, far])
    cfg = RenderConfig(include_ground=False, min_points=1)
    cloud = render_pointcloud(scn, "ego", 0.0, cfg)
    n_near = int(np.sum(cloud[:, 0] < 6.0))
    n_far = cloud.shape[0] - n_near
    # 1/d^2 scaling: distances 3 versus 9 give a 9x point ratio
    assert n_near > 4 * n_far


def test_render_ground_static_in_world():
    scn = _simple_scenario()
    cfg = RenderConfig(include_ground=True)
    a = render_pointcloud(scn, "ego", 0.0, cfg)
    b = render_pointcloud(scn, "ego", 0.6, cfg)
    n_obj = render_pointcloud(scn, "ego", 0.0,
                              RenderConfig(include_ground=False)).shape[0]
    assert np.array_equal(a[n_obj:], b[n_obj:])


def test_agent_frame_rotation():
    # same agent slot, same seed, pose rotated a quarter turn: local
    # coordinates rotate while sample identity stays fixed
    base = dict(objects=[ObjectTrack(OrientedBox(-4.0, 1.0, 0.8, 4.2, 1.8, 1.6),
                                     vx=4.0)],
                duration=1.0, seed=5)
    cfg = RenderConfig(include_ground=False)
    a = render_pointcloud(Scenario(agents=[AgentSpec("ego", Pose2(0, 0, 0))],
                                   **base), "ego", 0.0, cfg)
    b = render_pointcloud(
        Scenario(agents=[AgentSpec("ego", Pose2(0, 0, math.pi / 2))], **base),
        "ego", 0.0, cfg)
    assert a.shape == b.shape
    assert np.abs(b[:, 0] - a[:, 1]).max() < 1e-12
    assert np.abs(b[:, 1] + a[:, 0]).max() < 1e-12
    assert np.array_equal(a[:, 2:], b[:, 2:])


def test_scenario_json_roundtrip(tmp_path):
    scn = generate_scenario("turning", seed=9)
    path = tmp_path / "scn.json"
    save_scenario(scn, path)
    back = load_scenario(path)
    assert len(back.agents) == len(scn.agents)
    assert back.seed == scn.seed
    a = render_pointcloud(scn, "ego", 0.4)
    b = render_pointcloud(back, "ego", 0.4)
    assert np.array_equal(a, b)


def test_malformed_scenario_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"agents": [{"id": "x"}], "objects": []}))
    with pytest.raises(ShapeError):
        load_scenario(path)


# ---------------------------------------------------------------------------
# ideal motion fields

def test_ideal_motion_footprint_stamps_only_track_cells():
    scn = _simple_scenario()
    mf = ideal_motion_field(scn, "ego", 0.2, 0.4, -9.6, -9.6, 0.4, 48, 48)
    stamped = mf.dp[0] != 0.0
    assert 0 < stamped.sum() < 48 * 48
    # one cell per frame along +x, nothing along +y
    np.testing.assert_allclose(mf.dp[0][stamped], 1.0, rtol=0, atol=1e-12)
    assert np.all(mf.dp[1] == 0.0)
    assert np.all((mf.w > 0.0) & (mf.w < 1.0))


def test_ideal_motion_global_requires_shared_velocity():
    scn = generate_scenario("crossing", seed=0)
    with pytest.raises(ShapeError):
        ideal_motion_field(scn, "ego", 0.2, 0.4, -9.6, -9.6, 0.4, 48, 48,
                           mode="global")
    solo = _simple_scenario()
    mf = ideal_motion_field(solo, "ego", 0.2, 0.4, -9.6, -9.6, 0.4, 48, 48,
                            mode="global")
    np.testing.assert_allclose(mf.dp[0], 1.0, rtol=0, atol=1e-12)


def test_ideal_motion_unknown_mode():
    with pytest.raises(ShapeError):
        ideal_motion_field(_simple_scenario(), "ego", 0.0, 0.1,
                           -9.6, -9.6, 0.4, 48, 48, mode="exact")


# ---------------------------------------------------------------------------
# codec

def test_identity_codec_lossless():
    x = np.random.default_rng(0).normal(size=(3, 5, 5))
    dec, mse = encode_decode(x, "identity")
    assert np.array_equal(dec, x) and mse == 0.0


def test_fp16_clips_and_bounds_error():
    x = np.array([1e6, -1e6, 0.125, 3.0])
    dec, _ = encode_decode(x, "fp16")
    assert dec[0] == float(np.finfo(np.float16).max)
    assert dec[2] == 0.125  # exactly representable
    rng = np.random.default_rng(1)
    y = rng.normal(size=(4, 6, 6))
    dec_fp16, mse_fp16 = encode_decode(y, "fp16")
    dec_int8, mse_int8 = encode_decode(y, "int8")
    assert mse_fp16 < mse_int8  # half precision beats 8-bit on this scale
    assert np.abs(dec_int8 - y).max() <= np.abs(y).max() / 254.0 + 1e-12


def test_int8_zero_tensor():
    dec, mse = encode_decode(np.zeros((2, 2)), "int8")
    assert np.array_equal(dec, np.zeros((2, 2))) and mse == 0.0


def test_transmit_tensors_reports_per_name():
    rng = np.random.default_rng(2)
    bundle = {"a": rng.normal(size=(2, 3)), "b": np.zeros((2, 2))}
    dec, errs = transmit_tensors(bundle, CodecConfig("int8"))
    assert set(dec) == {"a", "b"} and errs["b"] == 0.0 and errs["a"] > 0.0


def test_unknown_codec_rejected():
    with pytest.raises(ShapeError):
        encode_decode(np.zeros(3), "zip")
    with pytest.raises(ShapeError):
        CodecConfig("zip")


# ---------------------------------------------------------------------------
# detector

def test_detector_recovers_painted_boxes_exactly():
    spec = BevSpec.centered(12.8, 12.8)
    gt = [OrientedBox(-2.0, -2.0, 0.5, 2.4, 1.6, 1.0),
          OrientedBox(3.2, 2.4, 0.5, 3.2, 0.8, 1.0)]
    from cpalign.featurizer import box_footprint_mask
    dmap = box_footprint_mask(gt, spec).astype(float)[None]
    report = evaluate_detection(dmap, gt, spec, threshold=0.5)
    assert report.ap[0.5] == pytest.approx(1.0)
    assert report.ap[0.7] == pytest.approx(1.0)
    assert report.mean_matched_iou == pytest.approx(1.0)
    assert report.n_detections == 2


def test_detector_empty_map():
    spec = BevSpec.centered(6.4, 6.4)
    report = evaluate_detection(np.zeros((1, 16, 16)),
                                [OrientedBox(0, 0, 0.5, 2, 1, 1)], spec)
    assert report.ap[0.5] == 0.0 and report.n_detections == 0
    assert report.mean_matched_iou == 0.0


def test_detection_map_normalized():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(130, 8, 8))
    d = detection_map(f)
    assert d.shape == (1, 8, 8)
    assert d.max() == pytest.approx(1.0) and d.min() >= 0.0


def test_iou_aabb_values():
    a = np.array([0.0, 0.0, 2.0, 2.0])
    assert iou_aabb(a, a) == pytest.approx(1.0)
    assert iou_aabb(a, np.array([2.0, 2.0, 4.0, 4.0])) == 0.0
    assert iou_aabb(a, np.array([1.0, 0.0, 3.0, 2.0])) == pytest.approx(1.0 / 3.0)


def test_extract_detections_orders_by_confidence():
    spec = BevSpec.centered(6.4, 6.4)
    d = np.zeros((1, 16, 16))
    d[0, 2:4, 2:4] = 0.6
    d[0, 10:12, 10:12] = 0.9
    dets = extract_detections(d, spec, 0.5)
    assert len(dets) == 2 and dets[0].confidence > dets[1].confidence


# ---------------------------------------------------------------------------
# pipeline

_BEV_SMALL = BevSpec.centered(12.8, 12.8)


def _fast_scene():
    return _simple_scenario(
        objects=[ObjectTrack(OrientedBox(-4.0, 1.0, 0.8, 4.2, 1.8, 1.6),
                             vx=4.0)],
        duration=0.8)


def test_run_pipeline_deterministic():
    scn = _fast_scene()
    opts = PipelineOptions(phd=False)
    a = run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL)
    b = run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL)
    da, db = a.as_dict(), b.as_dict()
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_run_pipeline_cache_equivalent():
    scn = _fast_scene()
    opts = PipelineOptions(phd=False)
    cache = {}
    a = run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL, cache=cache)
    b = run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL, cache=cache)
    assert cache  # the memo actually filled
    da, db = a.as_dict(), b.as_dict()
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_run_pipeline_oracle_xi_reported():
    scn = _fast_scene()
    r = run_pipeline(scn, 0.8, 0.3, PipelineOptions(phd=False), bev=_BEV_SMALL)
    assert r.xi == pytest.approx([3.0, 3.0, 3.0])
    assert r.ops_match_closed_form
    assert r.n_truth == 1


def test_run_pipeline_rejects_missing_history():
    scn = _fast_scene()
    with pytest.raises(ShapeError):
        run_pipeline(scn, 0.8, 0.8, PipelineOptions(phd=False), bev=_BEV_SMALL)


def test_run_pipeline_noise_and_codec_paths():
    scn = _fast_scene()
    r = run_pipeline(scn, 0.8, 0.2,
                     PipelineOptions(phd=False, codec="int8", sigma_local=0.3,
                                     sigma_head_deg=2.0),
                     bev=_BEV_SMALL)
    assert r.codec_mse > 0.0
    assert r.sigma_local == 0.3


def test_run_pipeline_learned_modes_smoke():
    scn = _fast_scene()
    r = run_pipeline(scn, 0.8, 0.2,
                     PipelineOptions(phd=False, motion_mode="learned",
                                     xi_mode="learned"),
                     bev=_BEV_SMALL)
    assert all(x >= 0.0 for x in r.xi)


def test_run_pipeline_collect_maps():
    scn = _fast_scene()
    r = run_pipeline(scn, 0.8, 0.2, PipelineOptions(phd=False),
                     bev=_BEV_SMALL, collect=True)
    assert set(r.maps) >= {"ego_foreground", "collab1_foreground", "detection"}


def test_sweep_rows_and_csv(tmp_path):
    scn = _fast_scene()
    rows = sweep(scn, [0, 200], PipelineOptions(phd=False), bev=_BEV_SMALL)
    metrics = {r["metric"] for r in rows}
    assert {"mean_iou_ptam", "mean_iou_baseline", "cosine_pre",
            "cosine_post"} <= metrics
    assert len(rows) == 2 * 10
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == "metric,value,tau_ms,sigma_local_m,sigma_head_deg"


def test_build_weights_cover_all_stages_and_roundtrip(tmp_path):
    from cpalign.numerics import load_weights, save_weights
    w = build_pipeline_weights(0)
    names = set(w)
    for probe in ("backbone.conv1.weight", "bevproj.small.weight",
                  "fg.conv1.weight", "disc.conv2.bias",
                  "ptam.motion.s0.enc.weight", "ptam.motion.s2.w.bias",
                  "ptam.xi.mlp1.weight", "ifam.struct.weight",
                  "ifam.verif.gconv.weight", "ifam.agg.weight", "ifam.eps",
                  "ifam.fuse.weight"):
        assert probe in names, probe
    path = tmp_path / "weights.cpaw"
    save_weights(w, path)
    back = load_weights(path)
    assert set(back) == names
    for k in names:
        np.testing.assert_array_equal(
            back[k], np.asarray(w[k], dtype=np.float32).astype(np.float64))


def test_pipeline_options_validation():
    with pytest.raises(ShapeError):
        PipelineOptions(xi_mode="exact")
    with pytest.raises(ShapeError):
        PipelineOptions(codec="gzip")
    with pytest.raises(ShapeError):
        PipelineOptions(sigma_local=-1.0)


# ---------------------------------------------------------------------------
# config

def test_config_unknown_key_names_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"options": {"ptamm": True}}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "$.options.ptamm" in str(err.value)


def test_config_bad_sweep_grid(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {"taus_ms": []}}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "$.sweep.taus_ms" in str(err.value)


def test_config_defaults_and_inline_scenario(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": {"agents": [{"id": "e", "x": 0, "y": 0, "yaw": 0}],
                     "objects": [{"box": {"cx": 1, "cy": 0, "cz": 0.5,
                                          "length": 2, "width": 1,
                                          "height": 1, "yaw": 0}}]},
        "options": {"ptam": False},
    }))
    cfg = load_config(path)
    assert cfg["scenario"].agents[0].agent_id == "e"
    assert cfg["options"].ptam is False
    assert cfg["bev"].height == 48
    assert cfg["sweep"]["taus_ms"][0] == 0


def test_config_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# command line

def test_cli_gen_and_check_list(tmp_path, capsys):
    from cpalign.cli import main
    out = tmp_path / "scn.json"
    assert main(["gen", "--template", "straight", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["check", "--list"]) == 0
    listed = capsys.readouterr().out
    assert "delay-sweep-ordering" in listed


def test_cli_bench_json(tmp_path, capsys):
    from cpalign.cli import main
    out = tmp_path / "b.json"
    assert main(["bench", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["global_ops"]["mul"] == 6356992
    assert data["blockwise_ops"]["mul"] == 11571712
    assert data["active_backend"] == "numpy" and "kernel_timings" not in data
    assert main(["bench", "--kernels", "--repeats", "1", "--out", str(out)]) == 0
    timings = json.loads(out.read_text())["kernel_timings"]
    assert set(timings) == {"conv2d.depthwise_ms", "conv2d.pointwise_ms",
                            "conv2d.im2col_ms", "bilinear_gather_ms",
                            "fps_order_ms"}
    assert all(v > 0 for v in timings.values())


def test_cli_run_writes_report(tmp_path, capsys):
    from cpalign.cli import main
    scn = tmp_path / "scn.json"
    save_scenario(_fast_scene(), scn)
    out = tmp_path / "report.json"
    code = main(["run", "--scenario", str(scn), "--tau-ms", "200",
                 "--no-phd", "--t", "0.8", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["tau_ms"] == 200.0 and data["ptam"] is True


def test_cli_run_save_weights_roundtrip(tmp_path, capsys):
    from cpalign.cli import main
    from cpalign.numerics import load_weights
    scn = tmp_path / "scn.json"
    save_scenario(_fast_scene(), scn)
    path = tmp_path / "w.cpaw"
    assert main(["run", "--scenario", str(scn), "--tau-ms", "200", "--no-phd",
                 "--t", "0.8", "--weight-seed", "2",
                 "--save-weights", str(path)]) == 0
    back = load_weights(path)
    want = build_pipeline_weights(2)
    assert list(back) == list(want)
    for k, arr in want.items():
        np.testing.assert_array_equal(
            back[k], np.asarray(arr, dtype=np.float32).astype(np.float64))


def test_cli_unknown_config_path_errors(capsys):
    from cpalign.cli import main
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2
