"""Scenario rendering, transmission, detection, and pipeline behavior."""

import collections
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cpalign
from cpalign.domain_align import (
    Pose2,
    default_discriminator_weights,
    default_foreground_weights,
)
from cpalign.harness import detect, pipeline
from cpalign.featurizer import (
    BevSpec,
    bev_project,
    default_backbone_weights,
    default_bevproj_weights,
)
from cpalign.harness.codec import (
    CodecConfig,
    encode_decode,
    pack_nonzeros,
    transmit_tensors,
    unpack_nonzeros,
)
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
    RunContext,
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
    object_box_at,
    render_pointcloud,
    save_scenario,
    scenario_boxes_local,
    scenario_from_dict,
    scenario_to_dict,
)
from cpalign.instance_fusion import (
    StructKernels,
    VerificationSpec,
    default_aggregate_weights,
    default_fuse_weights,
    default_struct_weights,
    default_verification_weights,
    fusion_fold,
    instance_terms,
    refine_instance,
)
from cpalign.numerics import ConvSpec, ShapeError, conv2d, freeze_weights, save_weights
from cpalign.pointcloud import OrientedBox
from cpalign.reference import folded_term, literal_refined
from cpalign.temporal_align import default_motion_weights, default_xi_weights


def _load_tracer():
    """``perfbench/tracer.py``, loaded without writing under ``perfbench/``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracer = _load_tracer()


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


def _object_local_points_loop(rng, box, n, interior_fraction):
    """The renderer's body-frame sampler as a per-point loop: the oracle."""
    n_in = int(round(n * interior_fraction))
    n_surf = n - n_in
    hl, hw, hh = box.length / 2.0, box.width / 2.0, box.height / 2.0
    areas = np.array([box.width * box.height, box.width * box.height,
                      box.length * box.height, box.length * box.height,
                      box.length * box.width])
    face = rng.choice(5, size=n_surf, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=n_surf)
    v = rng.uniform(-1.0, 1.0, size=n_surf)
    pts = np.empty((n_surf, 3))
    for i in range(n_surf):
        f = face[i]
        if f == 0:
            pts[i] = (hl, u[i] * hw, v[i] * hh)
        elif f == 1:
            pts[i] = (-hl, u[i] * hw, v[i] * hh)
        elif f == 2:
            pts[i] = (u[i] * hl, hw, v[i] * hh)
        elif f == 3:
            pts[i] = (u[i] * hl, -hw, v[i] * hh)
        else:
            pts[i] = (u[i] * hl, v[i] * hw, hh)
    if n_in > 0:
        inner = rng.uniform(-1.0, 1.0, size=(n_in, 3)) * np.array([hl, hw, hh])
        pts = np.concatenate([pts, inner], axis=0)
    inten = rng.uniform(0.3, 1.0, size=(pts.shape[0], 1))
    return np.concatenate([pts, inten], axis=1)


@pytest.mark.parametrize("n", [8, 50, 333, 1000, 2200, 3000])
def test_object_local_points_match_loop_bitwise(n):
    from cpalign.harness.scenario import _object_local_points
    box = OrientedBox(0.0, 0.0, 0.8, 4.2, 1.8, 1.6)
    for seed in range(5):
        for frac in (0.0, 0.1):
            got = _object_local_points(np.random.default_rng(seed), box, n, frac)
            want = _object_local_points_loop(np.random.default_rng(seed), box, n, frac)
            assert got.tobytes() == want.tobytes()
    # from 50 points on every face is drawn, so every branch is compared
    pins = [(0, 2.1), (0, -2.1), (1, 0.9), (1, -0.9), (2, 0.8)]
    hits = [np.any(got[:, axis] == value) for axis, value in pins]
    assert all(hits) or n < 50


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
    cfg = RenderConfig(include_ground=False)
    cloud = render_pointcloud(scn, "ego", 0.0, cfg)
    n_near = int(np.sum(cloud[:, 0] < 6.0))
    n_far = cloud.shape[0] - n_near
    # 1/d^2 scaling: distances 3 versus 9 give 667 and 74 points, the near
    # count clipped to max_points = 500
    assert (n_near, n_far) == (500, 74)


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


def _scenario_of(argv):
    """The scenario that ``cpalign run`` builds from ``argv``."""
    from cpalign import cli
    return cli._load_setup(cli.build_parser().parse_args(["run", *argv]))[0]


def test_scenario_json_roundtrip(tmp_path):
    scn = generate_scenario("turning", seed=9)
    path = tmp_path / "scn.json"
    save_scenario(scn, path)
    back = _scenario_of(["--scenario", str(path)])
    assert len(back.agents) == len(scn.agents)
    assert back.seed == scn.seed
    a = render_pointcloud(scn, "ego", 0.4)
    b = render_pointcloud(back, "ego", 0.4)
    assert np.array_equal(a, b)


def test_malformed_scenario_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"agents": [{"id": "x"}], "objects": []}))
    with pytest.raises(ConfigError, match=re.escape("$.scenario: malformed scenario document")):
        _scenario_of(["--scenario", str(path)])
    path.write_text("{nope")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not valid JSON")):
        _scenario_of(["--scenario", str(path)])


SCENARIO_NUMBER_PATHS = (
    ["duration", "frame_interval", "seed"]
    + [f"agents[0].{k}" for k in ("x", "y", "yaw", "vx", "vy")]
    + [f"objects[0].box.{k}"
       for k in ("cx", "cy", "cz", "length", "width", "height", "yaw")]
    + [f"objects[0].{k}" for k in ("vx", "vy", "yaw_rate")])


def _set_key_path(doc, path, value):
    keys = [int(k) if k.isdigit() else k for k in re.split(r"[.\[\]]+", path) if k]
    for k in keys[:-1]:
        doc = doc[k]
    doc[keys[-1]] = value


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", SCENARIO_NUMBER_PATHS)
def test_scenario_from_dict_names_non_finite_number(path, bad):
    doc = scenario_to_dict(generate_scenario("straight"))
    scenario_from_dict(doc)
    _set_key_path(doc, path, bad)
    with pytest.raises(ShapeError, match=re.escape(path) + " must be finite"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("bad", [-1, 1.5, True, "3", None])
def test_scenario_seed_must_be_a_non_negative_integer(bad):
    with pytest.raises(ShapeError, match=re.escape(
            f"seed must be a non-negative integer, got {bad!r}")):
        generate_scenario("straight", seed=bad)
    doc = scenario_to_dict(generate_scenario("straight"))
    doc["seed"] = bad
    with pytest.raises(ShapeError, match="seed must be a"):
        scenario_from_dict(doc)
    assert generate_scenario("straight", seed=np.int64(2)).seed == 2


def test_scenario_rejects_non_finite_timing_and_speed():
    for key, value in (("duration", math.nan), ("frame_interval", math.inf),
                       ("speed", math.nan)):
        with pytest.raises(ShapeError, match=key):
            generate_scenario("straight", **{key: value})


@pytest.mark.parametrize("bad", [True, False])
@pytest.mark.parametrize("key", ["speed", "duration", "frame_interval"])
def test_scenario_timing_and_speed_refuse_bools(key, bad):
    # true once ran as speed 1 m/s or duration 1 s, and a string ended in a
    # bare TypeError
    for value in (bad, str(int(bad)), " 0.8 "):
        with pytest.raises(ShapeError, match=f"{key} must be .*, got {re.escape(repr(value))}"):
            generate_scenario("straight", **{key: value})


@pytest.mark.parametrize("path", [p for p in SCENARIO_NUMBER_PATHS if p != "seed"])
def test_scenario_from_dict_names_a_bool_number(path):
    # a document's true once loaded as 1.0, its "3" as 3.0 and " 0.8 " as 0.8
    doc = scenario_to_dict(generate_scenario("straight"))
    for bad in (True, "3", " 0.8 "):
        _set_key_path(doc, path, bad)
        with pytest.raises(ShapeError, match=re.escape(f"{path} must be a number, got {bad!r}")):
            scenario_from_dict(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_time_or_delay_names_it(bad):
    scn = _fast_scene()
    with pytest.raises(ShapeError, match=f"time {bad} is not finite"):
        scn.frame_index(bad)
    with pytest.raises(ShapeError, match=str(abs(bad))):
        run_pipeline(scn, bad, 0.2, PipelineOptions(phd=False), bev=_BEV_SMALL)
    with pytest.raises(ShapeError, match=str(abs(bad))):
        run_pipeline(scn, 0.8, bad, PipelineOptions(phd=False), bev=_BEV_SMALL)


#: Renderer settings that are harness.scenario constants, not RenderConfig fields.
_FIXED_RENDER = ("min_points", "interior_fraction", "ground_points", "ground_extent",
                 "ground_z_sigma")


@pytest.mark.parametrize("field,bad", [
    ("density", math.nan), ("density", 0.0), ("density", math.inf),
    ("min_points", -5), ("min_points", 2.5), ("max_points", 3),
    ("interior_fraction", 2.0), ("interior_fraction", math.nan),
    ("include_ground", "yes"),
    ("ground_points", -3), ("ground_points", True),
    ("ground_extent", math.inf), ("ground_extent", 0.0),
    ("ground_z_sigma", -0.1), ("ground_z_sigma", math.nan),
    ("max_points", 2.5), ("max_points", True), ("include_ground", 1),
])
def test_render_config_names_the_bad_field(field, bad):
    if field in _FIXED_RENDER:
        # a fixed setting is no field: setting it at all is refused by name
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            RenderConfig(**{field: bad})
        return
    with pytest.raises(ShapeError, match=f"^{field} must be .*, got {re.escape(repr(bad))}$"):
        RenderConfig(**{field: bad})


def test_fixed_render_settings():
    from cpalign.harness import scenario
    assert (scenario.MIN_POINTS, scenario.INTERIOR_FRACTION, scenario.GROUND_POINTS,
            scenario.GROUND_EXTENT, scenario.GROUND_Z_SIGMA) == (8, 0.2, 400, 20.0, 0.02)
    assert RenderConfig() == RenderConfig(density=6000.0, max_points=500,
                                          include_ground=True)
    ground = render_pointcloud(_simple_scenario(objects=[]), "ego", 0.0)
    assert ground.shape == (400, 4)
    assert np.abs(ground[:, :2]).max() <= 10.0


# ---------------------------------------------------------------------------
# ideal motion fields

def test_ideal_motion_footprint_stamps_only_track_cells():
    scn = _simple_scenario()
    bev = BevSpec.centered(19.2, 19.2)
    for scale in range(3):
        mf = ideal_motion_field(scn, "ego", 0.2, 0.4, bev, scale)
        n = 48 >> scale
        assert mf.dp.shape == (2, n, n)
        stamped = mf.dp[0] != 0.0
        assert 0 < stamped.sum() < n * n
        # one 0.4 m cell per frame along +x at full scale, halved per level
        # as the cell doubles; nothing along +y
        np.testing.assert_allclose(mf.dp[0][stamped], 0.5 ** scale, rtol=0, atol=1e-12)
        assert np.all(mf.dp[1] == 0.0)
        assert np.all((mf.w > 0.0) & (mf.w < 1.0))


def test_scene_without_objects_runs_under_ideal_motion():
    # a static scene's ideal field is exactly zero, so the default options
    # (PTAM on, ideal motion, oracle xi) run it like any other scene
    scn = _simple_scenario(objects=[], duration=1.2)
    bev = BevSpec.centered(19.2, 19.2)
    for scale in range(3):
        mf = ideal_motion_field(scn, "collab", 0.7, 0.8, bev, scale)
        n = 48 >> scale
        np.testing.assert_array_equal(mf.dp, np.zeros((2, n, n)))
        assert np.all((mf.w > 0.0) & (mf.w < 1.0))
    report = run_pipeline(scn, 1.1, 0.3, PipelineOptions(), bev=_BEV_SMALL)
    assert report.n_truth == 0
    assert report.xi == [pytest.approx(3.0)] * 3
    assert report.cosine_pre == report.cosine_post == 1.0


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


def test_int8_subnormal_peak():
    # max|x| / 127 underflowed to a zero scale, and x / scale divided by it
    x = np.array([5e-324, -1e-320, 0.0])
    dec, mse = encode_decode(x, "int8")
    assert np.isfinite(dec).all() and mse == 0.0
    assert abs(dec[1] - x[1]) <= 1e-320 / 127


def test_transmit_tensors_reports_per_name():
    rng = np.random.default_rng(2)
    bundle = {"a": rng.normal(size=(2, 3)), "b": np.zeros((2, 2))}
    dec, errs = transmit_tensors(bundle, CodecConfig("int8"))
    assert set(dec) == {"a", "b"} and errs["b"] == 0.0 and errs["a"] > 0.0


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(("identity", "fp16", "int8")),
       n=st.integers(1, 40), pos=st.integers(0, 39),
       bad=st.sampled_from((math.nan, math.inf, -math.inf)),
       seed=st.integers(0, 2 ** 16))
def test_transmit_tensors_rejects_non_finite(mode, n, pos, bad, seed):
    # int8 once decoded one NaN into an all-NaN tensor, and identity passed
    # it on with an mse of 0
    rng = np.random.default_rng(seed)
    bundle = {"fine": rng.normal(size=(2, 3, 3)), "broken": rng.normal(size=n)}
    bundle["broken"][pos % n] = bad
    with pytest.raises(ShapeError, match="'broken'"):
        transmit_tensors(bundle, CodecConfig(mode))
    del bundle["broken"]
    dec, errs = transmit_tensors(bundle, CodecConfig(mode))
    assert np.isfinite(dec["fine"]).all() and math.isfinite(errs["fine"])


#: bytes per bitmap word: the codec's own width
_WORD_BYTES = {"identity": 4, "fp16": 2, "int8": 1}

#: entries of a tensor to pack: exact zeros of both signs, subnormals, and
#: values small enough that no codec's error overflows
_PACK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_PACK_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, max_side=9).filter(
    lambda shape: math.prod(shape) % 32)


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(("identity", "fp16", "int8")), data=st.data())
def test_packed_round_trip_is_the_dense_codec(mode, data):
    # the channel carries each tensor as its nonzero values plus a bitmap;
    # zero is the +0.0 bit pattern alone, so -0.0 ships as a value
    a = data.draw(hnp.arrays(np.float64, _PACK_SHAPES, elements=_PACK_VALUES))
    packed = pack_nonzeros({"t": a}, mode)
    bitmap = packed["t.bitmap"]
    assert bitmap.dtype.kind == "u" and bitmap.itemsize == _WORD_BYTES[mode]
    assert bitmap.size == math.ceil(a.size / (8 * _WORD_BYTES[mode]))
    received, errors = transmit_tensors(packed, CodecConfig(mode))
    assert set(errors) == {"t"}  # the bitmap is carried bit for bit
    assert np.array_equal(received["t.bitmap"], bitmap)
    got = unpack_nonzeros(received, {"t": a.shape})["t"]
    want = a if mode == "identity" else encode_decode(a, mode)[0]
    assert got.shape == a.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a NaN is a value too, so the channel still refuses it by its tensor
    a.flat[data.draw(st.integers(0, a.size - 1))] = math.nan
    with pytest.raises(ShapeError, match=re.escape("'s0.inter'")):
        transmit_tensors(pack_nonzeros({"s0.inter": a}, mode), CodecConfig(mode))


def test_unpack_refuses_values_that_miss_the_bitmap():
    packed = pack_nonzeros({"t": np.array([0.0, 1.0, 2.0, 0.0])}, "identity")
    packed["t"] = packed["t"][:1]
    with pytest.raises(ShapeError, match="'t': 1 values for 2 bitmap entries"):
        unpack_nonzeros(packed, {"t": (4,)})


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
    dmap = box_footprint_mask(gt, spec.origin_x, spec.origin_y, spec.cell, spec.height,
                              spec.width).astype(float)[None]
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


def test_box_to_aabb_bounds_rotated_box():
    box = OrientedBox(1.0, 2.0, 0.0, 2.0, 2.0, 1.0, yaw=math.pi / 4)
    r = math.sqrt(2.0)
    np.testing.assert_allclose(box_to_aabb(box), [1 - r, 2 - r, 1 + r, 2 + r],
                               rtol=1e-12)


def test_extract_detections_orders_by_confidence():
    spec = BevSpec.centered(6.4, 6.4)
    d = np.zeros((1, 16, 16))
    d[0, 2:4, 2:4] = 0.6
    d[0, 10:12, 10:12] = 0.9
    # a tie: the blob whose first cell comes first in raster order leads,
    # though its columns lie right of the other's
    d[0, 6:8, 12:14] = 0.7
    d[0, 13:15, 3:5] = 0.7
    dets = extract_detections(d, spec, 0.5)
    assert [det.confidence for det in dets] == pytest.approx([0.9, 0.7, 0.7, 0.6])
    cell, ox, oy = spec.cell, spec.origin_x, spec.origin_y
    np.testing.assert_allclose(dets[1].aabb, [ox + 12 * cell, oy + 6 * cell,
                                              ox + 14 * cell, oy + 8 * cell])
    np.testing.assert_allclose(dets[2].aabb, [ox + 3 * cell, oy + 13 * cell,
                                              ox + 5 * cell, oy + 15 * cell])


def flood_fill_oracle(mask):
    """4-connected labels by breadth-first search from each unlabelled cell
    of the mask, scanned in raster order: ``(labels, count)``."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=int)
    count = 0
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or labels[y, x]:
                continue
            count += 1
            labels[y, x] = count
            queue = [(y, x)]
            while queue:
                cy, cx = queue.pop()
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = count
                        queue.append((ny, nx))
    return labels, count


def _serpentine(h, w):
    """Every other row, joined at alternating ends: one component whose
    first and last cells are h * w / 2 steps apart."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for r in range(1, h, 2):
        mask[r, w - 1 if r % 4 == 1 else 0] = True
    return mask


_LABEL_CASES = {
    "empty": np.zeros((48, 48), dtype=bool),
    "full": np.ones((48, 48), dtype=bool),
    "1xN": np.ones((1, 17), dtype=bool),
    "Nx1": np.ones((17, 1), dtype=bool),
    "1xN-gaps": np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=bool),
    "Nx1-gaps": np.array([[1], [1], [0], [1], [0], [1]], dtype=bool),
    "1x1-off": np.zeros((1, 1), dtype=bool),
    "1x1-on": np.ones((1, 1), dtype=bool),
    "checkerboard": np.indices((9, 11)).sum(axis=0) % 2 == 0,
    "diagonal": np.eye(12, dtype=bool) | np.eye(12, k=3, dtype=bool),
    "anti-diagonal": np.fliplr(np.eye(10, dtype=bool)),
    "serpentine": _serpentine(48, 48),
    "serpentine-odd": _serpentine(15, 7),
}


@pytest.mark.parametrize("name", sorted(_LABEL_CASES))
def test_label4_matches_flood_fill(name):
    mask = _LABEL_CASES[name]
    labels, count = detect._label4(mask)
    want, want_count = flood_fill_oracle(mask)
    assert count == want_count
    np.testing.assert_array_equal(labels, want)


def test_label4_corner_neighbours_stay_apart():
    assert detect._label4(_LABEL_CASES["checkerboard"])[1] == 50
    assert detect._label4(_LABEL_CASES["diagonal"])[1] == 21
    assert detect._label4(_LABEL_CASES["serpentine"])[1] == 1


def test_label4_matches_flood_fill_on_random_masks():
    rng = np.random.default_rng(11)
    for _ in range(300):
        h, w = (int(v) for v in rng.integers(1, 50, size=2))
        mask = rng.random((h, w)) < rng.uniform(0.05, 0.95)
        labels, count = detect._label4(mask)
        want, want_count = flood_fill_oracle(mask)
        assert count == want_count, (h, w)
        np.testing.assert_array_equal(labels, want)


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


def _context(scn, seed=0, bev=_BEV_SMALL, render_cfg=None, memo=True):
    return RunContext(scn, build_pipeline_weights(seed), bev,
                      render_cfg or RenderConfig(), memo=memo)


def test_run_pipeline_cache_equivalent():
    scn = _fast_scene()
    opts = PipelineOptions(phd=False)
    context = _context(scn)
    a = run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL, context=context)
    b = run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL, context=context)
    assert context.entries  # the memo actually filled
    da, db = a.as_dict(), b.as_dict()
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_run_pipeline_cache_refuses_other_weights():
    # a memo filled under weight seed 0 once served seed-0 features to a
    # seed-1 run (mean IoU 0.323 against 0.438 from a fresh seed-1 run)
    scn = generate_scenario("crossing", seed=0)
    context = _context(scn, bev=BevSpec.centered(19.2, 19.2))
    run_pipeline(scn, 1.2, 0.3, PipelineOptions(weight_seed=0), context=context)
    with pytest.raises(ShapeError, match="weights"):
        run_pipeline(scn, 1.2, 0.3, PipelineOptions(weight_seed=1), context=context)
    # the same weights object keeps the memo usable
    again = run_pipeline(scn, 1.2, 0.3, PipelineOptions(weight_seed=0), context=context)
    assert again.mean_matched_iou == run_pipeline(
        scn, 1.2, 0.3, PipelineOptions(weight_seed=0)).mean_matched_iou


def test_run_pipeline_cache_refuses_other_geometry():
    scn = _fast_scene()
    opts = PipelineOptions(phd=False)
    context = _context(scn)
    run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL, context=context)
    # equal specs rebuilt by value are the same context
    run_pipeline(scn, 0.8, 0.1, opts, bev=BevSpec.centered(12.8, 12.8),
                 render_cfg=RenderConfig(), context=context)
    with pytest.raises(ShapeError, match="BevSpec"):
        run_pipeline(scn, 0.8, 0.2, opts, bev=BevSpec.centered(12.8, 12.8, cell=0.8),
                     context=context)
    with pytest.raises(ShapeError, match="RenderConfig"):
        run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL,
                     render_cfg=RenderConfig(max_points=100), context=context)
    with pytest.raises(ShapeError, match="scenario"):
        run_pipeline(_fast_scene(), 0.8, 0.2, opts, bev=_BEV_SMALL, context=context)


@pytest.mark.parametrize("motion_mode", ["ideal", "learned"])
@pytest.mark.parametrize("codec", ["identity", "fp16", "int8"])
def test_run_pipeline_stale_cosine_pre_equals_post(codec, motion_mode):
    # unaligned, pre and post compare the same received scale; the aligned
    # run scores the same frame through the same codec, whether or not its
    # payload carries that frame
    scn = _fast_scene()
    stale = run_pipeline(scn, 0.8, 0.2, PipelineOptions(
        phd=False, ptam=False, codec=codec, motion_mode=motion_mode), bev=_BEV_SMALL)
    aligned = run_pipeline(scn, 0.8, 0.2, PipelineOptions(
        phd=False, codec=codec, motion_mode=motion_mode), bev=_BEV_SMALL)
    assert stale.cosine_pre == stale.cosine_post == aligned.cosine_pre
    assert stale.ops_match_closed_form


def test_run_pipeline_alternating_weight_seeds():
    # values derived once per frozen weights (the folded foreground head,
    # the motion specs) must follow the weights of each call: every run
    # matches one under writable copies, which each context derives afresh
    scn = _fast_scene()

    def run(seed, weights=None):
        opts = PipelineOptions(phd=False, weight_seed=seed, motion_mode="learned",
                               xi_mode="learned")
        r = run_pipeline(scn, 0.8, 0.2, opts, weights=weights, bev=_BEV_SMALL,
                         collect=True)
        d = r.as_dict()
        d.pop("wall_time_s")
        return d, r.maps

    fresh = {s: run(s, {n: a.copy() for n, a in build_pipeline_weights(s).items()})
             for s in (0, 1)}
    assert fresh[0][0] != fresh[1][0]
    for seed in (0, 1, 0, 1):
        report, maps = run(seed)
        assert report == fresh[seed][0]
        for name, arr in maps.items():
            np.testing.assert_array_equal(arr, fresh[seed][1][name])


def test_run_pipeline_oracle_xi_reported():
    scn = _fast_scene()
    r = run_pipeline(scn, 0.8, 0.3, PipelineOptions(phd=False), bev=_BEV_SMALL)
    assert r.xi == pytest.approx([3.0, 3.0, 3.0])
    assert r.ops_match_closed_form
    assert r.n_truth == 1


def test_truth_outside_the_grid_is_not_a_miss():
    # a car 900 m away once counted as a truth box no detection could match
    near = ObjectTrack(OrientedBox(-4.0, 1.0, 0.8, 4.2, 1.8, 1.6), vx=4.0)
    far = ObjectTrack(OrientedBox(900.0, 1.0, 0.8, 4.2, 1.8, 1.6), vx=4.0)
    scn = _simple_scenario(objects=[near, far], duration=0.8)
    boxes = scenario_boxes_local(scn, "ego", 0.8)
    assert len(boxes) == 2 and detect.boxes_in_grid(boxes, _BEV_SMALL) == boxes[:1]
    r = run_pipeline(scn, 0.8, 0.3, PipelineOptions(phd=False), bev=_BEV_SMALL)
    assert r.n_truth == 1


def test_boxes_in_grid_keeps_a_box_that_covers_a_cell_centre():
    bev = BevSpec.centered(4.0, 4.0, 1.0)  # cell centres at +-0.5 and +-1.5 m
    edge = OrientedBox(1.9, 0.0, 0.0, 1.0, 1.0, 1.0)     # x in [1.4, 2.4]
    grazing = OrientedBox(2.1, 0.0, 0.0, 1.0, 1.0, 1.0)  # [1.6, 2.6]: no centre
    inside = OrientedBox(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    assert detect.boxes_in_grid([grazing, edge, inside], bev) == [edge, inside]
    assert detect.boxes_in_grid([], bev) == []


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


def _three_agent_scene():
    # two collaborators: the worker ships both while the calling thread runs
    # the ego, then each lane takes one receiver
    return _simple_scenario(
        agents=[AgentSpec("ego", Pose2(0.0, 0.0, 0.0)),
                AgentSpec("collab", Pose2(1.0, 0.5, 0.0)),
                AgentSpec("collab2", Pose2(-0.8, 0.9, 0.2))],
        duration=0.8)


def _report_dict(report):
    d = report.as_dict()
    d.pop("wall_time_s")
    return d


def _call_with_timeout(fn, timeout=120.0):
    """Run fn on a fresh thread; a hang fails the test instead of stalling it."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    runner = threading.Thread(target=target)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "run_pipeline did not return"
    return runner, outcome


class _LaneFault(RuntimeError):
    pass


@pytest.mark.parametrize("stage,scene", [
    ("transmit_tensors", _fast_scene),        # a sender, on the worker
    ("transmit_tensors", _three_agent_scene),  # both senders
    ("foreground_estimate", _fast_scene),     # ego lane, on the calling thread
    ("ptam_stage2", _fast_scene),             # a receiver
    ("ptam_stage2", _three_agent_scene),      # both receivers, one per lane
    ("_ship_stage1", _fast_scene),            # the last sender, once its
    ("_ship_stage1", _three_agent_scene),     # receiver waits on the other lane
])
def test_run_pipeline_lane_failure_propagates(monkeypatch, stage, scene):
    scn = scene()
    opts = PipelineOptions(phd=False, codec="int8")
    want = _report_dict(run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL))
    original = getattr(pipeline, stage)
    last = scn.agents[-1].agent_id
    callers, lanes = [], {}
    receiving = threading.Event()

    def faulty(*args, **kwargs):
        if stage == "_ship_stage1":
            if args[1] != last:
                return original(*args, **kwargs)
            lanes["sender"] = threading.current_thread()
            lanes["waited"] = receiving.wait(30)
        # the ego's foreground head is the one called on the calling thread
        elif stage == "foreground_estimate" and threading.current_thread() not in callers:
            return original(*args, **kwargs)
        raise _LaneFault(stage)

    monkeypatch.setattr(pipeline, stage, faulty)
    started, finished = [], []

    def recorded(task):
        def run_task(run, *args):
            started.append(1)
            try:
                return task(run, *args)
            finally:
                finished.append(time.perf_counter())
        return run_task

    receiver = recorded(pipeline._collaborator)

    def recorded_receiver(run, j, agent, *args):
        if agent.agent_id == last:
            lanes["receiver"] = threading.current_thread()
            receiving.set()
        return receiver(run, j, agent, *args)

    monkeypatch.setattr(pipeline, "_sender", recorded(pipeline._sender))
    monkeypatch.setattr(pipeline, "_collaborator", recorded_receiver)

    returned = []

    def failing_run():
        callers.append(threading.current_thread())
        try:
            return run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL)
        finally:
            returned.append(time.perf_counter())

    _, outcome = _call_with_timeout(failing_run)
    assert isinstance(outcome.get("error"), _LaneFault)
    # every task that started had finished when the error reached the caller
    assert len(finished) == len(started) and max(finished) <= returned[0]
    if stage == "_ship_stage1":
        # the failing sender's receiver was already waiting for it
        assert lanes["waited"] and lanes["receiver"] is not lanes["sender"]
    monkeypatch.undo()
    # the worker is free again and the next call gives the usual result
    _, outcome = _call_with_timeout(
        lambda: run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL))
    assert _report_dict(outcome["value"]) == want


def test_received_tensors_die_with_their_receiver(monkeypatch):
    # the sender hands its receiver a list that the receiver empties, so once
    # stage 2 and the metrics are done nothing holds the received tensors:
    # each collaborator's are dead when its fusion term is formed, before
    # the fusion sum
    scn = _three_agent_scene()
    opts = PipelineOptions(phd=False, codec="int8", motion_mode="learned")
    ship, term = pipeline._ship_stage1, pipeline.refine_instance
    # the run derives the same terms: its weights are the frozen defaults
    terms = RunContext(scn, build_pipeline_weights(0), _BEV_SMALL, RenderConfig()).terms
    received, alive = {}, {}

    def recorded_ship(run, agent_id, ms_latest):
        shipped = ship(run, agent_id, ms_latest)
        received[agent_id] = [weakref.ref(arr) for arr in shipped[0].values()]
        return shipped

    def checked_term(h, m, struct, verification, agent_term):
        j = next(k for k, t in enumerate(terms) if t is agent_term)
        if j:
            refs = received[scn.agents[j].agent_id]
            alive[j] = sum(ref() is not None for ref in refs)
        return term(h, m, struct, verification, agent_term)

    monkeypatch.setattr(pipeline, "_ship_stage1", recorded_ship)
    monkeypatch.setattr(pipeline, "refine_instance", checked_term)
    _, outcome = _call_with_timeout(
        lambda: run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL))
    assert "error" not in outcome, outcome.get("error")
    # learned motion, oracle xi: each scale's stage-1 result and latest frame
    assert all(len(refs) == 6 for refs in received.values())
    assert alive == {1: 0, 2: 0}


class _ReadLog(Mapping):
    """A received bundle that records which names its reader looks up."""

    def __init__(self, tensors, read):
        self._tensors, self._read = tensors, read

    def __getitem__(self, name):
        value = self._tensors[name]
        self._read.add(name)
        return value

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self):
        return len(self._tensors)


def _log_channel(monkeypatch):
    """Route every ``transmit_tensors`` call of a run through a log: the
    names shipped, the names unpacking reads of what the channel delivers,
    the names the receivers read of the dense tensors their senders hand
    over, the entries shipped, and their bytes by ``tracer.wire_bytes``."""
    log = {"shipped": set(), "unpacked": set(), "read": set(), "tensors": [],
           "bytes": 0}
    send, ship = pipeline.transmit_tensors, pipeline._ship_stage1

    def logged(tensors, cfg):
        log["shipped"] |= set(tensors)
        log["tensors"] += list(tensors.values())
        log["bytes"] += tracer.wire_bytes(tensors, cfg.mode)
        received, errors = send(tensors, cfg)
        return _ReadLog(received, log["unpacked"]), errors

    def logged_ship(*args):
        received, *rest = ship(*args)
        return (_ReadLog(received, log["read"]), *rest)

    monkeypatch.setattr(pipeline, "transmit_tensors", logged)
    monkeypatch.setattr(pipeline, "_ship_stage1", logged_ship)
    return log


def _payload_table(opts) -> set:
    """What the receiver reads under ``opts``, as documented in the README."""
    if not opts.ptam:
        return {"s0.latest", "s1.latest", "s2.latest"}
    names = {"s0.inter", "s1.inter", "s2.inter"}
    if opts.motion_mode == "learned":
        names |= {"s0.latest", "s1.latest", "s2.latest"}
    if opts.xi_mode == "learned":
        names |= {f"s{s}.{kind}" for s in range(3) for kind in ("dp", "w")}
    return names


@pytest.mark.parametrize("xi_mode", ["oracle", "learned"])
@pytest.mark.parametrize("motion_mode", ["ideal", "learned"])
@pytest.mark.parametrize("ptam", [True, False])
def test_every_shipped_tensor_is_read(monkeypatch, ptam, motion_mode, xi_mode):
    # the sender once shipped 12 tensors whatever the options, and under
    # the oracle defaults the receiver read 4 of them. Each tensor goes on
    # the channel as its nonzero values and their bitmap: unpacking reads
    # both, and stage 2 reads every tensor unpacking gives back
    opts = PipelineOptions(ptam=ptam, motion_mode=motion_mode, xi_mode=xi_mode,
                           phd=False)
    log = _log_channel(monkeypatch)
    run_pipeline(_fast_scene(), 0.8, 0.2, opts, bev=_BEV_SMALL)
    table = _payload_table(opts)
    pairs = {name + part for name in table for part in ("", ".bitmap")}
    assert log["shipped"] == log["unpacked"] == pairs
    assert log["read"] == table


@pytest.mark.parametrize("motion_mode", ["ideal", "learned"])
@pytest.mark.parametrize("ptam", [True, False])
@pytest.mark.parametrize("codec", ["identity", "fp16", "int8"])
def test_bytes_tx_counts_what_the_channel_carries(monkeypatch, codec, ptam, motion_mode):
    # the tracer's wire count, summed over the run's channel calls; two
    # collaborators, so the report sums over both
    opts = PipelineOptions(ptam=ptam, motion_mode=motion_mode, codec=codec, phd=False)
    log = _log_channel(monkeypatch)
    report = run_pipeline(_three_agent_scene(), 0.8, 0.2, opts, bev=_BEV_SMALL)
    assert report.bytes_tx == log["bytes"] > 0
    assert report.as_dict()["bytes_tx"] == report.bytes_tx


def test_bytes_tx_at_the_default_grid_and_options():
    # one collaborator, 48x48 cells: the three stage-1 results. Dense they
    # took (64 + 128 / 4 + 256 / 16) * 2304 floats of 4 B = 1,032,192 B;
    # packed, their nonzero floats of 4 B plus a bitmap of 4 B words
    report = run_pipeline(generate_scenario("straight"), 1.2, 0.3)
    assert report.bytes_tx == 526_068 < 1_032_192


def test_codec_mse_is_the_mean_over_the_shipped_tensors(monkeypatch):
    # int8 under ideal motion and oracle xi ships the 3 stage-1 results, so
    # the mean runs over those 3, each one's error taken over the dense
    # tensor although the channel carries its nonzeros and a bitmap
    opts = PipelineOptions(codec="int8", phd=False)
    dense, pack = [], pipeline.pack_nonzeros

    def logged_pack(tensors, mode):
        dense.extend(tensors.values())
        return pack(tensors, mode)

    monkeypatch.setattr(pipeline, "pack_nonzeros", logged_pack)
    log = _log_channel(monkeypatch)
    report = run_pipeline(_fast_scene(), 0.8, 0.2, opts, bev=_BEV_SMALL)
    assert len(dense) == 3 and len(log["tensors"]) == 6
    errors = [encode_decode(a, "int8")[1] for a in dense]
    assert report.codec_mse == float(np.mean(errors))
    assert report.codec_mse == pytest.approx(3.448551126989655e-05, rel=1e-9)


def test_receivers_balance_over_both_lanes(monkeypatch):
    # the worker ships both collaborators while the calling thread runs the
    # ego; then the worker takes the first receiver and the calling thread,
    # once the ego is done, the second
    scn = _three_agent_scene()
    opts = PipelineOptions(phd=False)
    want = _report_dict(run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL))
    ego_lane, sender, receiver = (pipeline._ego_lane, pipeline._sender,
                                  pipeline._collaborator)
    ran, caller = {}, []
    on_lane, here = threading.Event(), threading.Event()

    def held_ego(*args):
        # the ego lane waits until a receiver has started on the worker
        assert on_lane.wait(60), "no receiver started on the worker"
        return ego_lane(*args)

    def recorded_sender(run, agent_id, shipped):
        ran["send", agent_id] = threading.current_thread().name
        return sender(run, agent_id, shipped)

    def recorded_receiver(run, j, agent, *args):
        ran["receive", agent.agent_id] = name = threading.current_thread().name
        if name.startswith("cpalign-lane"):
            on_lane.set()
            # keep the worker here until the other receiver has started,
            # so the calling thread can take it
            here.wait(60)
        else:
            here.set()
        return receiver(run, j, agent, *args)

    monkeypatch.setattr(pipeline, "_ego_lane", held_ego)
    monkeypatch.setattr(pipeline, "_sender", recorded_sender)
    monkeypatch.setattr(pipeline, "_collaborator", recorded_receiver)

    def run():
        caller.append(threading.current_thread().name)
        return run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL)

    _, outcome = _call_with_timeout(run)
    assert "error" not in outcome, outcome.get("error")
    lane = ran["send", "collab"]
    assert lane.startswith("cpalign-lane")
    assert ran == {("send", "collab"): lane, ("send", "collab2"): lane,
                   ("receive", "collab"): lane, ("receive", "collab2"): caller[0]}
    assert _report_dict(outcome["value"]) == want


_REPORTS_SCRIPT = """
import json
import threading
from cpalign.harness import (PipelineOptions, RenderConfig, build_pipeline_weights,
                             generate_scenario, run_pipeline, sweep)
from cpalign.harness.scenario import scenario_from_dict

build_pipeline_weights(0)
# neither the import nor the weights start the collaborator lane
assert threading.active_count() == 1, threading.enumerate()

fleet = {"agents": [{"id": "ego", "x": 0.0, "y": 0.0, "yaw": 0.0},
                    {"id": "c1", "x": 1.0, "y": 0.6, "yaw": 0.2},
                    {"id": "c2", "x": -0.8, "y": 0.9, "yaw": -0.1}],
         "objects": [{"box": {"cx": 6.0, "cy": 1.0, "cz": 0.8, "length": 4.2,
                              "width": 1.8, "height": 1.6, "yaw": 1.6},
                      "vx": 0.0, "vy": 4.0, "yaw_rate": -0.6},
                     {"box": {"cx": -5.0, "cy": -2.0, "cz": 0.8, "length": 4.2,
                              "width": 1.8, "height": 1.6, "yaw": 0.0},
                      "vx": 3.0, "vy": 0.0, "yaw_rate": 0.0}],
         "duration": 1.2, "frame_interval": 0.1, "seed": 0}
out = {}
scn = generate_scenario("crossing", seed=0)
out["crossing"] = run_pipeline(scn, 1.2, 0.3).as_dict()
opts = PipelineOptions(phd_collaborators=True, motion_mode="learned", xi_mode="learned",
                       codec="int8", sigma_local=0.2, sigma_head_deg=0.5)
out["three_agents"] = run_pipeline(scenario_from_dict(fleet), 1.2, 0.3, opts,
                                   render_cfg=RenderConfig(max_points=2000)).as_dict()
for d in out.values():
    d.pop("wall_time_s")
# the sweep's grid points run on both lanes over one memo
out["sweep"] = sweep(scn, (0, 300), PipelineOptions(sigma_local=0.1, sigma_head_deg=1.0))
print(json.dumps(out, sort_keys=True))
"""


def test_run_pipeline_reports_identical_across_processes():
    # two fresh interpreters, two lanes each: the report must not depend on
    # which thread ran which stage, on timing, or on the process
    src = os.path.dirname(os.path.dirname(os.path.abspath(cpalign.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    runs = [subprocess.run([sys.executable, "-c", _REPORTS_SCRIPT], env=env,
                           capture_output=True, text=True, timeout=600)
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    reports = json.loads(runs[0].stdout)
    assert reports["three_agents"]["codec_mse"] > 0.0
    assert reports["crossing"]["ops_match_closed_form"]
    assert len(reports["sweep"]) == 2 * 10


def test_run_pipeline_collect_maps_bitwise_repeatable():
    scn = _three_agent_scene()
    opts = PipelineOptions(phd=False, motion_mode="learned", xi_mode="learned",
                           codec="int8")
    a, b = (run_pipeline(scn, 0.8, 0.2, opts, bev=_BEV_SMALL, collect=True)
            for _ in range(2))
    assert list(a.maps) == ["ego_foreground", "collab1_foreground",
                            "collab1_observability", "collab2_foreground",
                            "collab2_observability", "detection"]
    for name in a.maps:
        assert a.maps[name].tobytes() == b.maps[name].tobytes(), name
    assert _report_dict(a) == _report_dict(b)
    # only the first collaborator's temporal loss is counted
    assert a.ops_match_closed_form


@pytest.mark.parametrize("ego", [False, True])
def test_refine_instance_matches_literal_chain(ego):
    # the IFAM branch under the pipeline's weights, sum and concat, ended in
    # the ego's term (which carries c) or the last collaborator's of a
    # three-agent run, against the folded arithmetic written out, bit for
    # bit; h and m are only read
    rng = np.random.default_rng(21)
    h = rng.normal(size=(384, 12, 9))
    m = rng.uniform(size=(1, 12, 9))
    h0, m0 = h.copy(), m.copy()
    k, rows = (0 if ego else 2), detect.ENERGY_CHANNELS
    for combine in ("sum", "concat"):
        weights = build_pipeline_weights(0, combine)
        ctx = RunContext(_three_agent_scene(), weights, _BEV_SMALL, RenderConfig())
        got = refine_instance(h, m, ctx.struct, ctx.verification, ctx.terms[k])
        want = folded_term(h, m, ctx.struct, ctx.verification, weights, 3, k, rows)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(h, h0)
        np.testing.assert_array_equal(m, m0)


def test_refine_instance_matches_unfolded_chain():
    # every agent's folded term under the pipeline's weights, sum and concat,
    # against the fusion term of the unfolded branch's 384-channel refined
    # map, over 1 to 3 agents, with non-zero aggregation and fusion biases
    rng = np.random.default_rng(22)
    h = rng.normal(size=(384, 12, 9))
    m = rng.uniform(size=(1, 12, 9))
    rows = detect.ENERGY_CHANNELS
    for combine in ("sum", "concat"):
        weights = dict(build_pipeline_weights(0, combine))
        weights["ifam.agg.bias"] = rng.normal(size=384)
        weights["ifam.fuse.bias"] = rng.normal(size=384)
        ctx = RunContext(_fast_scene(), weights, _BEV_SMALL, RenderConfig())
        refined = literal_refined(h, m, ctx.struct, ctx.verification, weights)
        for n in (1, 2, 3):
            fold, terms = fusion_fold(weights, n, rows), instance_terms(weights, n, rows)
            for k in range(n):
                want = conv2d(refined, fold[k])
                got = refine_instance(h, m, ctx.struct, ctx.verification, terms[k])
                dev = np.abs(got - want).max() / np.abs(want).max()
                assert dev <= 1e-12, (combine, n, k, dev)


def _tap_span_sum(stride):
    """Low-res cells a pad-1 3-tap window reads, summed over the ``stride``
    output phases of a stride = kernel transposed conv."""
    return sum(len({(p + d) // stride for d in (-1, 0, 1)}) for p in range(stride))


def test_default_run_conv_macs_match_the_closed_form(monkeypatch):
    # every conv MAC of a default two-agent run at the 48x48 grid, by stage,
    # against its closed form from the layer shapes: a stage that grows
    # (the 384x384 aggregation coming back, say) shows here
    scn = generate_scenario("straight", seed=0)
    assert len(scn.agents) == 2
    hw = 48 * 48
    stage, macs = threading.local(), {}
    core = cpalign.kernels.conv2d_core

    def counted_core(xpad, w, stride, groups):
        cout, cing, kh, kw = w.shape
        n = cout * cing * kh * kw * ((xpad.shape[1] - kh) // stride + 1) * (
            (xpad.shape[2] - kw) // stride + 1)
        macs[stage.name] = macs.get(stage.name, 0) + n  # one stage per lane
        return core(xpad, w, stride, groups)

    def staged(name, fn):
        def wrapped(*args):
            stage.name = name
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cpalign.kernels, "conv2d_core", counted_core)
    for name in ("backbone_forward", "bev_project", "foreground_estimate",
                 "discriminator_forward", "refine_instance"):
        monkeypatch.setattr(pipeline, name, staged(name, getattr(pipeline, name)))
    run_pipeline(scn, (scn.n_frames - 1) * scn.frame_interval, 0.3)

    mid = 192  # the foreground head's hidden channels
    per_frame = {
        # 8 -> 64 -> 128 -> 256, 3x3, strides 1, 2, 2
        "backbone_forward": 64 * 8 * 9 * hw + 128 * 64 * 9 * hw // 4
        + 256 * 128 * 9 * hw // 16,
    }
    per_agent = {
        # the large block's transposed conv as a pad-2 conv over 50 x 50
        "bev_project": 128 * 64 * 9 * 50 * 50,
        # 3x3 over the large block, the folded middle and small blocks
        # phase by phase on their own grids, then the 1x1 to one channel
        "foreground_estimate": mid * 128 * 9 * hw
        + mid * 128 * hw // 4 * _tap_span_sum(2) ** 2
        + mid * 256 * hw // 16 * _tap_span_sum(4) ** 2 + mid * hw,
        "discriminator_forward": 256 * 384 * hw + 256 * hw,
        # struct conv, the gate's spatial conv, its channel bottleneck and
        # its two grouped blocks, then the term: A_k Wa and eps A_k, each
        # 128 x 384
        "refine_instance": 384 * 9 * hw + 2 * 9 * hw + 2 * 192 * 768
        + 2 * 4 * 96 * 96 * hw + 2 * 128 * 384 * hw,
    }
    # the ego at t; the collaborator at t - tau - dt, t - tau, and t for the
    # temporal metrics
    want = {name: 4 * n for name, n in per_frame.items()}
    want |= {name: 2 * n for name, n in per_agent.items()}
    assert macs == want
    assert sum(macs.values()) == 3_997_025_280


def test_run_pipeline_reads_the_combine_mode_from_the_weights():
    # PipelineOptions.combine only picks the default weights: the concat
    # option and concat weights under default options give the same run
    scn = _fast_scene()
    concat = run_pipeline(scn, 0.8, 0.2, PipelineOptions(phd=False, combine="concat"),
                          bev=_BEV_SMALL, collect=True)
    given = run_pipeline(scn, 0.8, 0.2, PipelineOptions(phd=False),
                         build_pipeline_weights(0, "concat"), _BEV_SMALL, collect=True)
    summed = run_pipeline(scn, 0.8, 0.2, PipelineOptions(phd=False), bev=_BEV_SMALL,
                          collect=True)
    assert _report_dict(concat) == _report_dict(given)
    assert concat.maps["detection"].tobytes() == given.maps["detection"].tobytes()
    assert concat.maps["detection"].tobytes() != summed.maps["detection"].tobytes()


def test_sweep_passes_every_option_to_both_runs():
    scn = _fast_scene()
    opts = PipelineOptions(phd=False, xi_mode="learned", detector_threshold=0.4)
    rows = sweep(scn, [200], opts, sigmas=((0.1, 1.0),), t=0.8, bev=_BEV_SMALL)
    got = {r["metric"]: r["value"] for r in rows}
    on, off = (run_pipeline(scn, 0.8, 0.2, replace(opts, ptam=ptam, sigma_local=0.1,
                                                   sigma_head_deg=1.0), bev=_BEV_SMALL)
               for ptam in (True, False))
    assert got["cosine_post"] == on.cosine_post
    assert got["cosine_pre"] == on.cosine_pre
    assert got["domain_loss"] == on.domain_loss
    assert got["mean_iou_ptam"] == on.mean_matched_iou
    assert got["mean_iou_baseline"] == off.mean_matched_iou
    # the non-default xi mode did reach the runs
    plain = run_pipeline(scn, 0.8, 0.2, PipelineOptions(phd=False, sigma_local=0.1,
                                                        sigma_head_deg=1.0),
                         bev=_BEV_SMALL)
    assert got["cosine_post"] != plain.cosine_post


def _fresh_weights(seed=0):
    """Frozen weights no context has seen: copies of the built ones."""
    return freeze_weights({n: a.copy() for n, a in build_pipeline_weights(seed).items()})


def _count_builds(monkeypatch) -> dict:
    """Count every build of a value that RunContext derives from the weights."""
    builds = {}

    def counted(name, build):
        def wrapped(*args, **kwargs):
            builds[name] = builds.get(name, 0) + 1
            return build(*args, **kwargs)
        return wrapped

    for name, owner in (("head", pipeline.ForegroundHead), ("struct", StructKernels),
                        ("verification", VerificationSpec),
                        ("xi", pipeline.XiPredictorSpec),
                        ("motion", pipeline.MotionEstimatorSpec)):
        monkeypatch.setattr(owner, "from_weights",
                            staticmethod(counted(name, owner.from_weights)))
    monkeypatch.setattr(pipeline, "instance_terms",
                        counted("terms", pipeline.instance_terms))
    return builds


#: oracle xi reads no xi spec, so none is built; learned xi builds one
_ORACLE_BUILDS = {"head": 1, "struct": 1, "verification": 1, "terms": 1}


def test_sweep_builds_each_spec_once(monkeypatch):
    # the values derived from the weights belong to the run contexts, not to
    # each run or IFAM refinement: a lone run builds each once, a sweep under
    # the same frozen weights builds none, and one under writable weights
    # builds each once, in its one context
    builds = _count_builds(monkeypatch)
    scn, weights = _fast_scene(), _fresh_weights()
    run_pipeline(scn, 0.8, 0.2, PipelineOptions(phd=False), weights, _BEV_SMALL)
    assert builds == _ORACLE_BUILDS
    rows = sweep(scn, [0, 200], PipelineOptions(phd=False), weights=weights, bev=_BEV_SMALL)
    assert len(rows) == 2 * 10
    assert builds == _ORACLE_BUILDS
    builds.clear()
    writable = {n: a.copy() for n, a in weights.items()}
    assert sweep(scn, [0, 200], PipelineOptions(phd=False), weights=writable,
                 bev=_BEV_SMALL) == rows
    assert builds == _ORACLE_BUILDS


def test_lone_runs_build_each_derived_value_once_per_frozen_weights(monkeypatch):
    # every single_pass and fleet_lossy op is a lone run with a fresh
    # context: what is derived from the weights must outlive it
    builds = _count_builds(monkeypatch)
    scn, weights = _fast_scene(), _fresh_weights()
    opts = PipelineOptions(phd=False, motion_mode="learned", xi_mode="learned")
    first, second = (run_pipeline(scn, 0.8, 0.2, opts, weights, _BEV_SMALL)
                     for _ in range(2))
    assert _report_dict(first) == _report_dict(second)
    assert builds == _ORACLE_BUILDS | {"xi": 1, "motion": 3}


def test_ideal_motion_builds_no_motion_spec(monkeypatch):
    # ideal motion overrides every estimate: its encoder split is not made
    builds = _count_builds(monkeypatch)
    run_pipeline(_fast_scene(), 0.8, 0.2, PipelineOptions(phd=False, xi_mode="learned"),
                 _fresh_weights(), _BEV_SMALL)
    assert builds == _ORACLE_BUILDS | {"xi": 1}


def test_writable_weights_changed_in_place_give_the_fresh_result():
    # a writable mapping is derived afresh for each context, so a change in
    # place between two lone runs reaches the second
    scn, opts = _fast_scene(), PipelineOptions(phd=False)
    w = {n: a.copy() for n, a in build_pipeline_weights(0).items()}
    w["fg.conv2.weight"] *= 0.1  # keeps the sigmoid off its tails
    first = run_pipeline(scn, 0.8, 0.2, opts, w, _BEV_SMALL, collect=True)
    w["bevproj.small.weight"] *= -2.0
    w["fg.conv1.weight"][:, 200] += 0.5
    w["ifam.struct.weight"] *= 0.5
    w["ifam.fuse.weight"][:, 400] += 0.5
    again = run_pipeline(scn, 0.8, 0.2, opts, w, _BEV_SMALL, collect=True)
    got = again.maps["ego_foreground"]
    assert np.abs(got - first.maps["ego_foreground"]).max() > 1e-3
    # the foreground head as written: one 3x3 conv over all 384 channels
    ms = RunContext(scn, w, _BEV_SMALL, RenderConfig()).featurize("ego", 0.8, False)
    h = conv2d(bev_project(ms, w), ConvSpec(192, 384, 3, 3, w["fg.conv1.weight"],
                                            bias=w["fg.conv1.bias"], padding=1))
    h = np.maximum(h * w["fg.affine.scale"][:, None, None]
                   + w["fg.affine.shift"][:, None, None], 0.0)
    want = conv2d(h, ConvSpec(1, 192, 1, 1, w["fg.conv2.weight"],
                              bias=w["fg.conv2.bias"], activation="sigmoid"))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # every other derived value followed too: a run under fresh copies agrees
    copied = run_pipeline(scn, 0.8, 0.2, opts, {n: a.copy() for n, a in w.items()},
                          _BEV_SMALL, collect=True)
    assert _report_dict(copied) == _report_dict(again)
    assert copied.maps["detection"].tobytes() == again.maps["detection"].tobytes()


def test_contexts_on_cold_frozen_weights_build_the_head_once(monkeypatch):
    weights, scn = _fresh_weights(), _fast_scene()
    build = pipeline.ForegroundHead.from_weights
    builds = []

    def slow(w):
        builds.append(1)
        time.sleep(0.05)  # every other thread asks while this one builds
        return build(w)

    monkeypatch.setattr(pipeline.ForegroundHead, "from_weights", staticmethod(slow))
    n = 8
    barrier = threading.Barrier(n)
    got = [None] * n

    def ask(i):
        barrier.wait(60)
        got[i] = RunContext(scn, weights, _BEV_SMALL, RenderConfig(), memo=False).head

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(builds) == 1
    assert got[0] is not None and all(head is got[0] for head in got)


def test_concurrent_runs_share_memo_and_build_each_key_once(monkeypatch):
    # four runs at once on one memo: every featurization is built once,
    # whichever lane claims it first, and every report equals its run alone
    scn = _fast_scene()
    weights = build_pipeline_weights(0)
    grid = [(0.0, True), (0.0, False), (0.2, True), (0.2, False)]

    def run(tau, ptam, context=None):
        return _report_dict(run_pipeline(scn, 0.8, tau, PipelineOptions(phd=False, ptam=ptam),
                                         weights, _BEV_SMALL, context=context))

    want = [run(tau, ptam) for tau, ptam in grid]
    original = pipeline.backbone_forward
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        time.sleep(0.02)  # widens the window in which another lane asks for the key
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "backbone_forward", counted)
    context = _context(scn)
    barrier = threading.Barrier(len(grid))
    got = [None] * len(grid)

    def worker(i):
        barrier.wait(60)
        got[i] = run(*grid[i], context=context)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(grid))]
    for th in threads:
        th.start()
    for th in threads:
        th.join(120)
    assert not any(th.is_alive() for th in threads), "a run did not return"
    assert got == want
    features = [k for k in context.entries if k[0] == "ms"]
    # the ego at t, the collaborator at t, t - dt, t - 0.2 and t - 0.2 - dt
    assert len(features) == 5
    assert len(calls) == len(features)


def test_memo_drops_a_failed_build_and_hands_its_error_to_waiters():
    context = _context(_fast_scene())
    started = threading.Event()

    def failing():
        started.set()
        time.sleep(0.5)  # the test thread is waiting on the claimed key by now
        raise _LaneFault("build")

    errors = []

    def first_caller():
        try:
            context.memo("key", failing)
        except _LaneFault as exc:
            errors.append(exc)

    th = threading.Thread(target=first_caller)
    th.start()
    assert started.wait(60)
    with pytest.raises(_LaneFault) as waited:
        context.memo("key", lambda: "not built: the key is claimed")
    th.join(60)
    assert errors == [waited.value]
    assert "key" not in context.entries
    # the next caller builds afresh, and the value is kept from then on
    assert context.memo("key", lambda: 3) == 3
    assert context.memo("key", lambda: 4) == 3


def test_sweep_stage_failure_propagates(monkeypatch):
    scn = _fast_scene()
    opts = PipelineOptions(phd=False)
    want = sweep(scn, [0, 200], opts, bev=_BEV_SMALL)
    stage2 = pipeline.ptam_stage2

    def faulty(inter, field, xi):
        # fails in one grid point only: the aligned run at 200 ms, where
        # oracle xi is the delay in frame intervals
        if xi == 0.2 / scn.frame_interval:
            raise _LaneFault("ptam_stage2")
        return stage2(inter, field, xi)

    monkeypatch.setattr(pipeline, "ptam_stage2", faulty)
    runner = pipeline.run_pipeline
    started, finished, returned = [], [], []

    def recorded_run(*args, **kwargs):
        started.append(1)
        try:
            return runner(*args, **kwargs)
        finally:
            finished.append(time.perf_counter())

    monkeypatch.setattr(pipeline, "run_pipeline", recorded_run)

    def failing_sweep():
        try:
            return sweep(scn, [0, 200], opts, bev=_BEV_SMALL)
        finally:
            returned.append(time.perf_counter())

    _, outcome = _call_with_timeout(failing_sweep)
    assert isinstance(outcome.get("error"), _LaneFault)
    # every grid point that started had finished when the error left sweep
    assert len(finished) == len(started) and max(finished) <= returned[0]
    monkeypatch.undo()
    # the worker is free again and the same sweep gives the usual rows
    _, outcome = _call_with_timeout(lambda: sweep(scn, [0, 200], opts, bev=_BEV_SMALL))
    assert outcome["value"] == want


#: the blocks the weight mapping draws, each on the first read of a name
WEIGHT_BLOCKS = ("backbone", "bevproj", "fg", "disc", "ptam.motion.s0",
                 "ptam.motion.s1", "ptam.motion.s2", "ptam.xi", "ifam.struct",
                 "ifam.verif", "ifam.agg", "ifam.fuse")
WEIGHT_BUILDERS = ("default_backbone_weights", "default_bevproj_weights",
                   "default_foreground_weights", "default_discriminator_weights",
                   "default_motion_weights", "default_xi_weights",
                   "default_struct_weights", "default_verification_weights",
                   "default_aggregate_weights", "default_fuse_weights")


def _eager_weights(seed, combine="sum"):
    """Every stage's weights drawn at once, straight from the builders, in
    the order the pipeline lists them."""
    c = pipeline.PROJECTED_CHANNELS
    weights = {}
    weights.update(default_backbone_weights(seed))
    weights.update(default_bevproj_weights(seed))
    weights.update(default_foreground_weights(c, seed))
    weights.update(default_discriminator_weights(c, seed))
    for i, ch in enumerate(pipeline.SCALE_CHANNELS):
        weights.update(default_motion_weights(ch, seed, prefix=f"ptam.motion.s{i}."))
    weights.update(default_xi_weights(seed, prefix="ptam."))
    weights.update(default_struct_weights(c, seed))
    weights.update(default_verification_weights(c, seed))
    weights.update(default_aggregate_weights(c, seed, combine))
    weights.update(default_fuse_weights(c, seed))
    return weights


@pytest.fixture
def cold_weights(monkeypatch):
    """``build_pipeline_weights`` on an empty cache: a fresh mapping."""
    monkeypatch.setattr(pipeline, "_WEIGHTS", pipeline._Memo())


def _count_draws(monkeypatch, delay=0.0):
    """A Counter of block draws by block, kept by wrapping every builder the
    weight mapping calls; each draw first sleeps ``delay`` seconds."""
    draws = collections.Counter()
    lock = threading.Lock()

    def wrap(build):
        def counted(*args, **kwargs):
            time.sleep(delay)
            block = build(*args, **kwargs)
            first = next(iter(block))
            (name,) = [b for b in WEIGHT_BLOCKS if first.startswith(b + ".")]
            with lock:
                draws[name] += 1
            return block
        return counted

    for builder in WEIGHT_BUILDERS:
        monkeypatch.setattr(pipeline, builder, wrap(getattr(pipeline, builder)))
    return draws


def test_build_pipeline_weights_one_object_across_threads(monkeypatch, cold_weights):
    # a cold cache asked from many threads at once builds one mapping, and
    # threads reading it all at once draw each block once
    draws = _count_draws(monkeypatch, delay=0.05)
    n = 8
    barrier = threading.Barrier(n)
    got = []

    def ask():
        barrier.wait(60)
        w = build_pipeline_weights(3)
        got.append((w, dict(w)))

    threads = [threading.Thread(target=ask) for _ in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(got) == n and all(w is got[0][0] for w, _ in got)
    assert all(arrays[name] is got[0][1][name] for _, arrays in got for name in arrays)
    assert draws == dict.fromkeys(WEIGHT_BLOCKS, 1)


def test_weight_mapping_lists_names_without_drawing(monkeypatch, cold_weights):
    draws = _count_draws(monkeypatch)
    w = build_pipeline_weights(0)
    names = list(_eager_weights(0))
    assert list(w) == names and list(w.keys()) == names and len(w) == 75
    assert "ptam.xi.conv0.weight" in w and "ptam.xi.nothing" not in w
    assert not draws
    # one read draws its block alone, and a second read draws nothing
    xi = w["ptam.xi.mlp1.weight"]
    assert w["ptam.xi.mlp1.weight"] is xi and "ptam.xi.conv0.bias" in w
    assert draws == {"ptam.xi": 1}
    with pytest.raises(KeyError, match="ptam.xi.nothing"):
        w["ptam.xi.nothing"]
    assert w.get("ptam.xi.nothing") is None
    dict(w)
    assert draws == dict.fromkeys(WEIGHT_BLOCKS, 1)


@pytest.mark.parametrize("seed, combine", [(0, "sum"), (5, "concat")])
def test_weight_mapping_matches_the_eager_draw(cold_weights, seed, combine):
    # every block seeds its own draw: read last block first, the arrays and
    # the archive are those of all stages drawn at once in order
    w = build_pipeline_weights(seed, combine)
    for name in reversed(list(w)):
        w[name]
    eager = _eager_weights(seed, combine)
    assert list(w) == list(eager)
    for name, arr in eager.items():
        np.testing.assert_array_equal(w[name], arr, strict=True)
    lazy_bytes, eager_bytes = io.BytesIO(), io.BytesIO()
    save_weights(w, lazy_bytes)
    save_weights(eager, eager_bytes)
    assert lazy_bytes.getvalue() == eager_bytes.getvalue()


def test_weight_draw_that_raises_is_retried(monkeypatch, cold_weights):
    build = pipeline.default_fuse_weights
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == 1:
            raise _LaneFault("fuse weights")
        return build(*args)

    monkeypatch.setattr(pipeline, "default_fuse_weights", flaky)
    w = build_pipeline_weights(0)
    with pytest.raises(_LaneFault):
        w["ifam.fuse.bias"]
    weight = w["ifam.fuse.weight"]
    assert len(calls) == 2 and w["ifam.fuse.weight"] is weight
    np.testing.assert_array_equal(
        weight, build(pipeline.PROJECTED_CHANNELS, 0)["ifam.fuse.weight"])
    assert not weight.flags.writeable and weight.flags.owndata


@pytest.mark.parametrize("options, ptam_draws", [
    ({}, {}),
    ({"motion_mode": "learned"},
     {"ptam.motion.s0": 1, "ptam.motion.s1": 1, "ptam.motion.s2": 1}),
    ({"xi_mode": "learned"}, {"ptam.xi": 1}),
], ids=["default", "learned-motion", "learned-xi"])
def test_run_draws_only_the_weights_it_reads(monkeypatch, cold_weights, options, ptam_draws):
    # two collaborators put both lanes to work; a run under the default
    # options never reads a PTAM estimator, so it never draws one
    draws = _count_draws(monkeypatch)
    run_pipeline(_three_agent_scene(), 0.8, 0.2, PipelineOptions(**options), bev=_BEV_SMALL)
    stages = {b: 1 for b in WEIGHT_BLOCKS if not b.startswith("ptam.")}
    assert draws == {**stages, **ptam_draws}


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
    # shared weights are read-only and own their data, built or loaded
    for loaded in (w, back):
        for k, arr in loaded.items():
            assert not arr.flags.writeable and arr.flags.owndata, k
        with pytest.raises(ValueError):
            loaded["fg.conv1.weight"][0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            loaded["ifam.struct.weight"] *= 2.0
        with pytest.raises(TypeError):
            loaded["ifam.eps"] = np.array([5.0])


def test_building_weights_copies_no_tensor(cold_weights):
    # the weight set is drawn once: a copy on freezing would hold it twice
    tracemalloc.start()
    try:
        w = build_pipeline_weights(7)
        arrays = [w[name] for name in w]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(arrays) == 75
    assert peak < 1.25 * sum(a.nbytes for a in arrays)


def test_shared_weights_mapping_rejects_item_assignment():
    # a name rebound in the cached mapping once reached every later build
    w = build_pipeline_weights(0)
    eps = w["ifam.eps"]
    with pytest.raises(TypeError):
        w["ifam.eps"] = np.array([5.0])
    with pytest.raises(TypeError):
        del w["ifam.eps"]
    assert build_pipeline_weights(0)["ifam.eps"] is eps
    np.testing.assert_array_equal(
        eps, default_aggregate_weights(pipeline.PROJECTED_CHANNELS, 0, "sum")["ifam.eps"])


def test_pipeline_options_validation():
    with pytest.raises(ShapeError):
        PipelineOptions(xi_mode="exact")
    with pytest.raises(ShapeError):
        PipelineOptions(codec="gzip")
    with pytest.raises(ShapeError):
        PipelineOptions(sigma_local=-1.0)
    with pytest.raises(ShapeError, match="unknown combine mode 'stack'"):
        PipelineOptions(combine="stack")
    for bad in (math.nan, 0.0, -0.5, 1.5, math.inf):
        with pytest.raises(ShapeError, match=re.escape(
                f"detector_threshold must be in (0, 1], got {bad}")):
            PipelineOptions(detector_threshold=bad)
    assert PipelineOptions(detector_threshold=1.0).detector_threshold == 1.0
    for name in ("ptam", "phd", "phd_collaborators"):
        for bad in ("no", 1, None):
            with pytest.raises(ShapeError, match=re.escape(
                    f"{name} must be true or false, got {bad!r}")):
                PipelineOptions(**{name: bad})
    for bad in (-1, 1.5, True, "0"):
        with pytest.raises(ShapeError, match=re.escape(
                f"weight_seed must be a non-negative integer, got {bad!r}")):
            PipelineOptions(weight_seed=bad)
    assert PipelineOptions(weight_seed=np.int64(3)).weight_seed == 3
    # true once ran as sigma 1 or threshold 1.0, and "1" ended in a TypeError
    for name, want in (("sigma_local", "non-negative and finite"),
                       ("sigma_head_deg", "non-negative and finite"),
                       ("detector_threshold", "in (0, 1]")):
        for bad in (True, False, "1", None):
            with pytest.raises(ShapeError, match=re.escape(
                    f"{name} must be {want}, got {bad!r}")):
                PipelineOptions(**{name: bad})
    # an integer is finite however large; math.isfinite would overflow on it
    assert PipelineOptions(weight_seed=10**400).weight_seed == 10**400
    # the fixed settings, and the retired stage-2 variant, are no options
    for name in ("window", "noise_seed", "stage2_variant"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            PipelineOptions(**{name: 8})


# ---------------------------------------------------------------------------
# config

def test_config_unknown_key_names_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"options": {"ptamm": True}}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "$.options.ptamm" in str(err.value)


def test_config_bad_sweep_grid(tmp_path):
    # a bad sigma or t once reached the runs and ended in a TypeError
    path = tmp_path / "cfg.json"
    for grid, key in (
        ({"taus_ms": []}, "$.sweep.taus_ms"),
        ({"taus_ms": [0, math.inf]}, "$.sweep.taus_ms"),
        ({"taus_ms": [True]}, "$.sweep.taus_ms"),
        ({"sigmas": [["a", 0]]}, "$.sweep.sigmas[0][0]"),
        ({"sigmas": [[0.1, 0.0], [0.2, -1.0]]}, "$.sweep.sigmas[1][1]"),
        ({"sigmas": [[True, 0]]}, "$.sweep.sigmas[0][0]"),
        ({"sigmas": [[math.inf, 0]]}, "$.sweep.sigmas[0][0]"),
        ({"t": "x"}, "$.sweep.t"),
        ({"t": False}, "$.sweep.t"),
        ({"t": math.nan}, "$.sweep.t"),
    ):
        path.write_text(json.dumps({"sweep": grid}))
        with pytest.raises(ConfigError, match=re.escape(key + ":")):
            load_config(path)


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


def test_cli_non_finite_scenario_exits_2_naming_the_key(tmp_path, capsys):
    from cpalign.cli import main
    doc = scenario_to_dict(_fast_scene())
    doc["objects"][0]["box"]["length"] = math.nan
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": doc}))
    for flag, path in (("--scenario", scn), ("--config", cfg)):
        assert main(["run", flag, str(path), "--tau-ms", "200", "--t", "0.8"]) == 2
        err = capsys.readouterr().err
        assert "objects[0].box.length must be finite" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_cli_bad_scenario_seed_exits_2_naming_it(tmp_path, capsys, seed):
    # -1 once ended in a ValueError traceback at the first render and 1.5 in
    # a TypeError one; a document's 1.5 or true was read as seed 1
    from cpalign.cli import main
    doc = scenario_to_dict(_fast_scene())
    doc["seed"] = seed
    files = {"scn.json": doc, "inline.json": {"scenario": doc},
             "template.json": {"scenario": {"template": "straight", "seed": seed}}}
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    argvs = [["run", "--scenario", str(tmp_path / "scn.json")],
             ["run", "--config", str(tmp_path / "inline.json")],
             ["run", "--config", str(tmp_path / "template.json")]]
    out = tmp_path / "gen.json"
    if seed == -1:
        argvs += [["run", "--seed", "-1"], ["gen", "--seed", "-1", "--out", str(out)]]
    for argv in argvs:
        assert main(argv + (["--tau-ms", "200", "--t", "0.8"] if argv[0] == "run"
                            else [])) == 2
        err = capsys.readouterr().err
        assert f"seed must be a non-negative integer, got {seed!r}" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_cli_bool_scenario_number_exits_2_naming_the_key(tmp_path, capsys):
    # each once ran with true read as 1, and with "4" read as 4.0 (a
    # template's "4" was refused without its key)
    for bad in (True, "4"):
        doc = scenario_to_dict(_fast_scene())
        doc["agents"][0]["x"] = bad
        files = {"scn.json": doc, "inline.json": {"scenario": doc},
                 "template.json": {"scenario": {"template": "straight", "speed": bad}}}
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        for flag, name, named in (("--scenario", "scn.json", "agents[0].x must be a number"),
                                  ("--config", "inline.json", "agents[0].x must be a number"),
                                  ("--config", "template.json",
                                   "speed must be a finite number")):
            assert _exit_code(["run", flag, str(tmp_path / name),
                               "--tau-ms", "200", "--t", "0.8"]) == 2
            err = capsys.readouterr().err
            assert f"{named}, got {bad!r}" in err
            assert "Traceback" not in err


@pytest.mark.parametrize("grid,key", [
    ({"sigmas": [["a", 0]]}, "$.sweep.sigmas[0][0]"),
    ({"t": "x"}, "$.sweep.t"),
])
def test_cli_bad_sweep_grid_exits_2_naming_the_key(tmp_path, capsys, grid, key):
    # each once ended in a TypeError traceback with status 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": grid}))
    out = tmp_path / "out.csv"
    assert _exit_code(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected a finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def _object_free_scene():
    return _simple_scenario(objects=[], duration=0.8)


_NO_GROUND = RenderConfig(include_ground=False)


@pytest.mark.parametrize("phd", [False, True])
def test_featurize_rejects_an_empty_agent_cloud(phd):
    ctx = RunContext(_object_free_scene(), build_pipeline_weights(0), _BEV_SMALL,
                     _NO_GROUND)
    with pytest.raises(ShapeError, match=re.escape(
            "agent 'collab' has an empty point cloud at frame 3 (t = 0.3 s)")):
        ctx.featurize("collab", 0.3, phd)


def test_run_pipeline_rejects_an_empty_agent_cloud():
    opts = PipelineOptions(phd=False, motion_mode="learned")
    _, outcome = _call_with_timeout(lambda: run_pipeline(
        _object_free_scene(), 0.7, 0.2, opts, bev=_BEV_SMALL, render_cfg=_NO_GROUND))
    assert isinstance(outcome.get("error"), ShapeError)
    assert re.search(r"agent '(ego|collab)' has an empty point cloud at frame \d",
                     str(outcome["error"]))


def test_cli_empty_agent_cloud_exits_2(tmp_path, capsys):
    from cpalign.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario_to_dict(_object_free_scene()),
                               "render": {"include_ground": False},
                               "options": {"motion_mode": "learned"}}))
    assert main(["run", "--config", str(cfg), "--tau-ms", "200", "--t", "0.7"]) == 2
    err = capsys.readouterr().err
    assert "has an empty point cloud at frame" in err
    assert "Traceback" not in err


def _overflowing_document() -> dict:
    """A finite scenario document whose first car, at cx = vx = 1e308,
    overflows to inf from frame 8 on."""
    doc = scenario_to_dict(generate_scenario("straight"))
    doc["objects"][0]["box"]["cx"] = 1e308
    doc["objects"][0]["vx"] = 1e308
    return doc


@pytest.mark.parametrize("phd", [False, True])
def test_featurize_rejects_a_non_finite_agent_cloud(monkeypatch, phd):
    # the error once came from deep in the stage that first read the cloud,
    # naming neither the agent nor the frame; a scenario cannot make such a
    # cloud any more, so a stub renderer does
    scn = _fast_scene()
    render = pipeline.render_pointcloud

    def nan_at_frame_8(scenario, agent_id, t, cfg):
        cloud = render(scenario, agent_id, t, cfg)
        if scenario.frame_index(t) == 8:
            cloud[0, 1] = np.nan
        return cloud

    monkeypatch.setattr(pipeline, "render_pointcloud", nan_at_frame_8)
    ctx = RunContext(scn, build_pipeline_weights(0), _BEV_SMALL, RenderConfig())
    ctx.featurize("collab", 0.7, phd)
    with pytest.raises(ShapeError, match=re.escape(
            "agent 'collab' has a non-finite point cloud at frame 8 (t = 0.8 s)")):
        ctx.featurize("collab", 0.8, phd)


def test_cli_non_finite_agent_cloud_exits_2(tmp_path, capsys):
    # the overflowing track is refused when the document loads, before any
    # render computes with it
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_overflowing_document()))
    assert _exit_code(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "objects[0] pose is not finite at frame 8 (t = 0.8 s)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("values,named,at", [
    ({"objects[0].box.cx": 1e308, "objects[0].vx": 1e308}, "objects[0]", "frame 8 (t = 0.8 s)"),
    ({"objects[1].vx": -1.7e308}, "objects[1]", "frame 11 (t = 1.1 s)"),
    ({"agents[1].y": -1e308, "agents[1].vy": -1e308}, "agents[1]", "frame 8 (t = 0.8 s)"),
    # a turning track is integrated frame by frame; once inf it stays inf
    ({"objects[0].vx": 1e308, "objects[0].vy": 1.7e308, "objects[0].yaw_rate": 0.3},
     "objects[0]", "frame 5 (t = 0.5 s)"),
    # a yaw step that overflows once ended in a bare ValueError from the renderer
    ({"objects[0].yaw_rate": 1e308, "frame_interval": 10.0, "duration": 20.0},
     "objects[0]", "frame 1 (t = 10 s)"),
], ids=["object", "second-object", "agent", "turning", "yaw"])
def test_scenario_refuses_a_track_that_overflows(values, named, at):
    doc = scenario_to_dict(generate_scenario("straight"))
    for path, value in values.items():
        _set_key_path(doc, path, value)
    with pytest.raises(ShapeError, match=re.escape(f"{named} pose is not finite at {at}")):
        scenario_from_dict(doc)


def _exit_code(argv):
    from cpalign.cli import main
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value this way
        return exc.code


@pytest.mark.parametrize("argv,named", [
    (["run", "--tau-ms", "-100"], "got -0.1 s"),
    (["run", "--tau-ms", "nan"], "time nan"),
    (["run", "--t", "0.85"], "time 0.85"),
    pytest.param(["run", "--window", "8"], "unrecognized arguments: --window 8",
                 id="window-flag-removed"),
    (["sweep", "--taus-ms", "0,abc"], "'abc' is not a number"),
    (["sweep", "--taus-ms", ","], "',' names no delay"),
    (["sweep", "--sigmas", "0:x"], "'x' is not a number"),
    (["gen", "--duration", "nan"], "duration must be non-negative and finite, got nan"),
    (["run", "--threshold", "nan"], "detector_threshold must be in (0, 1], got nan"),
    (["run", "--threshold", "0"], "detector_threshold must be in (0, 1], got 0.0"),
    (["run", "--ideal-mode", "global"], "unrecognized arguments: --ideal-mode global"),
    (["run", "--weight-seed", "-1"], "weight_seed must be a non-negative integer, got -1"),
    (["sweep", "--weight-seed", "-1"], "weight_seed must be a non-negative integer, got -1"),
    (["bench", "--window", "0"], "argument --window: must be a positive integer, got '0'"),
    (["bench", "--height", "0"], "argument --height: must be a positive integer, got '0'"),
    (["bench", "--channels", "-3"], "argument --channels: must be a positive integer, got '-3'"),
    (["bench", "--width", "1.5"], "argument --width: must be a positive integer, got '1.5'"),
    (["bench", "--kernels", "--repeats", "0"],
     "argument --repeats: must be a positive integer, got '0'"),
    (["bench", "--window", "100", "--height", "48", "--width", "48"],
     "--window 100 exceeds the 48x48 grid of --height and --width"),
    pytest.param(["run", "--variant", "literal"], "unrecognized arguments: --variant literal",
                 id="variant-flag-removed"),
])
def test_cli_bad_flag_value_exits_2_naming_it(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    if argv[0] != "run":
        argv = argv + ["--out", str(out)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


def _bad_section(section, values, named, i):
    return pytest.param(section, values, named, id=f"{section}{i}-{named}")


@pytest.mark.parametrize("section,values,named", [
    _bad_section("render", {"density": math.nan}, "density", 0),
    _bad_section("render", {"interior_fraction": 2.0}, "interior_fraction", 1),
    _bad_section("render", {"min_points": -5}, "min_points", 2),
    _bad_section("render", {"ground_extent": math.inf}, "ground_extent", 3),
    _bad_section("render", {"ground_points": -3}, "ground_points", 4),
    _bad_section("options", {"detector_threshold": math.nan}, "detector_threshold", 0),
    _bad_section("options", {"detector_threshold": 1.5}, "detector_threshold", 1),
    _bad_section("options", {"window": 8}, "window", 2),
    _bad_section("options", {"noise_seed": -3, "sigma_local": 0.2}, "noise_seed", 3),
    _bad_section("options", {"stage2_variant": "literal", "ptam": False}, "stage2_variant", 4),
    _bad_section("options", {"ptam": "no"}, "ptam", 5),
    _bad_section("options", {"phd": 1}, "phd", 6),
    _bad_section("options", {"phd_collaborators": "yes"}, "phd_collaborators", 7),
    _bad_section("options", {"weight_seed": -1}, "weight_seed", 8),
    _bad_section("render", {"max_points": 2}, "max_points", 5),
    _bad_section("options", {"sigma_local": True}, "sigma_local", 9),
    _bad_section("options", {"sigma_head_deg": "1"}, "sigma_head_deg", 10),
    _bad_section("options", {"detector_threshold": True}, "detector_threshold", 11),
    _bad_section("options", {"sigma_local": None}, "sigma_local", 12),
])
def test_cli_bad_render_config_exits_2(tmp_path, capsys, section, values, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: values}))
    assert _exit_code(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    if named in _FIXED_RENDER + ("window", "noise_seed", "stage2_variant"):
        # a fixed or retired setting is no key of its section
        assert f"$.{section}.{named}: unknown key" in err
    else:
        assert f"$.{section}: {named} must be" in err
    assert "Traceback" not in err


_CONFIG_CLASHES = [
    ("codec", ["--codec", "fp16"], "$.options.codec"),
    ("variant", ["--variant", "literal"], None),  # retired: no flag at all
    ("weight-seed", ["--weight-seed", "1"], "$.options.weight_seed"),
    ("no-ptam", ["--no-ptam"], "$.options.ptam"),
    ("threshold", ["--threshold", "0.5"], "$.options.detector_threshold"),
    ("template", ["--template", "straight"], "$.scenario.template"),
    ("seed", ["--seed", "0"], "$.scenario.seed"),
    ("scenario", ["--scenario", "scn.json"], "$.scenario"),
]

# the sweep grid flags exist on sweep only; run's --t is its evaluation time
_SWEEP_CLASHES = [
    ("taus-ms", ["--taus-ms", "100"], "$.sweep.taus_ms"),
    ("sigmas", ["--sigmas", "0.5:1"], "$.sweep.sigmas"),
    ("t", ["--t", "0.8"], "$.sweep.t"),
]


@pytest.mark.parametrize("command,flags,key", [
    pytest.param(command, flags, key, id=f"{name}-{command}")
    for name, flags, key in _CONFIG_CLASHES for command in ("run", "sweep")
] + [pytest.param("sweep", flags, key, id=f"{name}-sweep")
     for name, flags, key in _SWEEP_CLASHES])
def test_cli_flag_with_config_exits_2_naming_the_key(tmp_path, capsys, command, flags, key):
    # a config file states the whole run: a flag beside it was once dropped
    # without a word (--codec fp16 reported the config's int8, --taus-ms
    # 100 ran in place of the config's grid)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"options": {"codec": "int8"}}))
    out = tmp_path / "out"
    assert _exit_code([command, "--config", str(cfg), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if key is None:
        assert f"unrecognized arguments: {' '.join(flags)}" in err
    else:
        assert f"{flags[0]} cannot be combined with --config: set {key} in the config" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_weights_archive_with_a_weight_option_exits_2(tmp_path, capsys, command):
    # the archive once won without a word over --weight-seed 3
    archive = tmp_path / "w.cpaw"
    save_weights(build_pipeline_weights(0), archive)
    out = tmp_path / "out"
    base = [command, "--weights", str(archive), "--out", str(out)]
    assert _exit_code(base + ["--weight-seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "--weights cannot be combined with --weight-seed: the archive sets" in err
    cfg = tmp_path / "cfg.json"
    for key, value in (("weight_seed", 3), ("combine", "concat")):
        cfg.write_text(json.dumps({"options": {key: value, "codec": "int8"}}))
        assert _exit_code(base + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert (f"--weights cannot be combined with $.options.{key} in the config "
                "file: the archive sets every weight") in err
        assert "Traceback" not in err
    assert not out.exists()
    # the archive beside any other option is fine
    from cpalign import cli
    cfg.write_text(json.dumps({"options": {"codec": "int8"}}))
    args = cli.build_parser().parse_args(base + ["--config", str(cfg)])
    assert cli._load_setup(args)[3] == PipelineOptions(codec="int8")
    args = cli.build_parser().parse_args(base + ["--codec", "fp16"])
    assert cli._load_setup(args)[3] == PipelineOptions(codec="fp16")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name,shape,needs", [
    ("ifam.struct.weight", (256, 3, 3), 3456),
    ("ifam.struct.bias", (5, 380), 1920),
])
def test_cli_missized_struct_weights_exit_2(tmp_path, capsys, command, name, shape, needs):
    # a bare reshape once ended such an archive in a ValueError traceback
    archive = tmp_path / "w.cpaw"
    save_weights(dict(build_pipeline_weights(0)) | {name: np.zeros(shape)}, archive)
    out = tmp_path / "out"
    delays = ["--tau-ms", "100"] if command == "run" else ["--taus-ms", "100"]
    assert _exit_code([command, "--weights", str(archive), *delays, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name} has {np.prod(shape)} values, needs {needs}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_unset_option_flags_keep_the_option_defaults():
    from cpalign import cli
    args = cli.build_parser().parse_args(["run"])
    scenario, _, _, opts, _ = cli._load_setup(args)
    assert opts == PipelineOptions()
    assert scenario == generate_scenario("crossing")
    args = cli.build_parser().parse_args(["run", "--no-phd", "--codec", "int8", "--seed", "2"])
    scenario, _, _, opts, _ = cli._load_setup(args)
    assert opts == PipelineOptions(phd=False, codec="int8")
    assert scenario == generate_scenario("crossing", seed=2)


def test_cli_seed_beside_scenario_sets_the_documents_seed(tmp_path):
    # the flag was once dropped without a word: the report was byte-identical
    path = tmp_path / "scn.json"
    save_scenario(_fast_scene(), path)
    assert _scenario_of(["--scenario", str(path)]) == _fast_scene()
    assert _scenario_of(["--scenario", str(path), "--seed", "3"]) == replace(_fast_scene(),
                                                                             seed=3)


def test_scenario_with_agents_refuses_template_and_speed(tmp_path, capsys):
    # both were once ignored: template turning and speed 9 gave the bare
    # document's report
    doc = scenario_to_dict(_fast_scene())
    cfg = tmp_path / "cfg.json"
    for key, value in (("template", "turning"), ("speed", 9)):
        cfg.write_text(json.dumps({"scenario": doc | {key: value}}))
        with pytest.raises(ConfigError, match=re.escape(
                f"$.scenario.{key}: a scenario with agents or objects takes no")):
            load_config(cfg)
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(doc))
    assert _exit_code(["run", "--scenario", str(scn), "--template", "turning"]) == 2
    err = capsys.readouterr().err
    assert "$.scenario.template: a scenario with agents or objects takes no" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


def _sweep_doc():
    return {"sweep": {"taus_ms": [0], "sigmas": [[0.0, 0.0]]}}


#: (base document, key path, what the error names, bounded below by zero) of
#: each number a config document holds
CONFIG_NUMBERS = (
    [(lambda: {"scenario": scenario_to_dict(_fast_scene())}, f"scenario.{p}", p,
      p in ("duration", "frame_interval", "seed") or p.endswith(("length", "width", "height")))
     for p in SCENARIO_NUMBER_PATHS]
    + [(lambda: {"scenario": {"template": "straight"}}, f"scenario.{k}", k, k != "speed")
       for k in ("speed", "duration", "frame_interval", "seed")]
    + [(lambda s=section: {s: {}}, f"{section}.{k}", k, True) for section, k in (
        ("options", "sigma_local"), ("options", "sigma_head_deg"),
        ("options", "detector_threshold"), ("options", "weight_seed"),
        ("render", "density"), ("render", "max_points"),
        ("bev", "x_extent"), ("bev", "y_extent"), ("bev", "cell"))]
    + [(_sweep_doc, "sweep.taus_ms[0]", "$.sweep.taus_ms", True),
       (_sweep_doc, "sweep.sigmas[0][0]", "$.sweep.sigmas[0][0]", True),
       (_sweep_doc, "sweep.sigmas[0][1]", "$.sweep.sigmas[0][1]", True),
       (_sweep_doc, "sweep.t", "$.sweep.t", False)])

_NOT_NUMBERS = st.sampled_from([True, False, "3", " 0.8 ", math.nan, math.inf, -math.inf])
_NEGATIVE = st.one_of(st.integers(max_value=-1),
                      st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(CONFIG_NUMBERS), data=st.data())
def test_config_names_every_bad_number(cfg_path, entry, data):
    base, path, named, non_negative = entry
    bad = data.draw(st.one_of(_NOT_NUMBERS, _NEGATIVE) if non_negative else _NOT_NUMBERS)
    doc = base()
    _set_key_path(doc, path, bad)
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert str(err.value).startswith("$." + path.split(".")[0])
    assert named in str(err.value)


@settings(max_examples=30, deadline=None)
@given(path=st.sampled_from(["scenario.seed", "options.weight_seed", "render.max_points"]),
       explicit=st.booleans(), big=st.integers(min_value=2 ** 1024, max_value=10 ** 400))
def test_config_accepts_an_integer_beyond_float_range(cfg_path, path, explicit, big):
    # math.isfinite overflows on such an integer: it once ended in an OverflowError
    doc = {"scenario": scenario_to_dict(_fast_scene()) if explicit else {"template": "straight"},
           "options": {}, "render": {}}
    _set_key_path(doc, path, big)
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path)
    section, key = path.split(".")
    assert getattr(cfg[section], key) == big


#: the entries of CONFIG_NUMBERS whose key is a real number, not an integer
_REAL_NUMBERS = [entry for entry in CONFIG_NUMBERS
                 if entry[2] not in ("seed", "weight_seed", "max_points")]


@settings(max_examples=100, deadline=None)
@given(entry=st.sampled_from(_REAL_NUMBERS),
       big=st.integers(min_value=2 ** 1024, max_value=10 ** 400)
       | st.integers(min_value=-10 ** 400, max_value=-2 ** 1024))
def test_config_refuses_an_integer_beyond_float_range_for_a_real_key(cfg_path, entry, big):
    # $.scenario.speed or $.options.sigma_local at 10**400 once loaded and
    # ended in an OverflowError where the value was first used
    base, path, named, _ = entry
    doc = base()
    _set_key_path(doc, path, big)
    cfg_path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert str(err.value).startswith("$." + path.split(".")[0])
    assert named in str(err.value)


@pytest.mark.parametrize("section,key", [("scenario", "speed"), ("options", "sigma_local")])
def test_cli_refuses_an_integer_beyond_float_range(tmp_path, capsys, section, key):
    doc = {"scenario": {"template": "straight"}}
    doc.setdefault(section, {})[key] = 10 ** 400
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert _exit_code(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"$.{section}: {key} must be" in err and "Traceback" not in err


def _unknown_key(key: str, path) -> str | None:
    """The error of load_config on a document that sets ``key`` to null,
    when it is refused as no key or section of the document."""
    section, _, name = key.partition(".")
    path.write_text(json.dumps({section: {name: None} if name else {}}))
    try:
        load_config(path)
    except ConfigError as exc:
        if "unknown key" in str(exc) or "unknown section" in str(exc):
            return str(exc)
    return None


def test_every_cli_flag_sets_a_config_key(cfg_path):
    # a flag that bypassed the document would need a second set of defaults
    from cpalign import cli
    tables = cli._SCENARIO_FLAGS + cli._GEN_FLAGS + cli._OPTION_FLAGS + cli._SWEEP_FLAGS
    refused = {flag: _unknown_key(key, cfg_path) for flag, key, _ in tables}
    assert {flag: err for flag, err in refused.items() if err} == {}
    # the check itself, on keys that the document lacks
    assert _unknown_key("options.window", cfg_path).startswith("$.options.window: unknown key")
    assert _unknown_key("fleet.layouts", cfg_path).startswith("$.fleet: unknown section")


def test_cli_unknown_config_path_errors(capsys):
    from cpalign.cli import main
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2
