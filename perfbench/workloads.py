"""The benchmark's workloads: finite input grids and the library call per op.

Each workload is a grid of cells.  A cell fixes every input of one op, so a
recorded reference covers every op any seed can produce.  The run seed only
orders the cells (a fresh seeded permutation per pass over the grid), which
keeps the mix of inputs in every run the same and the medians comparable
across seeds.  The library receives only the generated scenes, the delays and
the options; weights come from its own ``build_pipeline_weights`` cache.
"""

from __future__ import annotations

import math

import numpy as np

from cpalign import harness
from cpalign.harness.scenario import scenario_from_dict

TEMPLATES = ("straight", "crossing", "turning")
TAUS_MS = (100, 200, 300, 400, 500)
SWEEP_TAUS_MS = (100, 300, 500)
FLEET_SCENES = 3
FLEET_TAUS_MS = (100, 300, 500)
_FLEET_TAG = 0xF1EE7

FLEET_OPTIONS = dict(phd_collaborators=True, motion_mode="learned",
                     xi_mode="learned", codec="int8", sigma_local=0.2,
                     sigma_head_deg=0.5)
FLEET_RENDER = dict(density=60000.0, max_points=3000)

#: RunReport fields compared against the reference for every run_pipeline op.
REPORT_FIELDS = ("mean_matched_iou", "cosine_pre", "cosine_post", "xi_s0",
                 "xi_s1", "xi_s2", "codec_mse", "n_detections",
                 "ops_match_closed_form")
#: Sweep row metrics compared for every sweep op, per delay.
SWEEP_METRICS = ("mean_iou_ptam", "mean_iou_baseline", "cosine_pre",
                 "cosine_post", "domain_loss", "codec_mse")


def _t_end(scn) -> float:
    return (scn.n_frames - 1) * scn.frame_interval


def fleet_document(index: int) -> dict:
    """Explicit scene: three agents inside a ring of six cars circling it.

    The agents sit within 1.2 m of the ring centre and the cars on a 6.5 m
    ring, so every car is 5-8 m from every agent and carries 1000-2200
    points at density 60000.  All cars turn at the rate that keeps them on
    the ring, so none overlaps another.  ``index`` seeds the common speed,
    the direction of travel and the collaborator headings, none of which
    changes which points PHD thins: the layout and render seed are shared,
    so the scenes cost the same.
    """
    rng = np.random.default_rng([_FLEET_TAG, index])
    agents = [{"id": "ego", "x": 0.0, "y": 0.0, "yaw": 0.0}]
    for i, (x, y) in enumerate(((1.0, 0.6), (-0.8, 0.9)), start=1):
        agents.append({"id": f"collab{i}", "x": x, "y": y,
                       "yaw": float(rng.uniform(-0.3, 0.3))})
    speed = rng.uniform(3.0, 5.0)
    turn = 1.0 if rng.random() < 0.5 else -1.0
    objects = []
    for j in range(6):
        th = 2.0 * math.pi * j / 6
        yaw = th + turn * math.pi / 2.0
        objects.append({
            "box": {"cx": 6.5 * math.cos(th), "cy": 6.5 * math.sin(th),
                    "cz": 0.8, "length": 4.2, "width": 1.8, "height": 1.6,
                    "yaw": yaw},
            "vx": speed * math.cos(yaw), "vy": speed * math.sin(yaw),
            "yaw_rate": turn * speed / 6.5,
        })
    return {"agents": agents, "objects": objects, "duration": 1.2,
            "frame_interval": 0.1, "seed": 0}


class SinglePass:
    """One cold run_pipeline call with the default oracle options."""

    name = "single_pass"
    cells = tuple(f"{tpl}/seed{s}/tau{tau}" for tpl in TEMPLATES
                  for s in (0, 1) for tau in TAUS_MS)

    @staticmethod
    def scene(cell):
        tpl, seed, _ = cell.split("/")
        return harness.generate_scenario(tpl, seed=int(seed[4:]))

    @staticmethod
    def call(scn, cell):
        tau = int(cell.rsplit("tau", 1)[1]) / 1000.0
        return lambda: harness.run_pipeline(scn, _t_end(scn), tau)

    @staticmethod
    def outputs(report) -> dict:
        d = report.as_dict()
        return {k: d[k] for k in REPORT_FIELDS}

    @staticmethod
    def quality(out: dict) -> tuple:
        return out["mean_matched_iou"], out["cosine_post"]


class DelaySweep:
    """One sweep() over the delays (0, tau): PTAM-on and stale passes that
    share one featurisation cache."""

    name = "delay_sweep"
    cells = tuple(f"{tpl}/taus0-{tau}" for tpl in TEMPLATES
                  for tau in SWEEP_TAUS_MS)

    @staticmethod
    def scene(cell):
        return harness.generate_scenario(cell.split("/")[0], seed=0)

    @staticmethod
    def call(scn, cell):
        taus = (0, int(cell.rsplit("-", 1)[1]))
        return lambda: harness.sweep(scn, taus)

    @staticmethod
    def outputs(rows) -> dict:
        return {f"{r['metric']}@{r['tau_ms']}": r["value"] for r in rows
                if r["metric"] in SWEEP_METRICS}

    @staticmethod
    def quality(out: dict) -> tuple:
        iou = [v for k, v in out.items() if k.startswith("mean_iou_ptam@")]
        cos = [v for k, v in out.items() if k.startswith("cosine_post@")]
        return float(np.mean(iou)), float(np.mean(cos))


class FleetLossy:
    """One run_pipeline call on a dense three-agent explicit scene with
    collaborator PHD, learned motion and xi, int8 and pose noise."""

    name = "fleet_lossy"
    cells = tuple(f"scene{i}/tau{tau}" for i in range(FLEET_SCENES)
                  for tau in FLEET_TAUS_MS)

    @staticmethod
    def scene(cell):
        return scenario_from_dict(fleet_document(int(cell.split("/")[0][5:])))

    @staticmethod
    def call(scn, cell):
        tau = int(cell.rsplit("tau", 1)[1]) / 1000.0
        opts = harness.PipelineOptions(**FLEET_OPTIONS)
        render = harness.RenderConfig(**FLEET_RENDER)
        return lambda: harness.run_pipeline(scn, _t_end(scn), tau, opts,
                                            render_cfg=render)

    outputs = SinglePass.outputs
    quality = SinglePass.quality


WORKLOADS = {w.name: w for w in (SinglePass, DelaySweep, FleetLossy)}


def cell_order(cells, seed: int):
    """Endless seeded sequence of cells, one fresh permutation per pass."""
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(cells)):
            yield cells[int(i)]
