"""JSON run configuration with path-qualified validation errors."""

import dataclasses
import json

from ..featurizer import BevSpec
from ..numerics import finite_number
from .pipeline import PipelineOptions
from .scenario import RenderConfig, generate_scenario, scenario_from_dict


class ConfigError(ValueError):
    """Raised with the JSON path of the offending entry."""


_SECTIONS = ("scenario", "bev", "render", "options", "sweep")

_SCENARIO_KEYS = {"template", "seed", "speed", "duration", "frame_interval",
                  "agents", "objects"}
_BEV_KEYS = {"x_extent", "y_extent", "cell"}
_RENDER_KEYS = {f.name for f in dataclasses.fields(RenderConfig)}
_OPTION_KEYS = {f.name for f in dataclasses.fields(PipelineOptions)}
_SWEEP_KEYS = {"taus_ms", "sigmas", "t"}


def _check_keys(section: dict, allowed: set, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object, got {type(section).__name__}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key "
                              f"(allowed: {', '.join(sorted(allowed))})")


def _build(factory, kwargs: dict, path: str):
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_json(path):
    """The JSON document in the file at ``path``; invalid JSON is a
    :class:`ConfigError` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_config(path) -> dict:
    """Parse and validate a run configuration file (see :func:`config_from_dict`)."""
    return config_from_dict(read_json(path))


def config_from_dict(data) -> dict:
    """Validate a run configuration document and build the run it states.

    Returns a dict with constructed objects under "scenario", "bev",
    "render", "options", the raw "sweep" grid, and the keys the document
    sets under "options" as "option_keys".  Every section is optional;
    omitted ones fall back to defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("$: top level must be an object")
    for key in data:
        if key not in _SECTIONS:
            raise ConfigError(f"$.{key}: unknown section "
                              f"(allowed: {', '.join(_SECTIONS)})")

    scn_cfg = data.get("scenario", {"template": "crossing"})
    _check_keys(scn_cfg, _SCENARIO_KEYS, "$.scenario")
    if "agents" in scn_cfg or "objects" in scn_cfg:
        for key in ("template", "speed"):  # a template scene's keys
            if key in scn_cfg:
                raise ConfigError(f"$.scenario.{key}: a scenario with agents or "
                                  "objects takes no template or speed")
        try:
            scenario = scenario_from_dict(scn_cfg)
        except Exception as exc:
            raise ConfigError(f"$.scenario: {exc}") from exc
    else:
        kwargs = {k: scn_cfg[k] for k in
                  ("seed", "speed", "duration", "frame_interval") if k in scn_cfg}
        scenario = _build(
            lambda **kw: generate_scenario(scn_cfg.get("template", "crossing"), **kw),
            kwargs, "$.scenario")

    bev_cfg = dict(data.get("bev", {}))
    _check_keys(bev_cfg, _BEV_KEYS, "$.bev")
    bev_cfg.setdefault("x_extent", 19.2)
    bev_cfg.setdefault("y_extent", 19.2)
    bev = _build(BevSpec.centered, bev_cfg, "$.bev")

    render_cfg = data.get("render", {})
    _check_keys(render_cfg, _RENDER_KEYS, "$.render")
    render = _build(RenderConfig, dict(render_cfg), "$.render")

    opt_cfg = data.get("options", {})
    _check_keys(opt_cfg, _OPTION_KEYS, "$.options")
    options = _build(PipelineOptions, dict(opt_cfg), "$.options")

    sweep_cfg = data.get("sweep", {})
    _check_keys(sweep_cfg, _SWEEP_KEYS, "$.sweep")
    taus = sweep_cfg.get("taus_ms", [0, 100, 200, 300, 400, 500])
    if not isinstance(taus, list) or not taus or \
            not all(finite_number(v) and v >= 0 for v in taus):
        raise ConfigError("$.sweep.taus_ms: expected a non-empty list of finite "
                          "non-negative delays in milliseconds")
    sigmas = sweep_cfg.get("sigmas", [[0.0, 0.0]])
    if not isinstance(sigmas, list) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in sigmas):
        raise ConfigError("$.sweep.sigmas: expected a list of "
                          "[sigma_local_m, sigma_head_deg] pairs")
    for i, pair in enumerate(sigmas):
        for j, sigma in enumerate(pair):
            if not (finite_number(sigma) and sigma >= 0):
                raise ConfigError(f"$.sweep.sigmas[{i}][{j}]: expected a finite "
                                  f"non-negative number, got {sigma!r}")
    t = sweep_cfg.get("t")
    if t is not None and not finite_number(t):
        raise ConfigError(f"$.sweep.t: expected a finite number of seconds, got {t!r}")

    return {
        "scenario": scenario,
        "bev": bev,
        "render": render,
        "options": options,
        "option_keys": sorted(opt_cfg),
        "sweep": {"taus_ms": list(taus),
                  "sigmas": [tuple(p) for p in sigmas],
                  "t": t},
    }
