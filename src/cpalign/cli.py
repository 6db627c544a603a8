"""Command line front end: gen / run / sweep / bench / check."""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, backend
from .checks import ALL_CHECKS, run_all
from .domain_align import save_pgm
from .harness.config import ConfigError, config_from_dict, load_config, read_json
from .harness.pipeline import build_pipeline_weights, run_pipeline, sweep, write_sweep_csv
from .harness.scenario import save_scenario
from .numerics import ShapeError, load_weights, save_weights
from .opcount import count_similarity_ops


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text.strip()!r} is not a number") from None


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text.strip()!r}")
    return int(text)


def _taus_ms(text: str) -> list:
    """``--taus-ms``: a comma list of delays in milliseconds."""
    taus = [_number(v) for v in text.split(",") if v.strip()]
    if not taus:
        raise argparse.ArgumentTypeError(f"{text!r} names no delay")
    return taus


def _sigmas(text: str) -> list:
    """``--sigmas``: a comma list of loc:head pairs; head defaults to 0."""
    pairs = []
    for pair in text.split(","):
        loc, _, head = pair.partition(":")
        pairs.append((_number(loc), _number(head or "0")))
    return pairs


#: Scenario flags of run and sweep, each with the key of the config document
#: that it sets; --scenario supplies the whole $.scenario section.
_SCENARIO_FLAGS = (
    ("--scenario", "scenario", dict(help="scenario JSON produced by 'gen'")),
    ("--template", "scenario.template",
     dict(choices=("straight", "crossing", "turning"),
          help="built-in scene (default crossing)")),
    ("--seed", "scenario.seed", dict(type=int)),
)

#: Scenario flags of gen: the template scene's keys.
_GEN_FLAGS = _SCENARIO_FLAGS[1:] + (
    ("--speed", "scenario.speed", dict(type=float)),
    ("--duration", "scenario.duration", dict(type=float)),
    ("--frame-interval", "scenario.frame_interval", dict(type=float)),
)

#: Option flags, each with the PipelineOptions field it sets under
#: "options". A flag left unset keeps the field's default.
_OPTION_FLAGS = (
    ("--no-ptam", "options.ptam",
     dict(action="store_false", help="transmit stale frames without temporal alignment")),
    ("--xi-mode", "options.xi_mode", dict(choices=("oracle", "learned"))),
    ("--motion-mode", "options.motion_mode", dict(choices=("ideal", "learned"))),
    ("--codec", "options.codec", dict(choices=("identity", "fp16", "int8"))),
    ("--no-phd", "options.phd",
     dict(action="store_false", help="skip near-range point downsampling on the ego cloud")),
    ("--sigma-local", "options.sigma_local",
     dict(type=float, help="collaborator position noise, metres")),
    ("--sigma-head-deg", "options.sigma_head_deg",
     dict(type=float, help="collaborator heading noise, degrees")),
    ("--threshold", "options.detector_threshold",
     dict(type=float, help="detector threshold on the normalized energy map")),
    ("--weight-seed", "options.weight_seed", dict(type=int)),
)

#: Sweep grid flags, each with its key under "sweep".
_SWEEP_FLAGS = (
    ("--taus-ms", "sweep.taus_ms", dict(type=_taus_ms, help="comma list, e.g. 0,100,300")),
    ("--sigmas", "sweep.sigmas",
     dict(type=_sigmas, help="comma list of loc:head pairs, e.g. 0:0,0.5:2")),
    ("--t", "sweep.t", dict(type=float)),
)

#: Options that pick the built weights; an archive from --weights sets them all.
_WEIGHT_OPTIONS = ("weight_seed", "combine")


def _add_run_args(p: argparse.ArgumentParser, table: tuple) -> None:
    _add_flags(p, table)
    p.add_argument("--config", help="full run configuration JSON")
    p.add_argument("--weights", help="load pipeline weights from an archive")
    p.add_argument("--save-weights", help="write the pipeline weights used")


def _add_flags(p: argparse.ArgumentParser, table: tuple) -> None:
    """Add each flag of ``table``; its value lands at the last part of its
    key, and ``args.flags`` holds the table."""
    for flag, key, kwargs in table:
        p.add_argument(flag, dest=key.rpartition(".")[2], default=None, **kwargs)
    p.set_defaults(flags=table)


def _flags_set(args) -> list:
    """``(flag, config key, value)`` of each table flag that was given."""
    given = [(flag, key, getattr(args, key.rpartition(".")[2]))
             for flag, key, _ in args.flags]
    return [entry for entry in given if entry[2] is not None]


def _flag_document(args) -> dict:
    """The config document that the given flags state, key by key."""
    doc = {}
    for _, key, value in _flags_set(args):
        section, _, name = key.partition(".")
        if not name:
            doc[section] = read_json(value)
        elif isinstance(doc.setdefault(section, {}), dict):
            doc[section][name] = value  # a --scenario file that is no object is refused
    return doc


def _load_setup(args):
    """(scenario, bev, render, options, sweep grid) of the run that the
    config file or the flags state.

    A config file states the whole run, so a scenario, option or sweep grid
    flag given with it is refused, naming the key that sets the same. A
    weights archive sets every weight, so an option that picks the built
    weights is refused beside ``--weights``, naming the flag or key.
    """
    given = _flags_set(args)
    if args.config:
        if given:
            raise ConfigError("; ".join(
                f"{flag} cannot be combined with --config: set $.{key} in the "
                f"config file instead" for flag, key, _ in given))
        cfg = load_config(args.config)
    else:
        cfg = config_from_dict(_flag_document(args))
    flag_of = {key: flag for flag, key, _ in given}
    named = [flag_of.get(f"options.{k}", f"$.options.{k} in the config file")
             for k in _WEIGHT_OPTIONS if k in cfg["option_keys"]]
    if args.weights and named:
        raise ConfigError(f"--weights cannot be combined with {', '.join(named)}: "
                          "the archive sets every weight")
    return cfg["scenario"], cfg["bev"], cfg["render"], cfg["options"], cfg["sweep"]


def _resolve_weights(args, opts):
    if args.weights:
        return load_weights(args.weights)
    return build_pipeline_weights(opts.weight_seed, opts.combine)


def _cmd_gen(args) -> int:
    scn = config_from_dict(_flag_document(args))["scenario"]
    save_scenario(scn, args.out)
    print(f"wrote {args.out}: {len(scn.agents)} agents, "
          f"{len(scn.objects)} objects, {scn.n_frames} frames")
    return 0


def _cmd_run(args) -> int:
    scenario, bev, render, opts, _ = _load_setup(args)
    weights = _resolve_weights(args, opts)
    if args.save_weights:
        save_weights(weights, args.save_weights)
    t = args.t if args.t is not None else \
        (scenario.n_frames - 1) * scenario.frame_interval
    report = run_pipeline(scenario, t, args.tau_ms / 1000.0, opts, weights,
                          bev, render, collect=bool(args.debug_maps))
    if args.debug_maps:
        import os
        os.makedirs(args.debug_maps, exist_ok=True)
        for name, grid in report.maps.items():
            save_pgm(grid, os.path.join(args.debug_maps, f"{name}.pgm"))
    payload = report.as_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_sweep(args) -> int:
    scenario, bev, render, opts, grid = _load_setup(args)
    weights = _resolve_weights(args, opts)
    rows = sweep(scenario, grid["taus_ms"], opts, grid["sigmas"], grid["t"], weights,
                 bev, render)
    write_sweep_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows over {len(grid['taus_ms'])} delays x "
          f"{len(grid['sigmas'])} noise points")
    return 0


def _bench_kernels(repeats: int) -> dict:
    """Median ms per call of each kernel, one case per conv route."""
    from . import kernels

    rng = np.random.default_rng(0)
    cloud = rng.normal(size=(2000, 3))
    f = rng.normal(size=(32, 64, 64))
    sx = rng.uniform(0, 63, size=(64, 64))
    sy = rng.uniform(0, 63, size=(64, 64))

    def conv(cin, cout, k, groups, size):
        x = rng.normal(size=(cin, size + k - 1, size + k - 1))  # pre-padded
        w = rng.normal(size=(cout, cin // groups, k, k))
        return lambda: kernels.conv2d_core(x, w, 1, groups)

    cases = {
        "conv2d.depthwise": conv(64, 64, 3, 64, 64),
        "conv2d.pointwise": conv(128, 64, 1, 4, 64),
        "conv2d.im2col": conv(32, 64, 3, 1, 64),
        "bilinear_gather": lambda: kernels.bilinear_gather(f, sx, sy),
        "fps_order": lambda: kernels.fps_order(cloud, 1000),
    }
    out = {}
    for name, call in cases.items():
        call()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[f"{name}_ms"] = float(np.median(times)) * 1e3
    return out


def _cmd_bench(args) -> int:
    if args.window > min(args.height, args.width):
        raise ConfigError(f"--window {args.window} exceeds the {args.height}x{args.width} "
                          "grid of --height and --width")
    ops_global = count_similarity_ops(args.channels, args.height, args.width,
                                      mode="global")
    ops_block = count_similarity_ops(args.channels, args.height, args.width,
                                     window=args.window, mode="blockwise")
    report = {
        "active_backend": backend.ACTIVE,
        "geometry": {"channels": args.channels, "height": args.height,
                     "width": args.width, "window": args.window},
        "global_ops": ops_global.as_dict(),
        "blockwise_ops": ops_block.as_dict(),
        "blockwise_over_global_mul": ops_block.mul / ops_global.mul,
    }
    if args.kernels:
        report["kernel_timings"] = _bench_kernels(args.repeats)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_check(args) -> int:
    names = [n.strip() for n in args.only.split(",")] if args.only else None
    try:
        results = run_all(names)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"{status}  {res.name:24s} {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpalign",
        description="latency-compensated collaborative perception simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a scenario file")
    _add_flags(p_gen, _GEN_FLAGS)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_run = sub.add_parser("run", help="single fused detection pass")
    _add_run_args(p_run, _SCENARIO_FLAGS + _OPTION_FLAGS)
    p_run.add_argument("--t", type=float, default=None,
                       help="evaluation time, defaults to the last frame")
    p_run.add_argument("--tau-ms", type=float, default=300.0)
    p_run.add_argument("--out", help="write the report JSON here too")
    p_run.add_argument("--debug-maps",
                       help="directory for PGM dumps of the internal maps")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="delay/noise grid to CSV")
    _add_run_args(p_sweep, _SCENARIO_FLAGS + _OPTION_FLAGS + _SWEEP_FLAGS)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_bench = sub.add_parser("bench", help="operation budgets and kernel timing")
    p_bench.add_argument("--channels", type=_positive_int, default=64)
    p_bench.add_argument("--height", type=_positive_int, default=256)
    p_bench.add_argument("--width", type=_positive_int, default=128)
    p_bench.add_argument("--window", type=_positive_int, default=16)
    p_bench.add_argument("--kernels", action="store_true",
                         help="time each kernel, one case per conv dispatch class")
    p_bench.add_argument("--repeats", type=_positive_int, default=5)
    p_bench.add_argument("--out")
    p_bench.set_defaults(fn=_cmd_bench)

    p_check = sub.add_parser("check", help="run the release gate")
    p_check.add_argument("--only", help="comma list of check names")
    p_check.add_argument("--list", action="store_true",
                         help="list check names and exit")
    p_check.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check" and args.list:
        for name, _ in ALL_CHECKS:
            print(name)
        return 0
    try:
        return args.fn(args)
    except (ConfigError, ShapeError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
