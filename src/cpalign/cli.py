"""Command line front end: gen / run / sweep / bench / check."""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, backend
from .checks import ALL_CHECKS, run_all
from .domain_align import save_pgm
from .featurizer import BevSpec
from .harness.config import ConfigError, load_config
from .harness.pipeline import (
    PipelineOptions,
    build_pipeline_weights,
    run_pipeline,
    sweep,
    write_sweep_csv,
)
from .harness.scenario import RenderConfig, generate_scenario, load_scenario, save_scenario
from .numerics import load_weights, save_weights
from .opcount import count_similarity_ops


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario JSON produced by 'gen'")
    p.add_argument("--template", default="crossing",
                   choices=("straight", "crossing", "turning"),
                   help="built-in scene when no --scenario file is given")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="full run configuration JSON")


def _add_option_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-ptam", action="store_true",
                   help="transmit stale frames without temporal alignment")
    p.add_argument("--xi-mode", choices=("oracle", "learned"), default="oracle")
    p.add_argument("--motion-mode", choices=("ideal", "learned"), default="ideal")
    p.add_argument("--ideal-mode", choices=("footprint", "global"),
                   default="footprint")
    p.add_argument("--variant", choices=("scaled", "literal"), default="scaled",
                   help="second-stage displacement handling")
    p.add_argument("--codec", choices=("identity", "fp16", "int8"),
                   default="identity")
    p.add_argument("--no-phd", action="store_true",
                   help="skip near-range point downsampling on the ego cloud")
    p.add_argument("--sigma-local", type=float, default=0.0,
                   help="collaborator position noise, metres")
    p.add_argument("--sigma-head-deg", type=float, default=0.0,
                   help="collaborator heading noise, degrees")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="detector threshold on the normalized energy map")
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--weight-seed", type=int, default=0)
    p.add_argument("--weights", help="load pipeline weights from an archive")
    p.add_argument("--save-weights", help="write the pipeline weights used")


def _options_from_args(args) -> PipelineOptions:
    return PipelineOptions(
        ptam=not args.no_ptam, xi_mode=args.xi_mode,
        motion_mode=args.motion_mode, ideal_mode=args.ideal_mode,
        stage2_variant=args.variant, codec=args.codec, phd=not args.no_phd,
        sigma_local=args.sigma_local, sigma_head_deg=args.sigma_head_deg,
        detector_threshold=args.threshold, window=args.window,
        weight_seed=args.weight_seed)


def _load_setup(args):
    """(scenario, bev, render, options, sweep grid) from config or flags."""
    if args.config:
        cfg = load_config(args.config)
        return (cfg["scenario"], cfg["bev"], cfg["render"], cfg["options"],
                cfg["sweep"])
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = generate_scenario(args.template, seed=args.seed)
    grid = {"taus_ms": [0, 100, 200, 300, 400, 500],
            "sigmas": [(0.0, 0.0)], "t": None}
    return scenario, BevSpec.centered(19.2, 19.2), RenderConfig(), \
        _options_from_args(args), grid


def _resolve_weights(args, opts):
    if getattr(args, "weights", None):
        return load_weights(args.weights)
    return build_pipeline_weights(opts.weight_seed, opts.combine)


def _cmd_gen(args) -> int:
    scn = generate_scenario(args.template, seed=args.seed, speed=args.speed,
                            duration=args.duration,
                            frame_interval=args.frame_interval)
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
    taus = grid["taus_ms"]
    if args.taus_ms:
        taus = [float(v) for v in args.taus_ms.split(",") if v.strip()]
    sigmas = grid["sigmas"]
    if args.sigmas:
        sigmas = []
        for pair in args.sigmas.split(","):
            loc, _, head = pair.partition(":")
            sigmas.append((float(loc), float(head or 0.0)))
    t = args.t if args.t is not None else grid["t"]
    rows = sweep(scenario, taus, opts, sigmas, t, weights, bev, render)
    write_sweep_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows over {len(taus)} delays x "
          f"{len(sigmas)} noise points")
    return 0


def _bench_kernels(repeats: int) -> dict:
    """Median ms per call of each kernel, one case per conv dispatch class."""
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
    p_gen.add_argument("--template", default="crossing",
                       choices=("straight", "crossing", "turning"))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--speed", type=float, default=4.0)
    p_gen.add_argument("--duration", type=float, default=1.2)
    p_gen.add_argument("--frame-interval", type=float, default=0.1)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_run = sub.add_parser("run", help="single fused detection pass")
    _add_scenario_args(p_run)
    _add_option_args(p_run)
    p_run.add_argument("--t", type=float, default=None,
                       help="evaluation time, defaults to the last frame")
    p_run.add_argument("--tau-ms", type=float, default=300.0)
    p_run.add_argument("--out", help="write the report JSON here too")
    p_run.add_argument("--debug-maps",
                       help="directory for PGM dumps of the internal maps")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="delay/noise grid to CSV")
    _add_scenario_args(p_sweep)
    _add_option_args(p_sweep)
    p_sweep.add_argument("--taus-ms", help="comma list, e.g. 0,100,300")
    p_sweep.add_argument("--sigmas",
                         help="comma list of loc:head pairs, e.g. 0:0,0.5:2")
    p_sweep.add_argument("--t", type=float, default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_bench = sub.add_parser("bench", help="operation budgets and kernel timing")
    p_bench.add_argument("--channels", type=int, default=64)
    p_bench.add_argument("--height", type=int, default=256)
    p_bench.add_argument("--width", type=int, default=128)
    p_bench.add_argument("--window", type=int, default=16)
    p_bench.add_argument("--kernels", action="store_true",
                         help="time each kernel, one case per conv dispatch class")
    p_bench.add_argument("--repeats", type=int, default=5)
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
    except (ConfigError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
