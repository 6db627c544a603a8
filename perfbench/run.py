"""cpalign pipeline benchmark: one command, three workloads.

    python3 perfbench/run.py --workload single_pass --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client, one process.  Each op starts after the
previous one returns, and BLAS runs one thread, so nothing runs in
parallel.  The seed orders the workload's input grid (see ``workloads.py``).

``--trace 0`` times the library untouched and reports the end-to-end
metrics.  ``--trace 1`` runs every op twice, once under the span tracer of
``tracer.py`` and once without, and reports the per-layer metrics.  Every op
is checked against ``reference.json``; ``--record`` rewrites that file.
Results, with the run environment, go to ``perfbench/out/``.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

SETUP_REPEATS = 5
# Output parity: the loosest tolerance the library's own tests use for values
# composed from several kernels (tests/test_featurizer.py, test_domain_align.py).
RTOL = ATOL = 1e-9
# Share of an op's traced wall time that traced functions must account for.
COVERAGE_TOL = 0.01


# One BLAS thread.  On a shared 2-vCPU host, interleaved 30 s single_pass runs
# spread (IQR/median of op_ms_p50 over 6 runs) 5% with one thread and 9% with
# two, for 15% more time per op.
BLAS_THREADS = 1


def configure_blas() -> int:
    """Fix the BLAS pool size; must run before numpy is imported.  Returns
    the number of CPUs this process may use."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def environment(cpus: int) -> dict:
    import ctypes
    import hashlib
    import platform

    import numpy
    import scipy

    from cpalign import backend

    blas = {"library": None, "config": None, "threads": None}
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for stem in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            get = getattr(lib, stem.format("get_num_threads"), None)
            cfg = getattr(lib, stem.format("get_config"), None)
            if get is not None and cfg is not None:
                get.restype, cfg.restype = ctypes.c_int, ctypes.c_char_p
                blas = {"library": lib_path.name, "config": cfg().decode(),
                        "threads": get()}
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "interpreter": sys.executable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": cpus,
        "cpalign_backend": backend.ACTIVE,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "load_model": "closed loop, 1 client, 1 process, seed argument",
    }


def setup_seconds(workload: str) -> list:
    """Set-up time in fresh processes: import, weights, scene generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or (isinstance(a, int) and isinstance(b, int)):
        return a == b
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def check_outputs(out: dict, expected: dict) -> str | None:
    """Reason the op's outputs are wrong, or None."""
    if set(out) != set(expected):
        return f"fields differ from reference: {sorted(set(out) ^ set(expected))}"
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value):
            return f"{key} is not finite ({value})"
        if not _close(value, expected[key]):
            return f"{key}={value!r} outside tolerance of reference {expected[key]!r}"
    if out.get("ops_match_closed_form") is False:
        return "ops_match_closed_form is false"
    return None


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


class Runner:
    """Executes ops of one workload and checks each against the reference."""

    def __init__(self, wl, reference: dict | None, wire_counter):
        self.wl = wl
        self.reference = reference
        self.scenes = {c: wl.scene(c) for c in wl.cells}
        self.outputs = {}
        self.wire = {}
        self.attempted = 0
        self.failures = []
        self._wire_counter = wire_counter

    def op(self, cell, timer=None):
        """Run one op; returns its wall time in seconds."""
        fn = self.wl.call(self.scenes[cell], cell)
        before = self._wire_counter.bytes if self._wire_counter else 0
        self.attempted += 1
        try:
            if timer is None:
                start = time.perf_counter()
                result = fn()
                wall = time.perf_counter() - start
            else:
                result, wall = timer(fn)
        except Exception as exc:  # an op that raises is a failed op
            self.failures.append({"cell": cell, "reason": repr(exc)})
            return float("nan")
        out = self.wl.outputs(result)
        if self.reference is not None:
            reason = check_outputs(out, self.reference[cell])
            if reason is not None:
                self.failures.append({"cell": cell, "reason": reason})
        if cell not in self.outputs:
            self.outputs[cell] = out
            if self._wire_counter:
                self.wire[cell] = self._wire_counter.bytes - before
        return wall

    def done(self):
        return [c for c in self.wl.cells if c in self.outputs]

    def quality(self) -> tuple:
        """Mean IoU and cosine_post over the grid, in grid order."""
        pairs = [self.wl.quality(self.outputs[c]) for c in self.done()]
        return (statistics.fmean(p[0] for p in pairs),
                statistics.fmean(p[1] for p in pairs))


def run_timed(args, runner, order) -> tuple:
    """End-to-end metrics with the library untraced."""
    setup = setup_seconds(args.workload)
    runner.op(next(order))  # warm-up: first-call allocations, page faults
    times, cells = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        cells.append(next(order))
        times.append(runner.op(cells[-1]))
    window = time.perf_counter() - start
    for cell in [c for c in runner.wl.cells if c not in runner.outputs]:
        runner.op(cell)
    ok = [t * 1e3 for t in times if math.isfinite(t)]
    tail_ms, tail_pct = tail(ok)
    iou, cos_post = runner.quality()
    wire = statistics.fmean(runner.wire[c] for c in runner.done())
    metrics = {
        "op_ms_p50": (statistics.median(ok), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (len(times) / window, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wire_bytes_per_op": (wire, "B"),
        "mean_iou": (iou, "iou"),
        "cosine_post": (cos_post, "cosine"),
    }
    notes = {
        "op_ms_tail_percentile": tail_pct, "timed_ops": len(times),
        "window_s": window, "setup_s_samples": setup,
        "wire_bytes": "computed: elements x codec width (identity 4 B, fp16 2 B, int8 1 B + 4 B scale per tensor)",
        "ops": [[c, t * 1e3] for c, t in zip(cells, times)],
    }
    return metrics, notes


def run_traced(args, runner, order) -> tuple:
    """Per-layer metrics: each op of the window runs traced and untraced on
    the same cell; the median difference is the tracing overhead."""
    import tracer

    tr = tracer.Tracer()
    timings, overhead_ms, exact, mismatches = [], [], {}, []

    def traced_op(cell):
        spans = {}

        def timer(fn):
            result, wall, spans["first"] = tr.run_op(len(timings), fn)
            return result, wall

        tr.install()
        try:
            wall = runner.op(cell, timer)
        finally:
            tr.uninstall()
        if "first" not in spans:
            return wall
        timing, counts = tracer.summarize_op(tr.spans, spans["first"], len(tr.spans))
        timings.append(timing | counts)
        if cell not in exact:
            exact[cell] = counts
        elif exact[cell] != counts:
            mismatches.append(cell)
        return wall

    first = next(order)
    runner.op(first)  # warm-up
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        cell = next(order)
        if len(overhead_ms) % 2:  # alternate which run of the pair goes first
            untraced = runner.op(cell)
            diff = (traced_op(cell) - untraced) * 1e3
        else:
            diff = (traced_op(cell) - runner.op(cell)) * 1e3
        if math.isfinite(diff):
            overhead_ms.append(diff)
    for cell in runner.wl.cells:
        if cell not in exact:
            traced_op(cell)
    traced_op(first)  # every run repeats at least one traced cell
    grid = [exact[c] for c in runner.wl.cells if c in exact]
    metrics = tracer.per_layer_metrics(
        timings, grid, statistics.median(overhead_ms))
    gap = metrics["span_coverage_gap_pct"][0]
    checks = {
        "exact_counts_repeat": {
            "ok": not mismatches and len(grid) == len(runner.wl.cells),
            "detail": f"{len(timings)} traced ops over {len(grid)} cells; "
                      f"cells whose counts changed on a repeat: {mismatches}"},
        "span_coverage": {
            "ok": gap <= 100.0 * COVERAGE_TOL,
            "detail": f"layer self times plus glue cover each op's traced wall "
                      f"time to within {gap:.3f}% (limit {100.0 * COVERAGE_TOL:g}%)"},
    }
    OUT.mkdir(exist_ok=True)
    tr.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    notes = {"traced_ops": len(timings), "paired_ops": len(overhead_ms),
             "exact_per_cell": exact}
    return metrics, notes, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run every cell once and rewrite reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "cpalign" / "__init__.py").is_file():
        print(f"perfbench: no cpalign sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    cpus = configure_blas()
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    env = environment(cpus)
    if args.record:
        return record(env, workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][args.workload]
    order = workloads.cell_order(wl.cells, args.seed)
    if args.trace:
        runner = Runner(wl, reference, None)
        metrics, notes, checks = run_traced(args, runner, order)
    else:
        with tracer.WireCounter() as counter:
            runner = Runner(wl, reference, counter)
            metrics, notes = run_timed(args, runner, order)
        checks = {}
    failed = len(runner.failures)
    correct = failed == 0 and all(c["ok"] for c in checks.values())
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": runner.attempted, "failed": failed,
        "ops_failed_frac": failed / runner.attempted,
        "failures": runner.failures, "checks": checks, "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "outputs": runner.outputs,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({env['load_model']}; BLAS threads {env['blas']['threads']}, "
          f"nproc {env['nproc']}, backend {env['cpalign_backend']})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'ops_failed_frac':<44} {result['ops_failed_frac']:>14.6g} "
          f"({failed} of {runner.attempted})")
    for name, check in checks.items():
        print(f"  check {name}: {'ok' if check['ok'] else 'FAILED'} {check['detail']}")
    for failure in runner.failures[:10]:
        print(f"  FAILED {failure['cell']}: {failure['reason']}")
    print(f"  results: {OUT / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


def record(env: dict, workloads) -> int:
    """Run every cell of every workload once and store its outputs."""
    recorded_with = {k: v for k, v in env.items() if k != "interpreter"}
    doc = {"environment": recorded_with, "tolerance": {"rtol": RTOL, "atol": ATOL},
           "workloads": {}}
    for name, wl in workloads.WORKLOADS.items():
        runner = Runner(wl, None, None)
        for cell in wl.cells:
            runner.op(cell)
        if runner.failures:
            print(json.dumps(runner.failures, indent=1), file=sys.stderr)
            return 1
        doc["workloads"][name] = runner.outputs
        print(f"recorded {name}: {len(wl.cells)} cells")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
