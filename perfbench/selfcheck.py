"""Self-check of the benchmark; exits non-zero on the first failed check.

    python3 perfbench/selfcheck.py

1. A traced run of each workload passes its own checks, and prints exactly
   the per-layer metrics that BENCHMARK.json lists.  A second traced
   ``fleet_lossy`` run with another seed gives bit-identical exact values.
2. An untraced run prints exactly the end-to-end metrics of BENCHMARK.json.
3. The traced numbers confirm the workload rationale: FPS is a large share
   of ``fleet_lossy`` and under 2% of the other two; ``delay_sweep`` runs
   fewer ``backbone_forward`` calls per pipeline pass than ``single_pass``;
   int8 ships about a quarter of the bytes per element identity would.
4. In a directory holding only BENCHMARK.json and the benchmark, the command
   fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "4"


def require(ok, detail) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {detail}")


def bench(workload, seed, trace, cwd=ROOT):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    require(proc.returncode == 0, proc.stderr)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    require(line["correct"] and line["failed"] == 0,
            (workload, full["failures"], full["checks"]))
    return line, full


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]

    traced, exact = {}, {}
    for wl in [w["name"] for w in spec["workloads"]]:
        line, full = result(wl, 1, 1)
        require(list(line["metrics"]) == per_layer, f"{wl} per-layer metric names")
        traced[wl] = {k: v["value"] for k, v in line["metrics"].items()}
        exact[wl] = full["notes"]["exact_per_cell"]
        print(f"ok traced {wl}: {full['checks']['span_coverage']['detail']}")
    _, second = result("fleet_lossy", 2, 1)
    # JSON text compares floats by their shortest repr, so equal text is equal bits
    require(json.dumps(exact["fleet_lossy"], sort_keys=True)
            == json.dumps(second["notes"]["exact_per_cell"], sort_keys=True),
            "exact values differ between two traced runs")
    print("ok exact values repeat bit for bit across two traced runs")

    line, _ = result("single_pass", 1, 0)
    require(list(line["metrics"]) == end_to_end, "end-to-end metric names")
    print("ok untraced metrics match BENCHMARK.json")

    share = {wl: m["kernels.fps_order.ms"] / m["harness.pipeline.busy_ms"]
             for wl, m in traced.items()}
    require(share["fleet_lossy"] > 0.1 and share["single_pass"] < 0.02
            and share["delay_sweep"] < 0.02, f"fps share {share}")
    per_pass = {wl: m["featurizer.backbone_forward.calls"]
                / m["harness.pipeline.run_pipeline.calls"] for wl, m in traced.items()}
    require(per_pass["delay_sweep"] < per_pass["single_pass"],
            f"backbone calls per pass {per_pass}")
    cells = exact["fleet_lossy"].values()
    elems = sum(c["harness.codec.elems_tx"] for c in cells)
    int8_per_elem = sum(c["harness.codec.bytes_tx"] for c in cells) / elems
    require(abs(int8_per_elem / 4.0 - 0.25) < 0.01, f"int8 {int8_per_elem} B/elem")
    print(f"ok rationale: fps share {share}, backbone calls per pass {per_pass}, "
          f"int8 {int8_per_elem:.4f} B/elem against identity 4 B/elem")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("single_pass", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    require(proc.returncode != 0 and '"correct"' not in proc.stdout,
            f"bare directory run: {proc.returncode} {proc.stdout}")
    print("ok fails without printing a result when the sources are missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
