"""Set-up cost of one workload in a fresh process.

Prints the seconds from interpreter start-up (before any import) to the end
of weight construction and scene generation.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from cpalign import harness  # noqa: E402

harness.build_pipeline_weights(0)
wl = workloads.WORKLOADS[sys.argv[1]]
scenes = [wl.scene(cell) for cell in wl.cells]
print(time.perf_counter() - _START)
