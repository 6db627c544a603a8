"""The first cell of each benchmark workload reproduces its recorded outputs.

``perfbench/run.py`` rejects an op whose outputs leave the tolerance of
``perfbench/reference.json``; this runs one op per workload through the same
check, so such a change fails here first. Nothing under ``perfbench/`` is
written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


bench = _load("run")
workloads = _load("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_cell_matches_reference(name):
    wl = workloads.WORKLOADS[name]
    cell = wl.cells[0]
    out = wl.outputs(wl.call(wl.scene(cell), cell)())
    assert bench.check_outputs(out, REFERENCE[name][cell]) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_cell_runs_under_the_library_weights(monkeypatch, name):
    # the values derived from the weights are shared across ops only under
    # the library's own mapping; a workload that passed any other weights
    # would rebuild them in every op
    from cpalign.harness import RunContext, build_pipeline_weights

    seen = []
    init = RunContext.__init__

    def spy(self, scenario, weights, *args, **kwargs):
        seen.append(weights)
        init(self, scenario, weights, *args, **kwargs)

    monkeypatch.setattr(RunContext, "__init__", spy)
    wl = workloads.WORKLOADS[name]
    cell = wl.cells[0]
    wl.call(wl.scene(cell), cell)()
    library = build_pipeline_weights(0)
    assert seen and all(weights is library for weights in seen)
