"""In-memory span tracing of the cpalign library from outside it.

Every public function of every traced module is replaced, in every loaded
``cpalign`` module namespace that binds it, by a wrapper that records one span:
``[name, layer, start, end, parent, op_id, attrs]``.  Rebinding at the names
callers look up (``kernels.conv2d_core`` attribute reads, the names that
``cpalign.harness.pipeline`` imports, ``numerics.sigmoid`` bound into the
alignment modules) means no file of the library changes.  Spans live in a
list until the run ends; :meth:`Tracer.dump` writes them out.

A few wrappers also attach counts computed from the call's arguments
(conv MACs and shape class, FPS picks, PHD kept points, codec bytes and
error), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

#: Layers are the library's modules, named relative to the ``cpalign`` package.
LAYERS = (
    "pointcloud", "featurizer", "domain_align", "temporal_align",
    "instance_fusion", "harness.scenario", "harness.codec", "harness.detect",
    "kernels", "numerics", "harness.pipeline",
)

#: Functions reported on their own (``<layer>.<fn>.ms`` and ``.calls``).
HOT_FUNCTIONS = (
    "featurizer.backbone_forward", "featurizer.bev_project",
    "domain_align.foreground_estimate", "domain_align.transform_to_ego",
    "domain_align.discriminator_forward",
    "temporal_align.ptam_stage1", "temporal_align.ptam_stage2",
    "temporal_align.temporal_loss",
    "instance_fusion.struct_conv", "instance_fusion.verification_weights",
    "instance_fusion.aggregate_instance", "instance_fusion.fuse_agents",
    "pointcloud.phd_apply", "harness.scenario.render_pointcloud",
)

CONV_CLASSES = ("pointwise", "dense", "grouped", "depthwise")

#: Per-layer metrics of a traced run, in report order, with their units.
#: Exact values (calls, MACs, picks, bytes, ratios) are per op over the
#: workload's whole grid; times are medians over the traced ops.
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("busy_ms", "ms"), ("self_ms", "ms"), ("calls", "count"))]
    + [(f"{fn}.{kind}", unit) for fn in HOT_FUNCTIONS
       for kind, unit in (("ms", "ms"), ("calls", "count"))]
    + [(f"kernels.conv2d_core.ms.{cls}", "ms") for cls in CONV_CLASSES]
    + [("kernels.conv2d_core.calls", "count"), ("kernels.conv2d_core.gmacs", "GMAC"),
       ("kernels.conv2d_core.gmac_per_s", "GMAC/s"),
       ("kernels.tconv2d_core.ms", "ms"), ("kernels.bilinear_gather.ms", "ms"),
       ("kernels.fps_order.ms", "ms"), ("kernels.fps_order.picks", "count"),
       ("kernels.pillar_stats.ms", "ms"), ("numerics.sigmoid.ms", "ms"),
       ("numerics.sigmoid.calls", "count"),
       ("harness.pipeline.run_pipeline.calls", "count"),
       ("pointcloud.phd_apply.keep_ratio", "ratio"),
       ("harness.codec.bytes_tx", "B"), ("harness.codec.mse", "mse"),
       ("tracing_overhead_ms", "ms"), ("span_coverage_gap_pct", "%")]
)

#: Computed wire cost per element: identity ships float32, fp16 two bytes,
#: int8 one byte plus a four-byte float32 scale per tensor.
WIRE_BYTES_PER_ELEM = {"identity": 4, "fp16": 2, "int8": 1}
INT8_SCALE_BYTES = 4


def wire_bytes(tensors: dict, mode: str) -> int:
    """Computed payload size of one ``transmit_tensors`` bundle."""
    n = sum(int(np.size(a)) for a in tensors.values())
    extra = INT8_SCALE_BYTES * len(tensors) if mode == "int8" else 0
    return n * WIRE_BYTES_PER_ELEM[mode] + extra


def _conv_attrs(args, kwargs, result):
    xpad, w, stride, groups = args[:4]
    cout, cing, kh, kw = w.shape
    ho = (xpad.shape[1] - kh) // stride + 1
    wo = (xpad.shape[2] - kw) // stride + 1
    if groups > 1 and cing == 1:
        cls = "depthwise"
    elif groups > 1:
        cls = "grouped"
    elif kh == kw == 1:
        cls = "pointwise"
    else:
        cls = "dense"
    return {"class": cls, "macs": cout * cing * kh * kw * ho * wo}


def _fps_attrs(args, kwargs, result):
    return {"picks": int(args[1])}


def _phd_attrs(args, kwargs, result):
    return {"points_in": int(args[0].shape[0]), "points_out": int(result.shape[0])}


def _codec_attrs(args, kwargs, result):
    tensors, cfg = args[:2]
    errors = result[1]
    return {"bytes": wire_bytes(tensors, cfg.mode),
            "elems": sum(int(np.size(a)) for a in tensors.values()),
            "mse_sum": float(sum(errors.values())), "mse_n": len(errors)}


ANNOTATORS = {
    "kernels.conv2d_core": _conv_attrs,
    "kernels.fps_order": _fps_attrs,
    "pointcloud.phd_apply": _phd_attrs,
    "harness.codec.transmit_tensors": _codec_attrs,
}


def per_layer_metrics(timings: list, exact: list, overhead_ms: float) -> dict:
    """Per-layer metrics from per-op ``summarize_op`` results.

    ``timings`` holds one dict per traced op; ``exact`` one dict per grid
    cell, in grid order, so the per-op means are summed in a fixed order and
    repeat bit for bit.
    """
    def median(key):
        return statistics.median(t.get(key, 0.0) for t in timings)

    def total(key):
        return sum(e.get(key, 0) for e in exact)

    def ratio(num, den):
        d = total(den)
        return total(num) / d if d else 0.0

    n = len(exact)
    out = {}
    for name, unit in PER_LAYER:
        if unit == "ms":
            out[name] = (median(name), unit)
        elif unit in ("count", "B"):
            out[name] = (total(name) / n, unit)
    out["kernels.conv2d_core.gmacs"] = (total("kernels.conv2d_core.macs") / n / 1e9, "GMAC")
    out["kernels.conv2d_core.gmac_per_s"] = (statistics.median(
        t["kernels.conv2d_core.macs"] / 1e9 / (t["kernels.conv2d_core.ms"] / 1e3)
        for t in timings), "GMAC/s")
    out["pointcloud.phd_apply.keep_ratio"] = (ratio(
        "pointcloud.phd_apply.points_out", "pointcloud.phd_apply.points_in"), "ratio")
    out["harness.codec.mse"] = (ratio("harness.codec.mse_sum",
                                      "harness.codec.tensors_tx"), "mse")
    out["tracing_overhead_ms"] = (overhead_ms, "ms")
    out["span_coverage_gap_pct"] = (max(
        100.0 * t["uncovered_ms"] / t["op_ms"] for t in timings), "%")
    return {name: out[name] for name, _ in PER_LAYER}


class WireCounter:
    """Adds up the computed wire bytes of every ``transmit_tensors`` call.

    Used by the untraced run: it records no spans and reads no clock.
    """

    def __enter__(self):
        from cpalign.harness import codec

        original = codec.transmit_tensors
        self.bytes = 0

        def counted(tensors, cfg):
            self.bytes += wire_bytes(tensors, cfg.mode)
            return original(tensors, cfg)

        self._undo = _rebind({id(original): (original, counted)})
        return self

    def __exit__(self, *exc):
        _restore(self._undo)


def _public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def _rebind(replacements: dict) -> list:
    """Swap function objects in every loaded cpalign namespace.

    ``replacements`` maps ``id(original)`` to ``(original, new)``.  Returns
    the ``(module, name, old)`` triples needed to undo the swap.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "cpalign" or mod_name.startswith("cpalign.")):
            continue
        for name, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
                undo.append((module, name, obj))
    return undo


def _restore(undo: list) -> None:
    for module, name, original in reversed(undo):
        setattr(module, name, original)


class Tracer:
    """Records a span for each call into a traced cpalign function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.op_id = -1
        self._wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module("cpalign." + layer)
            for fn_name, fn in _public_functions(module).items():
                name = f"{layer}.{fn_name}"
                self._wrappers[id(fn)] = (fn, self._wrap(fn, name, layer,
                                                         ANNOTATORS.get(name)))

    def _wrap(self, fn, name, layer, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._undo = _rebind(self._wrappers)

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` as op ``op_id`` under a root span; returns
        ``(result, wall_s, first_span_index)``."""
        self.op_id = op_id
        first = len(self.spans)
        span = ["op", None, 0.0, 0.0, -1, op_id, None]
        self.spans.append(span)
        self._stack.append(first)
        span[2] = time.perf_counter()
        try:
            result = fn()
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        return result, span[3] - span[2], first

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "op_id", "attrs"], "spans": self.spans}, fh)


def summarize_op(spans: list, first: int, last: int) -> tuple:
    """Per-op timings (ms) and exact values from ``spans[first:last]``.

    The first span is the op's root.  Self time is a span's duration minus
    its children's; a layer's busy time is the duration of its spans that
    have no ancestor of the same layer.  The root's self time is the part
    of the op no traced function covers.
    """
    ops = spans[first:last]
    child = defaultdict(float)
    for s in ops[1:]:
        child[s[4]] += s[3] - s[2]
    timing = defaultdict(float)
    counts = defaultdict(int)
    layer_of = {first: None}
    outer_layers = {first: frozenset()}
    for i, s in enumerate(ops[1:], start=first + 1):
        name, layer, start, end, parent, _, attrs = s
        dur = end - start
        ancestors = outer_layers[parent] | ({layer_of[parent]} - {None})
        layer_of[i] = layer
        outer_layers[i] = ancestors
        timing[f"{layer}.self_ms"] += (dur - child[i]) * 1e3
        counts[f"{layer}.calls"] += 1
        if layer not in ancestors:
            timing[f"{layer}.busy_ms"] += dur * 1e3
        timing[f"{name}.ms"] += dur * 1e3
        counts[f"{name}.calls"] += 1
        if attrs is None:
            continue
        if name == "kernels.conv2d_core":
            timing[f"kernels.conv2d_core.ms.{attrs['class']}"] += dur * 1e3
            counts["kernels.conv2d_core.macs"] += attrs["macs"]
        elif name == "kernels.fps_order":
            counts["kernels.fps_order.picks"] += attrs["picks"]
        elif name == "pointcloud.phd_apply":
            counts["pointcloud.phd_apply.points_in"] += attrs["points_in"]
            counts["pointcloud.phd_apply.points_out"] += attrs["points_out"]
        elif name == "harness.codec.transmit_tensors":
            counts["harness.codec.bytes_tx"] += attrs["bytes"]
            counts["harness.codec.elems_tx"] += attrs["elems"]
            counts["harness.codec.tensors_tx"] += attrs["mse_n"]
            counts["harness.codec.mse_sum"] += attrs["mse_sum"]
    root = ops[0]
    timing["op_ms"] = (root[3] - root[2]) * 1e3
    timing["uncovered_ms"] = (root[3] - root[2] - child[first]) * 1e3
    return dict(timing), dict(counts)
