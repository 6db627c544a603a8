"""Energy-based box extraction from fused grids plus AP bookkeeping.

This is a deliberately simple read-out: per-cell RMS energy over the leading
channels, max-normalized, thresholded, then 4-connected components become
axis-aligned boxes.  It is linear enough that better-aligned features produce
measurably tighter boxes, which is all the delay sweeps need.
"""

import numpy as np
from dataclasses import dataclass

from ..featurizer import BevSpec, box_footprint_mask
from ..numerics import ShapeError, ensure_tensor3
from ..pointcloud import OrientedBox

ENERGY_CHANNELS = 128
#: IoU thresholds at which AP is reported.
IOU_THRESHOLDS = (0.5, 0.7)


@dataclass
class Detection:
    """Axis-aligned box in metres: (x_min, y_min, x_max, y_max)."""

    aabb: np.ndarray
    confidence: float
    cells: int


@dataclass
class DetectionReport:
    ap: dict
    mean_matched_iou: float
    n_detections: int
    n_truth: int


def detection_map(features: np.ndarray) -> np.ndarray:
    """Per-cell RMS energy over the first ENERGY_CHANNELS maps, scaled to [0, 1]."""
    f = ensure_tensor3(features, "features")
    c = min(ENERGY_CHANNELS, f.shape[0])
    energy = np.sqrt(np.mean(f[:c] * f[:c], axis=0))
    peak = float(energy.max())
    if peak > 0.0:
        energy = energy / peak
    return energy[None]


def extract_detections(dmap: np.ndarray, spec: BevSpec,
                       threshold: float = 0.5) -> list:
    """Threshold + 4-connected components -> cell-aligned boxes in metres."""
    d = ensure_tensor3(dmap, "dmap")
    if d.shape[0] != 1:
        raise ShapeError("detection map must have a single channel")
    mask = d[0] >= threshold
    labels, count = _label4(mask)
    dets = []
    for lab in range(1, count + 1):
        rows, cols = np.nonzero(labels == lab)
        x_min = spec.origin_x + cols.min() * spec.cell
        x_max = spec.origin_x + (cols.max() + 1) * spec.cell
        y_min = spec.origin_y + rows.min() * spec.cell
        y_max = spec.origin_y + (rows.max() + 1) * spec.cell
        conf = float(d[0][rows, cols].mean())
        dets.append(Detection(np.array([x_min, y_min, x_max, y_max]), conf,
                              rows.size))
    dets.sort(key=lambda det: -det.confidence)
    return dets


def _label4(mask: np.ndarray) -> tuple:
    """4-connected components of a 2-D boolean mask: ``(labels, count)``.

    Components are numbered 1..count in the raster order of their first
    pixel, and cells off the mask are 0, as ``scipy.ndimage.label`` numbers
    them. Each cell starts with its own raster index; neighbour minima and
    pointer jumps (``lab[lab]``) lower it until every component holds the
    index of its first pixel. A label is always the index of a cell of its
    own component, so a jump never leaves the component.
    """
    h, w = mask.shape
    size = h * w
    lab = np.where(mask, np.arange(size).reshape(h, w), size)
    flat = lab.reshape(-1)
    on = np.flatnonzero(mask)
    steps = ((lab[1:], lab[:-1], mask[1:]), (lab[:-1], lab[1:], mask[:-1]),
             (lab[:, 1:], lab[:, :-1], mask[:, 1:]),
             (lab[:, :-1], lab[:, 1:], mask[:, :-1]))
    while True:
        before = flat[on]
        for dst, src, keep in steps:
            np.minimum(dst, src, out=dst, where=keep)
        flat[on] = flat[flat[on]]
        if np.array_equal(flat[on], before):
            break
    roots = on[flat[on] == on]
    number = np.zeros(size + 1, dtype=np.int32)
    number[roots] = np.arange(1, roots.size + 1)
    return number[flat].reshape(h, w), int(roots.size)


def boxes_in_grid(boxes: list, spec: BevSpec) -> list:
    """The boxes whose footprint covers at least one cell centre of the
    grid, in order: the truth a run is evaluated against, limited to the
    grid its detector reads, by the rule the foreground target is drawn by
    (:func:`box_footprint_mask`)."""
    return [box for box in boxes
            if box_footprint_mask([box], spec.origin_x, spec.origin_y, spec.cell,
                                  spec.height, spec.width).any()]


def box_to_aabb(box: OrientedBox) -> np.ndarray:
    corners = box.corners_bev()
    return np.array([corners[:, 0].min(), corners[:, 1].min(),
                     corners[:, 0].max(), corners[:, 1].max()])


def iou_aabb(a: np.ndarray, b: np.ndarray) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return float(inter / (area_a + area_b - inter))


def _average_precision(matches, n_truth):
    """11-point interpolated AP over confidence-ranked detections."""
    if n_truth == 0:
        return 0.0
    tp = np.cumsum([1.0 if m else 0.0 for m in matches])
    fp = np.cumsum([0.0 if m else 1.0 for m in matches])
    recall = tp / n_truth
    precision = tp / np.maximum(tp + fp, 1e-12)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 11):
        sel = recall >= r
        ap += float(precision[sel].max()) if sel.any() else 0.0
    return ap / 11.0


def evaluate_detection(dmap: np.ndarray, gt_boxes: list, spec: BevSpec,
                       threshold: float = 0.5) -> DetectionReport:
    """Greedy confidence-ordered matching against ground truth boxes."""
    dets = extract_detections(dmap, spec, threshold)
    gts = [box_to_aabb(b) for b in gt_boxes]
    ap = {}
    for thr in IOU_THRESHOLDS:
        taken = [False] * len(gts)
        flags = []
        for det in dets:
            best, best_iou = -1, 0.0
            for gi, g in enumerate(gts):
                if taken[gi]:
                    continue
                v = iou_aabb(det.aabb, g)
                if v > best_iou:
                    best, best_iou = gi, v
            if best >= 0 and best_iou >= thr:
                taken[best] = True
                flags.append(True)
            else:
                flags.append(False)
        ap[thr] = _average_precision(flags, len(gts))
    if gts and dets:
        per_gt = [max(iou_aabb(det.aabb, g) for det in dets) for g in gts]
        mean_iou = float(np.mean(per_gt))
    else:
        mean_iou = 0.0
    return DetectionReport(ap=ap, mean_matched_iou=mean_iou,
                           n_detections=len(dets), n_truth=len(gts))
