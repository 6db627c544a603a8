"""Deterministic tensor numerics: convolutions, activations, weight archives.

Feature maps are plain numpy arrays of shape (channels, height, width),
float64, C-contiguous. Convolution here means cross-correlation with zero
padding (no kernel flip).
"""

from __future__ import annotations

import math
import numbers
import struct
import types
from dataclasses import dataclass, field
from typing import BinaryIO, Mapping, Sequence

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Raised when tensor or spec geometry is inconsistent."""


class ArchiveError(ValueError):
    """Raised when a weight archive cannot be parsed."""


ACTIVATIONS = ("none", "relu", "sigmoid")


def finite_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a finite number of ``kind``.

    True, false and strings are not numbers. Of ``kind=numbers.Integral``
    any integer is finite, however large; as a real number an integer must
    fit a float, which is how it will be used.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    if kind is numbers.Integral:
        return True
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


#: Elements per block of :func:`sigmoid`: the block's exponent buffer and
#: output slice stay in L2 cache, so a large map is read and written once.
SIGMOID_BLOCK = 1 << 15


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function.

    With ``e = exp(-|x|)`` this is ``1 / (1 + e)`` for ``x >= 0`` and
    ``e / (1 + e)`` below zero, so exp never overflows and large negative
    inputs keep their tiny (subnormal) results instead of rounding to 0.
    ``minimum(x, -x)`` stands in for ``-|x|`` because it passes a NaN
    through with its sign unchanged. The numerator is ``max(e, x >= 0)``:
    1 where ``x >= 0`` (there ``e <= 1``), ``e`` below zero and for NaN.

    ``out``, a C-contiguous float64 array of x's shape, receives the result
    instead of a new array; it may be ``x`` itself, since each block reads
    x before it writes its output.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeError(f"sigmoid out must be C-contiguous float64 {x.shape}")
    xf, of = x.reshape(-1), out.reshape(-1)
    e = np.empty(min(xf.size, SIGMOID_BLOCK))
    for i in range(0, xf.size, SIGMOID_BLOCK):
        xb, ob = xf[i:i + SIGMOID_BLOCK], of[i:i + SIGMOID_BLOCK]
        eb = e[:xb.size]
        np.negative(xb, out=eb)
        np.minimum(xb, eb, out=eb)
        np.exp(eb, out=eb)
        np.greater_equal(xb, 0.0, out=ob)
        np.maximum(eb, ob, out=ob)
        eb += 1.0
        np.divide(ob, eb, out=ob)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def ensure_tensor3(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate and coerce a (C, H, W) float64 feature map."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"{name} must have shape (C, H, W), got {x.shape}")
    return np.ascontiguousarray(x)


@dataclass
class ConvSpec:
    """Geometry plus parameters of one convolution layer.

    weights has shape (out_channels, in_channels // groups, kernel_h,
    kernel_w); a flat or reshapeable array of matching size is accepted.
    bias, when present, has length out_channels.
    """

    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int
    weights: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    groups: int = 1
    activation: str = "none"

    def __post_init__(self):
        if self.out_channels <= 0 or self.in_channels <= 0:
            raise ShapeError("channel counts must be positive")
        if self.kernel_h <= 0 or self.kernel_w <= 0:
            raise ShapeError("kernel dims must be positive")
        if self.stride <= 0:
            raise ShapeError("stride must be positive")
        if self.padding < 0:
            raise ShapeError("padding must be non-negative")
        if self.groups <= 0:
            raise ShapeError("groups must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"groups={self.groups} must divide in_channels={self.in_channels} "
                f"and out_channels={self.out_channels}"
            )
        if self.activation not in ACTIVATIONS:
            raise ShapeError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}"
            )
        wanted = (self.out_channels, self.in_channels // self.groups,
                  self.kernel_h, self.kernel_w)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.size != int(np.prod(wanted)):
            raise ShapeError(
                f"weights of size {w.size} cannot fill {wanted}"
            )
        self.weights = np.ascontiguousarray(w.reshape(wanted))
        if self.bias is not None:
            self.bias = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64).ravel())

    def conv_output_hw(self, h: int, w: int) -> tuple[int, int]:
        ho = (h + 2 * self.padding - self.kernel_h) // self.stride + 1
        wo = (w + 2 * self.padding - self.kernel_w) // self.stride + 1
        return ho, wo


def conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Zero-padded strided cross-correlation, optional bias and activation."""
    x = ensure_tensor3(x, "conv2d input")
    c, h, w = x.shape
    if c != spec.in_channels:
        raise ShapeError(
            f"conv2d input has {c} channels, spec expects {spec.in_channels}"
        )
    if h + 2 * spec.padding < spec.kernel_h or w + 2 * spec.padding < spec.kernel_w:
        raise ShapeError(
            f"kernel ({spec.kernel_h}x{spec.kernel_w}) exceeds padded input "
            f"({h + 2 * spec.padding}x{w + 2 * spec.padding})"
        )
    ho, wo = spec.conv_output_hw(h, w)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"non-positive output dims ({ho}, {wo})")
    if spec.padding:
        p = spec.padding
        xpad = np.zeros((c, h + 2 * p, w + 2 * p))
        xpad[:, p:p + h, p:p + w] = x
    else:
        xpad = x
    if spec.bias is not None and spec.bias.size != spec.out_channels:
        raise ShapeError(
            f"conv2d bias has {spec.bias.size} entries, expected {spec.out_channels}"
        )
    out = kernels.conv2d_core(xpad, spec.weights, spec.stride, spec.groups)
    # bias and activation go in place on the kernel's own fresh result
    if spec.bias is not None:
        out += spec.bias[:, None, None]
    if spec.activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif spec.activation == "sigmoid":
        out = sigmoid(out)
    return out


@dataclass
class MlpSpec:
    """Dense layers with relu between them (not after the last)."""

    weights: list = field(default_factory=list)   # each (out, in)
    biases: list = field(default_factory=list)    # each (out,)

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeError("MlpSpec needs matching, non-empty weight/bias lists")
        self.weights = [np.ascontiguousarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.ascontiguousarray(b, dtype=np.float64).ravel() for b in self.biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.size != w.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ShapeError(
                    f"layer {i} expects {w.shape[1]} inputs, previous layer "
                    f"emits {self.weights[i - 1].shape[0]}"
                )


def mlp_forward(v: np.ndarray, spec: MlpSpec) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size != spec.weights[0].shape[1]:
        raise ShapeError(
            f"mlp input has {v.size} entries, first layer expects "
            f"{spec.weights[0].shape[1]}"
        )
    n = len(spec.weights)
    for i, (w, b) in enumerate(zip(spec.weights, spec.biases)):
        v = w @ v + b
        if i < n - 1:
            v = relu(v)
    return v


def he_normal(rng: np.random.Generator, out_c: int, in_per_group: int,
              kh: int, kw: int) -> np.ndarray:
    """Seeded He-normal conv weights (std = sqrt(2 / fan_in))."""
    fan_in = in_per_group * kh * kw
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_c, in_per_group, kh, kw))


def require_weights(weights: Mapping[str, np.ndarray], names: Sequence[str],
                    context: str = "weights") -> list:
    """Fetch named tensors, raising one error that lists every absentee."""
    missing = [n for n in names if n not in weights]
    if missing:
        raise KeyError(f"{context} missing entries: {', '.join(sorted(missing))}")
    return [np.asarray(weights[n], dtype=np.float64) for n in names]


def freeze_weights(weights: Mapping[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """Read-only name -> float64 array mapping, in input order.

    Each array is read-only and owns its data. A float64 array that already
    qualifies is kept; anything else (a writable array, a view, another
    dtype) is copied, so the caller's own arrays stay as they were and no
    caller can reach the data through a writable base.
    """
    out = {}
    for name, arr in weights.items():
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                and arr.flags.owndata and not arr.flags.writeable):
            arr = np.array(arr, dtype=np.float64)
            arr.flags.writeable = False
        out[name] = arr
    return types.MappingProxyType(out)


# ---------------------------------------------------------------------------
# weight archive
# ---------------------------------------------------------------------------
# Layout (little-endian throughout):
#   magic "CPAW" | version u16 | entry count u32
#   per entry: name length u16 | name utf-8 | rank u8 | dims u32 each
#              | values float32, C order
# Payloads are float32; load promotes to float64 (exact), so a
# save -> load -> save cycle is byte-identical.

MAGIC = b"CPAW"
VERSION = 1


def save_weights(tensors: Mapping[str, np.ndarray], dest) -> None:
    """Write tensors to a path or binary file object in insertion order."""
    if hasattr(dest, "write"):
        _write_archive(tensors, dest)
    else:
        with open(dest, "wb") as fh:
            _write_archive(tensors, fh)


def _write_archive(tensors: Mapping[str, np.ndarray], fh: BinaryIO) -> None:
    fh.write(MAGIC)
    fh.write(struct.pack("<HI", VERSION, len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if not np.all(np.isfinite(arr)):
            raise ArchiveError(f"tensor {name!r} contains non-finite values")
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ArchiveError(f"tensor name too long ({len(raw)} bytes)")
        if arr.ndim > 0xFF:
            raise ArchiveError(f"tensor {name!r} rank {arr.ndim} exceeds 255")
        fh.write(struct.pack("<H", len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<I", d))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_weights(src) -> Mapping[str, np.ndarray]:
    """Read an archive from a path or binary file object.

    Returns a read-only mapping of name -> read-only float64 ndarray that
    owns its data (see :func:`freeze_weights`), preserving file order. Raises
    :class:`ArchiveError` on bad magic, unsupported version, or any
    truncation, naming the tensor being read when one is known.
    """
    if hasattr(src, "read"):
        return _read_archive(src)
    with open(src, "rb") as fh:
        return _read_archive(fh)


def _read_archive(fh: BinaryIO) -> Mapping[str, np.ndarray]:
    head = fh.read(4)
    if head != MAGIC:
        raise ArchiveError(f"not a weight archive: bad magic {head!r}")
    meta = fh.read(6)
    if len(meta) != 6:
        raise ArchiveError("truncated archive header")
    version, count = struct.unpack("<HI", meta)
    if version != VERSION:
        raise ArchiveError(f"unsupported archive version {version}")
    out: dict = {}
    for i in range(count):
        nl = fh.read(2)
        if len(nl) != 2:
            raise ArchiveError(f"truncated archive at entry {i} (name length)")
        (name_len,) = struct.unpack("<H", nl)
        raw = fh.read(name_len)
        if len(raw) != name_len:
            raise ArchiveError(f"truncated archive at entry {i} (name)")
        name = raw.decode("utf-8")
        rank_b = fh.read(1)
        if len(rank_b) != 1:
            raise ArchiveError(f"truncated archive reading rank of tensor {name!r}")
        rank = rank_b[0]
        dims = []
        for _ in range(rank):
            db = fh.read(4)
            if len(db) != 4:
                raise ArchiveError(f"truncated archive reading dims of tensor {name!r}")
            dims.append(struct.unpack("<I", db)[0])
        n_values = int(np.prod(dims, dtype=np.int64)) if rank else 1
        payload = fh.read(4 * n_values)
        if len(payload) != 4 * n_values:
            raise ArchiveError(
                f"tensor {name!r} declares {n_values} float32 values "
                f"({4 * n_values} bytes) but only {len(payload)} bytes remain"
            )
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ArchiveError(f"tensor {name!r} contains non-finite values")
        arr.flags.writeable = False  # ours alone: freeze_weights keeps it uncopied
        out[name] = arr
    return freeze_weights(out)
