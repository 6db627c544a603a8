"""Lossy feature transmission between agents.

Collaborators ship intermediate feature maps over a bandwidth-limited link.
Three codecs are modelled: a lossless identity channel, float16 truncation,
and symmetric per-tensor int8 quantization.  Each returns the decoded tensor
plus the mean squared error introduced, so runs can report the distortion the
alignment stages had to absorb, and :func:`wire_bytes` gives the size a
bundle takes on the link. :func:`pack_nonzeros` drops a bundle's exact zeros
before the link and :func:`unpack_nonzeros` puts them back, losslessly.
"""

import numpy as np
from dataclasses import dataclass

from ..numerics import ShapeError

_F16_MAX = float(np.finfo(np.float16).max)
_SMALLEST_SCALE = float(np.finfo(np.float64).smallest_subnormal)

CODEC_MODES = ("identity", "fp16", "int8")

#: Bytes per element on the link: identity ships float32, fp16 two bytes,
#: int8 one byte plus a float32 scale per tensor.
_ELEM_BYTES = {"identity": 4, "fp16": 2, "int8": 1}
_INT8_SCALE_BYTES = 4

_BITMAP = ".bitmap"


@dataclass
class CodecConfig:
    mode: str = "identity"

    def __post_init__(self):
        if self.mode not in CODEC_MODES:
            raise ShapeError(f"unknown codec mode {self.mode!r}")


def encode_decode(arr: np.ndarray, mode: str = "identity"):
    """Round-trip one tensor through the channel.

    Returns (decoded, mse).  int8 uses scale = max|x| / 127, so the
    worst-case per-element error is max|x| / 254 (the scale is held at the
    smallest subnormal, where max|x| / 127 would underflow to 0); fp16
    clips to the finite float16 range before truncating.
    """
    if mode not in CODEC_MODES:
        raise ShapeError(f"unknown codec mode {mode!r}")
    x = np.asarray(arr, dtype=np.float64)
    if mode == "identity":
        return x.copy(), 0.0
    if mode == "fp16":
        out = np.clip(x, -_F16_MAX, _F16_MAX).astype(np.float16).astype(np.float64)
    else:
        peak = float(np.max(np.abs(x))) if x.size else 0.0
        if peak == 0.0:
            out = np.zeros_like(x)
        else:
            scale = max(peak / 127.0, _SMALLEST_SCALE)
            q = np.clip(np.round(x / scale), -127, 127)
            out = q * scale
    mse = float(np.mean((out - x) ** 2)) if x.size else 0.0
    return out, mse


def wire_bytes(tensors: dict, mode: str) -> int:
    """Payload size of one named bundle under codec ``mode``, in bytes.

    Every entry counts its elements at the codec's width, and under int8 a
    4 B scale. A :func:`pack_nonzeros` bitmap carries no scale, so under
    int8 this is 4 B per bitmap over the bytes on the link; it stays so
    while ``perfbench/tracer.py`` keeps its own copy of this count.
    """
    n = sum(int(np.size(a)) for a in tensors.values())
    scales = _INT8_SCALE_BYTES * len(tensors) if mode == "int8" else 0
    return n * _ELEM_BYTES[mode] + scales


def pack_nonzeros(tensors: dict, mode: str) -> dict:
    """Each tensor of a bundle as two entries for the channel.

    ``name`` holds the tensor's nonzero values, 1-D in C order, and
    ``name + ".bitmap"`` where they sit: ``np.packbits`` of the nonzero mask
    in unsigned words of the codec's width (uint32 for identity, uint16 for
    fp16, uint8 for int8), so :func:`wire_bytes` counts the bitmap's real
    bytes. Zero is the +0.0 bit pattern alone: -0.0 ships as a value, which
    keeps the identity round trip bit-exact, and so does a NaN, which
    :func:`transmit_tensors` then refuses by the tensor's name.
    """
    word = np.dtype(f"u{_ELEM_BYTES[mode]}")
    packed = {}
    for name, arr in tensors.items():
        flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
        nonzero = flat.view(np.uint64) != 0
        bits = np.packbits(nonzero)
        bitmap = np.zeros(-(-flat.size // (8 * word.itemsize)), word)
        bitmap.view(np.uint8)[:bits.size] = bits
        packed[name] = np.compress(nonzero, flat)
        packed[name + _BITMAP] = bitmap
    return packed


def unpack_nonzeros(packed: dict, shapes: dict) -> dict:
    """The dense tensors of ``shapes`` (name -> shape) from a received
    :func:`pack_nonzeros` bundle: each one's values put back where its
    bitmap says, into a map of +0.0."""
    dense = {}
    for name, shape in shapes.items():
        out = np.zeros(shape)
        bits = np.unpackbits(packed[name + _BITMAP].view(np.uint8), count=out.size)
        where, values = np.flatnonzero(bits.view(bool)), packed[name]
        if where.size != values.size:
            raise ShapeError(f"payload tensor {name!r}: {values.size} values for "
                             f"{where.size} bitmap entries")
        out.reshape(-1)[where] = values
        dense[name] = out
    return dense


def transmit_tensors(tensors: dict, cfg: CodecConfig):
    """Send a named bundle through the channel.

    Returns (decoded dict, per-tensor mse dict).  Iteration order follows the
    input dict so remote reassembly is reproducible.  For a packed bundle
    each mse is over the values an entry carried, not over the dense tensor.  An unsigned-integer
    array (a bitmap) is carried bit for bit, with no codec and no mse entry.
    A tensor holding a NaN or an infinity raises :class:`ShapeError` naming
    it: int8 would spread it over the whole decoded tensor and the identity
    codec would pass it on with an mse of 0.
    """
    decoded = {}
    errors = {}
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype.kind == "u":
            decoded[name] = arr.copy()
            continue
        if not np.isfinite(arr).all():
            raise ShapeError(f"payload tensor {name!r} contains non-finite values")
        decoded[name], errors[name] = encode_decode(arr, cfg.mode)
    return decoded, errors
