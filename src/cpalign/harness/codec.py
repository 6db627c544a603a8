"""Lossy feature transmission between agents.

Collaborators ship intermediate feature maps over a bandwidth-limited link.
Three codecs are modelled: a lossless identity channel, float16 truncation,
and symmetric per-tensor int8 quantization.  Each returns the decoded tensor
plus the mean squared error introduced, so runs can report the distortion the
alignment stages had to absorb, and :func:`wire_bytes` gives the size a
bundle takes on the link. :func:`pack_nonzeros` codes a bundle for the
link: each tensor as a deflated bitmap of the values the codec does not
deliver as +0.0, and those values, deflated as codes under fp16 and int8.
:func:`unpack_nonzeros` inflates them and puts the +0.0s back: the round
trip is the dense codec's, bit for bit.
"""

import zlib

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
#: The one deflate level of every stream on the link.
_LEVEL = 6
#: An int8 values stream opens with its scale, a little-endian float64.
_SCALE = np.dtype("<f8")
#: The codes on the link, little-endian.
_CODES = {"fp16": np.dtype("<f2"), "int8": np.dtype("i1")}


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
    out = _decoded(x, mode)
    if mode == "identity" or not x.size:
        return out, 0.0
    return out, float(np.mean((out - x) ** 2))


def _quantized(x: np.ndarray, mode: str):
    """The codes the lossy codec ``mode`` carries for the float64 values
    ``x``, and the scale they decode with. fp16's codes are float16 (its
    scale, 1.0, is unused); int8's are the rounded steps as float64, so a
    negative that rounds to step 0 keeps its sign as -0.0. int8's per-tensor
    scale is set by the peak alone, so the nonzero values of a tensor
    quantize as they do inside it."""
    if mode == "fp16":
        return np.clip(x, -_F16_MAX, _F16_MAX).astype(np.float16), 1.0
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if peak == 0.0:
        return np.zeros_like(x), 0.0
    scale = max(peak / 127.0, _SMALLEST_SCALE)
    return np.clip(np.round(x / scale), -127, 127), scale


def _dequantized(codes: np.ndarray, scale: float, mode: str) -> np.ndarray:
    """The float64 values the codes of :func:`_quantized` decode to."""
    if mode == "fp16":
        return codes.astype(np.float64)
    return codes * scale


def _decoded(x: np.ndarray, mode: str) -> np.ndarray:
    """What the channel delivers for the float64 values ``x``."""
    if mode == "identity":
        return x.copy()
    return _dequantized(*_quantized(x, mode), mode)


def wire_bytes(tensors: dict, mode: str) -> int:
    """Payload size of one named bundle under codec ``mode``, in bytes.

    Every entry counts its elements at the codec's width, and under int8 a
    4 B scale. A :func:`pack_nonzeros` entry is a byte stream in words of
    the codec's width, so under int8 this is 4 B per entry over the bytes on
    the link (the scale travels inside the values stream); it stays so
    while ``perfbench/tracer.py`` keeps its own copy of this count.
    """
    n = sum(int(np.size(a)) for a in tensors.values())
    scales = _INT8_SCALE_BYTES * len(tensors) if mode == "int8" else 0
    return n * _ELEM_BYTES[mode] + scales


def _cell_major(x: np.ndarray) -> np.ndarray:
    """``x`` flattened with the channels of each cell side by side: a 3-D
    (C, H, W) tensor in (H, W, C) order, any other in C order."""
    return (np.moveaxis(x, 0, -1) if x.ndim == 3 else x).reshape(-1)


def _from_cell_major(flat: np.ndarray, shape) -> np.ndarray:
    """The C-contiguous tensor of ``shape`` that :func:`_cell_major`
    flattened to ``flat``."""
    if len(shape) != 3:
        return flat.reshape(shape)
    c, h, w = shape
    return np.ascontiguousarray(np.moveaxis(flat.reshape(h, w, c), -1, 0))


def _deflated(data, word: np.dtype) -> np.ndarray:
    """The bytes ``data`` deflated, zero-padded to whole words of ``word``."""
    stream = zlib.compress(data, _LEVEL)
    return np.frombuffer(stream + bytes(-len(stream) % word.itemsize), word)


def _inflated(words: np.ndarray, size: int, name: str, what: str) -> bytes:
    """The ``size`` bytes the deflate stream ``words`` holds, inflating at
    most one byte past them. A stream that is corrupt, ends short, inflates
    to another size or trails more than its padding raises
    :class:`ShapeError` naming the tensor."""
    words = np.ascontiguousarray(words)
    inflate = zlib.decompressobj()
    try:
        data = inflate.decompress(words, size + 1)
    except zlib.error as exc:
        raise ShapeError(f"payload tensor {name!r}: corrupt {what} stream "
                         f"({exc})") from None
    if len(data) > size:
        raise ShapeError(f"payload tensor {name!r}: {what} stream inflates "
                         f"past its {size} B")
    if not inflate.eof:
        raise ShapeError(f"payload tensor {name!r}: {what} stream is truncated")
    if len(data) < size:
        raise ShapeError(f"payload tensor {name!r}: {what} stream inflates to "
                         f"{len(data)} B, not {size} B")
    if len(inflate.unused_data) >= words.itemsize or any(inflate.unused_data):
        raise ShapeError(f"payload tensor {name!r}: {what} stream trails "
                         f"{len(inflate.unused_data)} B")
    return data


def pack_nonzeros(tensors: dict, mode: str) -> dict:
    """Each tensor of a bundle as two entries for the channel.

    A 3-D tensor is flattened cell-major (the channels of each cell side by
    side), any other in C order. ``name + ".bitmap"`` marks the values the
    codec ``mode`` does not deliver as the +0.0 bit pattern: ``np.packbits``
    of that mask, deflated. ``name`` holds those values: under identity as
    the raw float entry; under fp16 and int8 the codec quantizes them once
    and their codes (fp16's float16 bits, int8's steps as int8 after the
    tensor's float64 scale) go deflated. Both deflated entries are unsigned
    words of the codec's width (uint32 for identity, uint16 for fp16, uint8
    for int8), so :func:`wire_bytes` counts their real bytes. The int8 peak
    never rounds to step 0, so the shipped values keep the tensor's scale,
    and a shipped step 0 is a value decoded as -0.0. A tensor holding a NaN
    or an infinity raises :class:`ShapeError` naming it: int8 would spread
    it over the whole decoded tensor and the identity codec would pass it
    on.
    """
    word = np.dtype(f"u{_ELEM_BYTES[mode]}")
    packed = {}
    for name, arr in tensors.items():
        flat = _cell_major(np.asarray(arr, dtype=np.float64))
        shipped = flat.view(np.uint64) != 0
        where = np.flatnonzero(shipped)
        values = flat[where]
        if not np.isfinite(values).all():
            raise ShapeError(f"payload tensor {name!r} contains non-finite values")
        if mode == "identity":
            packed[name] = values
        else:
            codes, scale = _quantized(values, mode)
            kept = codes.view(f"u{codes.itemsize}") != 0
            shipped[where[~kept]] = False
            codes = codes[kept].astype(_CODES[mode])
            head = np.array(scale, _SCALE).tobytes() if mode == "int8" else b""
            packed[name] = _deflated(head + codes.tobytes(), word)
        packed[name + _BITMAP] = _deflated(np.packbits(shipped), word)
    return packed


def _stream_codes(data: bytes, mode: str):
    """The codes and the scale an inflated values stream carries."""
    if mode == "fp16":
        return np.frombuffer(data, _CODES[mode]), 1.0
    steps = np.frombuffer(data, _CODES[mode], offset=_SCALE.itemsize).astype(np.float64)
    steps[steps == 0] = -0.0  # a step 0 ships only as the decode -0.0
    return steps, float(np.frombuffer(data, _SCALE, count=1)[0])


def unpack_nonzeros(packed: dict, shapes: dict, mode: str) -> dict:
    """The dense tensors of ``shapes`` (name -> shape) from a received
    :func:`pack_nonzeros` bundle under codec ``mode``: each one's values
    put back where its bitmap says, into a map of +0.0. Each stream may
    inflate to exactly what its shape allows, ⌈n / 8⌉ B for a bitmap and
    the bitmap's count of codes (after an 8 B scale under int8) for the
    values, and raises :class:`ShapeError` naming its tensor otherwise."""
    dense = {}
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        bits = _inflated(packed[name + _BITMAP], -(-n // 8), name, "bitmap")
        where = np.flatnonzero(np.unpackbits(np.frombuffer(bits, np.uint8), count=n))
        if mode == "identity":
            values = packed[name]
            if where.size != values.size:
                raise ShapeError(f"payload tensor {name!r}: {values.size} values for "
                                 f"{where.size} bitmap entries")
        else:
            head = _SCALE.itemsize if mode == "int8" else 0
            data = _inflated(packed[name], head + where.size * _CODES[mode].itemsize,
                             name, "values")
            values = _dequantized(*_stream_codes(data, mode), mode)
        flat = np.zeros(n)
        flat[where] = values
        dense[name] = _from_cell_major(flat, shape)
    return dense


def transmit_tensors(tensors: dict, cfg: CodecConfig):
    """Send a named bundle through the channel.

    Returns (decoded dict, per-tensor mse dict).  Iteration order follows the
    input dict so remote reassembly is reproducible.  An unsigned-integer
    array (a :func:`pack_nonzeros` stream) is carried bit for bit, with no
    codec and no mse entry, so a packed bundle has an mse entry only for the
    raw values identity ships.
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
