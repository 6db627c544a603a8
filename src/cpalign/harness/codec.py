"""Lossy feature transmission between agents.

Collaborators ship intermediate feature maps over a bandwidth-limited link.
Three codecs are modelled: a lossless identity channel, float16 truncation,
and symmetric per-tensor int8 quantization.  Each returns the decoded tensor
plus the mean squared error introduced, so runs can report the distortion the
alignment stages had to absorb, and :func:`wire_bytes` gives the size a
bundle takes on the link.
"""

import numpy as np
from dataclasses import dataclass

from ..numerics import ShapeError

_F16_MAX = float(np.finfo(np.float16).max)

CODEC_MODES = ("identity", "fp16", "int8")

#: Bytes per element on the link: identity ships float32, fp16 two bytes,
#: int8 one byte plus a float32 scale per tensor.
_ELEM_BYTES = {"identity": 4, "fp16": 2, "int8": 1}
_INT8_SCALE_BYTES = 4


@dataclass
class CodecConfig:
    mode: str = "identity"

    def __post_init__(self):
        if self.mode not in CODEC_MODES:
            raise ShapeError(f"unknown codec mode {self.mode!r}")


def encode_decode(arr: np.ndarray, mode: str = "identity"):
    """Round-trip one tensor through the channel.

    Returns (decoded, mse).  int8 uses scale = max|x| / 127, so the
    worst-case per-element error is max|x| / 254; fp16 clips to the finite
    float16 range before truncating.
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
            scale = peak / 127.0
            q = np.clip(np.round(x / scale), -127, 127)
            out = q * scale
    mse = float(np.mean((out - x) ** 2)) if x.size else 0.0
    return out, mse


def wire_bytes(tensors: dict, mode: str) -> int:
    """Payload size of one named bundle under codec ``mode``, in bytes."""
    n = sum(int(np.size(a)) for a in tensors.values())
    scales = _INT8_SCALE_BYTES * len(tensors) if mode == "int8" else 0
    return n * _ELEM_BYTES[mode] + scales


def transmit_tensors(tensors: dict, cfg: CodecConfig):
    """Send a named bundle through the channel.

    Returns (decoded dict, per-tensor mse dict).  Iteration order follows the
    input dict so remote reassembly is reproducible.  A tensor holding a NaN
    or an infinity raises :class:`ShapeError` naming it: int8 would spread
    it over the whole decoded tensor and the identity codec would pass it
    on with an mse of 0.
    """
    decoded = {}
    errors = {}
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise ShapeError(f"payload tensor {name!r} contains non-finite values")
        decoded[name], errors[name] = encode_decode(arr, cfg.mode)
    return decoded, errors
