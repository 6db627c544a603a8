"""Arithmetic operation accounting for the similarity objectives.

The cosine-similarity losses are costed with one fixed convention so the
closed forms and the instrumented counters agree exactly. For a window of
n = C * l * l values (or the full grid, n = C * H * W):

mul: dot product n, two squared norms 2n, cosine normalization n / C
     (the elementwise division by |a||b| over l*l or H*W lattice sites),
     squared deviation n / C  -> total (3C + 2) * l * l per window
add: dot n - l*l... accounted per lattice site: (3C - 1) * l * l
sqrt: two norms per site pair -> 2 * l * l
div: one per site -> l * l

Multiplications are the figure the acceptance bounds pin down; the other
three follow the same per-site convention for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounts:
    mul: int = 0
    add: int = 0
    sqrt: int = 0
    div: int = 0

    def __iadd__(self, other: "OpCounts") -> "OpCounts":
        self.mul += other.mul
        self.add += other.add
        self.sqrt += other.sqrt
        self.div += other.div
        return self

    def as_dict(self) -> dict:
        return {"mul": self.mul, "add": self.add, "sqrt": self.sqrt, "div": self.div}


def _window_cost(channels: int, cells: int) -> OpCounts:
    """Cost of cosine-similarity windows covering `cells` lattice sites in all."""
    return OpCounts(
        mul=(3 * channels + 2) * cells,
        add=(3 * channels - 1) * cells,
        sqrt=2 * cells,
        div=cells,
    )


class OpCounter:
    """Mutable accumulator threaded through instrumented loss code."""

    def __init__(self):
        self.counts = OpCounts()

    def charge_window(self, channels: int, cells: int) -> None:
        """Cost of one cosine-similarity window over `cells` lattice sites."""
        self.counts += _window_cost(channels, cells)


def window_grid_counts(height: int, width: int, window: int) -> tuple[int, int]:
    """(full-tiling count, offset-tiling count) for an l x l window grid.

    The full tiling anchors at (0, 0) and yields floor(h/l) * floor(w/l)
    windows; the offset tiling anchors at (l/2, l/2) and yields
    floor((h-l)/l) * floor((w-l)/l).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > height or window > width:
        raise ValueError(
            f"window {window} exceeds grid {height}x{width}"
        )
    n1 = (height // window) * (width // window)
    n2 = ((height - window) // window) * ((width - window) // window)
    return n1, n2


def count_similarity_ops(channels: int, height: int, width: int,
                         window: int | None = None,
                         mode: str = "global") -> OpCounts:
    """Closed-form op counts for the similarity objective.

    mode "global": one cosine window spanning the whole C x H x W grid.
    mode "blockwise": dual window partition (full tiling plus half-offset
    tiling) of l x l windows, each costed like a small grid.
    """
    if mode == "global":
        return _window_cost(channels, height * width)
    if mode == "blockwise":
        if window is None:
            raise ValueError("blockwise mode requires a window size")
        n1, n2 = window_grid_counts(height, width, window)
        return _window_cost(channels, (n1 + n2) * window * window)
    raise ValueError(f"unknown mode {mode!r}; expected 'global' or 'blockwise'")
