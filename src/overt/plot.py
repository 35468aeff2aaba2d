"""Exact rasterizer for planar located sets.

Each pixel stands for one nested-ball question to the set's dichotomy: the
inner ball has the pixel's half-diagonal radius (so it covers the pixel),
the outer ball twice that.  A positive answer paints the pixel black (the
set certifiably meets the outer ball), a negative one white (the set
certifiably misses the inner ball, hence the pixel).  The pixel centres are
a lattice, one integer axis of columns and one of rows over a common
denominator, and go through the cell descent of nets from a dichotomy,
``located._lattice_blocks``: a set with an exact comparison settles whole
blocks of pixels, as index ranges, by one comparison at the block centre,
and only small blocks on the set's edge ask pixel by pixel; a set without
one asks every pixel.  Either way each pixel gets the answer of its
own question, every decision is rational arithmetic, and repeated runs are
byte-identical.

Output is plain-text PGM (P2, maxval 255) with values 0 and 255; the value
128 is reserved for three-valued backends and is never produced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from overt.errors import PreconditionFailed
from overt.located import EpsilonNetFamily, _lattice_blocks, _scaled, promote_to_plane
from overt.reals import sqrt_bounds

MAX_PIXELS = 1 << 20


@dataclass(frozen=True)
class PlotSpec:
    set_family: EpsilonNetFamily
    viewport: tuple  # (xmin, xmax, ymin, ymax)
    width: int
    height: int

    def __post_init__(self):
        xmin, xmax, ymin, ymax = (Fraction(v) for v in self.viewport)
        if xmin >= xmax or ymin >= ymax:
            raise PreconditionFailed("degenerate viewport")
        if self.width <= 0 or self.height <= 0:
            raise PreconditionFailed("size must be positive")
        if self.width * self.height > MAX_PIXELS:
            raise PreconditionFailed(f"size exceeds {MAX_PIXELS} pixels")


def pixel_radius(pw: Fraction, ph: Fraction) -> Fraction:
    """Deterministic rational upper bound on half the pixel diagonal."""
    diag_sq = pw * pw + ph * ph
    eps = (pw + ph) / 64
    return sqrt_bounds(diag_sq, eps)[1] / 2


def render_plot(spec: PlotSpec) -> str:
    S = promote_to_plane(spec.set_family)
    xmin, xmax, ymin, ymax = (Fraction(v) for v in spec.viewport)
    w, h = spec.width, spec.height
    pw, ph = (xmax - xmin) / w, (ymax - ymin) / h
    r = pixel_radius(pw, ph)
    # Pixel (i, j) of row i from the top has the centre
    # (xmin + (2j + 1) pw/2, ymax - (2i + 1) ph/2); over one denominator the
    # centres are the lattice of the columns and of the rows from the bottom.
    den, x0, dx, y1, dy = _scaled(xmin, pw / 2, ymax, ph / 2)
    xs = list(range(x0 + dx, x0 + 2 * w * dx, 2 * dx))
    ys = list(range(y1 - (2 * h - 1) * dy, y1, 2 * dy))
    mask = bytearray(w * h)
    for j0, j1, k0, k1 in _lattice_blocks(S, den, (xs, ys), r, 2 * r):
        for k in range(k0, k1):
            row = (h - 1 - k) * w
            mask[row + j0:row + j1] = b"\1" * (j1 - j0)
    rows = [
        " ".join("0" if b else "255" for b in mask[i * w:(i + 1) * w]) for i in range(h)
    ]
    return "\n".join(["P2", f"{w} {h}", "255", *rows]) + "\n"
