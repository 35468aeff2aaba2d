"""Accurate plotting of planar located sets.

Every pixel is a single nested-ball question to the set's dichotomy: black
means the outer ball certifiably meets the set, white means the inner ball
certifiably misses it.  All arithmetic is rational, so the output is
byte-identical between runs.

Writes PGM files next to this script.
"""

from pathlib import Path

from overt.plot import PlotSpec, render_plot
from overt.setspec import parse_set_spec

HERE = Path(__file__).parent
SIZE = 48

for name, spec_text, viewport in [
    ("disk", "disk:1/2,1/2,1/4", (0, 1, 0, 1)),
    ("two_disks", "union(disk:1/4,1/2,1/8,disk:3/4,1/2,1/8)", (0, 1, 0, 1)),
    ("segment", "segment:0,0,1,1", (0, 1, 0, 1)),
    ("cantor_line", "cantor", (0, 1, "-1/4", "1/4")),
    # the image of a line set keeps its exact comparison: the squared height
    # over the image line plus the squared distance along it
    ("tilted_cantor", "image(affine:3/5,0,0,4/5,0,0,cantor)", (0, 1, 0, 1)),
]:
    spec = PlotSpec(parse_set_spec(spec_text), viewport, SIZE, SIZE)
    text = render_plot(spec)
    out = HERE / f"{name}.pgm"
    out.write_text(text, encoding="ascii")
    rows = text.strip().split("\n")[3:]
    black = sum(row.split().count("0") for row in rows)
    print(f"{name:14} {SIZE}x{SIZE}: {black} black pixels -> {out.name}")

print("\nASCII view of the disk at 24x24:")
spec = PlotSpec(parse_set_spec("disk:1/2,1/2,1/4"), (0, 1, 0, 1), 24, 24)
for row in render_plot(spec).strip().split("\n")[3:]:
    print("".join("#" if v == "0" else "." for v in row.split()))
