"""Every script in demos/ runs to completion and prints something.

Each script runs as a copy in a temporary directory, so the files it
writes next to itself stay out of the source tree.
"""

import os
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import cantor_oracle_distance
from overt.plot import pixel_radius

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    return subprocess.run(
        [sys.executable, str(copy)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_tilted_cantor_pixels(tmp_path):
    # The image of the middle-thirds set under x -> (3x/5, 4x/5) lies on a
    # unit-speed line, so d(p)^2 = h^2 + d(x0, C)^2 with x0 = (3 px + 4 py) / 5
    # the foot of p and h its height over the line.  A black pixel needs
    # d < 2r (the set meets the outer ball), a white one d >= r.
    proc = run_demo(ROOT / "demos" / "plot_located_sets.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "tilted_cantor.pgm").read_text(encoding="ascii").split("\n")
    assert lines[:3] == ["P2", "48 48", "255"]
    rows = [row.split() for row in lines[3:51]]
    size, level = F(1, 48), 6
    r = pixel_radius(size, size)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            px, py = (2 * j + 1) * size / 2, 1 - (2 * i + 1) * size / 2
            x0 = (3 * px + 4 * py) / 5
            h = (4 * px - 3 * py) / 5
            dk = cantor_oracle_distance(x0, level)
            q_lo, q_hi = h * h + dk * dk, h * h + (dk + F(1, 3**level)) ** 2
            if value == "0":
                assert q_lo < 4 * r * r
            else:
                assert value == "255" and q_hi >= r * r
