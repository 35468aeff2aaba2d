from fractions import Fraction as F
from pathlib import Path

import pytest

from overt import setspec
from overt.errors import PreconditionFailed
from overt.plot import PlotSpec, pixel_radius, render_plot

GOLDEN_DIR = Path(__file__).parent / "goldens"

CASES = {
    "disk_16": ("disk:1/2,1/2,1/4", 16),
    "disk_32": ("disk:1/2,1/2,1/4", 32),
    "twopoints_16": ("points:(1/4,1/4);(3/4,3/4)", 16),
    "twopoints_32": ("points:(1/4,1/4);(3/4,3/4)", 32),
}


def render_case(name):
    spec_text, n = CASES[name]
    S = setspec.parse_set_spec(spec_text)
    return render_plot(PlotSpec(S, (0, 1, 0, 1), n, n))


def closed_form_distance_sq_bounds(spec_text, p):
    """(inside, dsq-to-anchor, threshold computation) for accuracy checks."""
    raise NotImplementedError


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_identical(self, name):
        golden = (GOLDEN_DIR / f"{name}.pgm").read_text(encoding="ascii")
        assert render_case(name) == golden

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_deterministic(self, name):
        assert render_case(name) == render_case(name)


def _pixels(text):
    rows = text.strip().split("\n")
    header, size, maxval = rows[0], rows[1], rows[2]
    assert header == "P2" and maxval == "255"
    w, h = (int(v) for v in size.split())
    grid = [row.split() for row in rows[3:]]
    assert len(grid) == h and all(len(r) == w for r in grid)
    return w, h, grid


class TestFormat:
    def test_pgm_shape_and_values(self):
        w, h, grid = _pixels(render_case("disk_16"))
        assert (w, h) == (16, 16)
        assert set(v for row in grid for v in row) <= {"0", "255"}

    def test_full_ambient_all_black(self):
        from overt.located import interval_set

        S = interval_set(0, 1)  # promoted to the x axis segment
        text = render_plot(PlotSpec(S, (0, 1, F(-1, 8), F(1, 8)), 4, 4))
        _, _, grid = _pixels(text)
        assert all(v == "0" for row in grid for v in row)

    def test_degenerate_viewport_rejected(self):
        S = setspec.parse_set_spec("disk:0,0,1")
        with pytest.raises(PreconditionFailed):
            PlotSpec(S, (1, 1, 0, 1), 4, 4)

    def test_size_cap(self):
        S = setspec.parse_set_spec("disk:0,0,1")
        with pytest.raises(PreconditionFailed):
            PlotSpec(S, (0, 1, 0, 1), 2048, 2048)


def _disk_pixel_ok(val, cx, cy, r):
    dsq = (cx - F(1, 2)) ** 2 + (cy - F(1, 2)) ** 2
    inside = dsq <= F(1, 16)
    if val == "0":
        return inside or dsq < (F(1, 4) + 2 * r) ** 2
    return not inside and dsq >= (F(1, 4) + r) ** 2


def _points_pixel_ok(val, cx, cy, r):
    anchors = [(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))]
    dsq = min((cx - ax) ** 2 + (cy - ay) ** 2 for ax, ay in anchors)
    if val == "0":
        return dsq < (2 * r) ** 2
    return dsq >= r * r


class TestAccuracy:
    @pytest.mark.parametrize(
        "name,checker", [("disk_32", _disk_pixel_ok), ("twopoints_32", _points_pixel_ok)]
    )
    def test_every_pixel_certified(self, name, checker):
        text = render_case(name)
        w, h, grid = _pixels(text)
        r = pixel_radius(F(1, w), F(1, h))
        for i in range(h):
            for j in range(w):
                cx, cy = F(2 * j + 1, 2 * w), 1 - F(2 * i + 1, 2 * h)
                assert checker(grid[i][j], cx, cy, r)

    def test_refinement_never_flips_definite_regions(self):
        # A pixel region definitely-white for the closed-form oracle at the
        # coarse scale cannot contain a definitely-black subpixel at the
        # doubled scale (and dually).
        for coarse_name, fine_name, anchor_dsq in (
            ("disk_16", "disk_32", None),
        ):
            wc, hc, coarse = _pixels(render_case(coarse_name))
            wf, hf, fine = _pixels(render_case(fine_name))
            rc = pixel_radius(F(1, wc), F(1, hc))
            rf = pixel_radius(F(1, wf), F(1, hf))

            def dist_state(cx, cy, r):
                dsq = (cx - F(1, 2)) ** 2 + (cy - F(1, 2)) ** 2
                inside = dsq <= F(1, 16)
                if not inside and dsq >= (F(1, 4) + 2 * r) ** 2:
                    return "white"  # outer ball misses: must be white
                if inside or dsq < (F(1, 4) + r) ** 2:
                    return "black"  # inner ball meets: must be black
                return "free"

            for i in range(hc):
                for j in range(wc):
                    cxy = (F(2 * j + 1, 2 * wc), 1 - F(2 * i + 1, 2 * hc))
                    parent = dist_state(*cxy, rc)
                    for di in (0, 1):
                        for dj in (0, 1):
                            fi, fj = 2 * i + di, 2 * j + dj
                            child = dist_state(
                                F(2 * fj + 1, 2 * wf), 1 - F(2 * fi + 1, 2 * hf), rf
                            )
                            if parent == "white":
                                assert child != "black"
