"""SVG rendering: the chord clip against an independent reference, and frozen
figures of projective images with an ideal center or an ideal vertex.

The reference clip collects every point where the line meets an edge of the
rectangle and takes the lexicographically least and greatest; the package's
clip works the chord out as an interval instead.  Both must give the same
rational ends, or both None, on every line render_svg draws and on lines
placed against each of its rectangles (fixed seeds, so every run checks the
same cases), and on random lines across random rectangles.
"""

import hashlib
from functools import cmp_to_key

import pytest
from hypothesis import example, given, strategies as st

import quadshadow.render
from quadshadow.kernel import Line2, Point2, join2
from quadshadow.generators import gen_correct_diagram, gen_general_position_diagram
from quadshadow.render import _clip_to_rect, render_svg

from projective_images import IMAGES


def _lex(p, q):
    """Sign of p - q in lexicographic (x, y) order, by cross-multiplication."""
    return (p[0] * q[2] - q[0] * p[2]) or (p[1] * q[2] - q[1] * p[2])


def reference_clip(line, rect):
    """The line's hits on the rectangle's edges, least and greatest, or None."""
    a, b, c = line.coords
    x0, y0, x1, y1, d = rect
    hits = []
    if b:  # the line meets x = X/D at y/(|b| D)
        sign, m = (1, b) if b > 0 else (-1, -b)
        for x in (x0, x1):
            y = -sign * (a * x + c * d)
            if y0 * m <= y <= y1 * m:
                hits.append((x * m, y, m * d))
    if a:  # canonical, so a > 0: it meets y = Y/D at x/(a D)
        for y in (y0, y1):
            x = -(b * y + c * d)
            if x0 * a <= x <= x1 * a:
                hits.append((x, y * a, a * d))
    if hits:
        key = cmp_to_key(_lex)
        lo, hi = min(hits, key=key), max(hits, key=key)
        if _lex(lo, hi):
            return lo, hi
    return None


def same_chord(got, want):
    """Both None, or ends that are the same rational points in the same order."""
    if got is None or want is None:
        return got is want
    return all(p[2] > 0 and not _lex(p, q) for p, q in zip(got, want))


def drawn(diagrams):
    """Every (line, rectangle) render_svg clips while drawing the diagrams."""
    seen = []

    def recording(line, rect):
        seen.append((line, rect))
        return _clip_to_rect(line, rect)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadshadow.render, "_clip_to_rect", recording)
        for d in diagrams:
            render_svg(d)
    return seen


def constructed(rect):
    """(line, meets the rectangle in a chord) for lines placed against it."""
    x0, y0, x1, y1, d = rect
    corners = [Point2(x, y, d) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
    edges = [join2(p, q) for p, q in zip(corners, corners[1:] + corners[:1])]
    diagonals = [join2(corners[0], corners[2]), join2(corners[1], corners[3])]
    middle = [Line2(0, 2 * d, -(y0 + y1)), Line2(2 * d, 0, -(x0 + x1))]
    # bottom edge at a quarter of the width to the top edge's middle; left edge
    # at three quarters of the height to right edge at one quarter
    rising = join2(Point2(3 * x0 + x1, 4 * y0, 4 * d), Point2(x0 + x1, 2 * y1, 2 * d))
    falling = join2(Point2(4 * x0, y0 + 3 * y1, 4 * d), Point2(4 * x1, 3 * y0 + y1, 4 * d))
    # x + y is least over the rectangle at its lower left corner only
    corner_only = join2(corners[0], Point2(x0 + 1, y0 - 1, d))
    outside = [
        Line2(2 * d, 0, 1 - 2 * x0),
        Line2(2 * d, 0, -1 - 2 * x1),
        Line2(0, 2 * d, 1 - 2 * y0),
        Line2(0, 2 * d, -1 - 2 * y1),
    ]
    chords = edges + diagonals + middle + [rising, falling]
    misses = [corner_only, *outside, Line2(0, 0, 1)]  # the last is the line at infinity
    return [(l, True) for l in chords] + [(l, False) for l in misses]


def test_the_clip_agrees_with_the_reference_on_every_drawn_line():
    diagrams = [
        d
        for seed in range(200)
        for d in (
            gen_general_position_diagram(seed, correct=True),
            gen_general_position_diagram(seed, correct=False),
            gen_correct_diagram(seed)[1],
        )
    ]
    cases = drawn(diagrams)
    assert len(cases) > 10 * len(diagrams)
    chords = 0
    for line, rect in cases:
        got = _clip_to_rect(line, rect)
        assert same_chord(got, reference_clip(line, rect)), (line, rect)
        chords += got is not None
    assert 0 < chords < len(cases)


def test_the_clip_agrees_with_the_reference_on_lines_placed_against_each_rectangle():
    diagrams = [gen_general_position_diagram(seed, correct=seed % 2 == 0) for seed in range(200)]
    rects = {rect for _, rect in drawn(diagrams)}
    assert len(rects) == len(diagrams)
    for rect in rects:
        for line, meets in constructed(rect):
            got = _clip_to_rect(line, rect)
            assert same_chord(got, reference_clip(line, rect)), (line, rect)
            assert (got is not None) == meets, (line, rect)


# (X0, Y0, X1, Y1, D): the rectangle [X0/D, X1/D] x [Y0/D, Y1/D]
rects = st.builds(
    lambda x0, y0, w, h, d: (x0, y0, x0 + w, y0 + h, d),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 4),
)
small = st.integers(-8, 8)


@given(st.tuples(small, small, small).filter(any), rects)
@example(line=(1, 1, 0), rect=(0, 0, 2, 2, 1))  # through exactly one corner
@example(line=(1, -1, 0), rect=(0, 0, 2, 2, 1))  # through two opposite corners
@example(line=(0, 1, 0), rect=(0, 0, 2, 2, 1))  # along the bottom edge
@example(line=(1, 0, -2), rect=(0, 0, 2, 2, 1))  # along the right edge
@example(line=(0, 2, -1), rect=(0, 0, 2, 2, 1))  # horizontal, y = 1/2
@example(line=(3, 0, -1), rect=(0, 0, 2, 2, 3))  # vertical, x = 1/3
@example(line=(1, 1, -10), rect=(0, 0, 2, 2, 1))  # misses the rectangle
@example(line=(0, 0, 1), rect=(0, 0, 2, 2, 1))  # the line at infinity
def test_the_clip_agrees_with_the_reference_on_random_lines(line, rect):
    line = Line2(*line)
    assert same_chord(_clip_to_rect(line, rect), reference_clip(line, rect))


def test_projective_images_render_frozen():
    # sha256 of the SVGs of 810 images, 90 with an ideal center and 720 with an
    # ideal vertex; any change to a chord, an arrow or a marker moves it
    assert len(IMAGES) == 810
    assert sum(image.O.is_ideal for image in IMAGES) == 90
    digest = hashlib.sha256()
    for image in IMAGES:
        digest.update(render_svg(image).encode())
    assert digest.hexdigest() == (
        "c93472fb398c7ab02e097844f59c94e6ff0108be50f43f4360115ea4a329015d"
    )
