"""SVG rendering: the chord clip and the bounding box against independent
references, the joins one figure makes, and frozen figures of projective
images with an ideal center or an ideal vertex and of diagrams that are not
vertex-perspective.

The reference clip collects every point where the line meets an edge of the
rectangle and takes the lexicographically least and greatest; the package's
clip works the chord out as an interval instead.  Both must give the same
rational ends, or both None, on every line render_svg draws and on lines
placed against each of its rectangles (fixed seeds, so every run checks the
same cases), and on random lines across random rectangles.
"""

import hashlib
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

import quadshadow.render
from quadshadow.kernel import Line2, Point2, collinear2, join2
from quadshadow.quadrangle import Quadrangle
from quadshadow.checker import PlanarDiagram, decide_depiction
from quadshadow.generators import gen_correct_diagram, gen_general_position_diagram
from quadshadow.render import _clip_to_rect, _padded, _rectangle, render_svg

from figures import frozen_render_pool
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


def off_rays(seed, correct):
    """A generated diagram with the quad2 vertices picked by the bits of
    seed % 15 + 1 moved by x0 + 1, so off their rays unless a ray is horizontal."""
    d = gen_general_position_diagram(seed, correct=correct)
    picked = seed % 15 + 1
    moved = [
        Point2(x0 + 1, x1, x2) if picked >> i & 1 else v
        for i, v in enumerate(d.quad2.vertices)
        for x0, x1, x2 in [v.coords]
    ]
    return PlanarDiagram(d.O, d.quad1, Quadrangle(*moved))


#: 200 diagrams that are not vertex-perspective, one to four vertices off their rays
NON_PERSPECTIVE = tuple(
    off_rays(seed, correct) for seed in range(100) for correct in (True, False)
)


def reference_rectangle(points):
    """The padded bounding box from the least and greatest point on each axis
    by min and max, keyed on cross-multiplied comparisons."""
    by_x = cmp_to_key(lambda p, q: p[0] * q[2] - q[0] * p[2])
    by_y = cmp_to_key(lambda p, q: p[1] * q[2] - q[1] * p[2])
    x0, x1, dx = _padded(min(points, key=by_x), max(points, key=by_x), 0)
    y0, y1, dy = _padded(min(points, key=by_y), max(points, key=by_y), 1)
    return x0 * dy, y0 * dx, x1 * dy, y1 * dx, dx * dy


def calls(name, diagrams):
    """The arguments of every call render_svg makes to the render module's
    `name` while drawing the diagrams: (line, rectangle) for "_clip_to_rect"."""
    original, seen = getattr(quadshadow.render, name), []

    def recording(*args):
        seen.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadshadow.render, name, recording)
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
    cases = calls("_clip_to_rect", diagrams)
    assert len(cases) > 10 * len(diagrams)
    chords = 0
    for line, rect in cases:
        got = _clip_to_rect(line, rect)
        assert same_chord(got, reference_clip(line, rect)), (line, rect)
        chords += got is not None
    assert 0 < chords < len(cases)


def test_the_clip_agrees_with_the_reference_on_lines_placed_against_each_rectangle():
    diagrams = [gen_general_position_diagram(seed, correct=seed % 2 == 0) for seed in range(200)]
    rects = {rect for _, rect in calls("_clip_to_rect", diagrams)}
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
    assert sum(image.O.coords[2] == 0 for image in IMAGES) == 90
    digest = hashlib.sha256()
    for image in IMAGES:
        digest.update(render_svg(image).encode())
    assert digest.hexdigest() == (
        "c93472fb398c7ab02e097844f59c94e6ff0108be50f43f4360115ea4a329015d"
    )


def test_non_perspective_figures_render_frozen():
    # sha256 of the SVGs of NON_PERSPECTIVE, whose quad2 rays are drawn apart
    # from quad1's; any change to a ray, a chord or a marker moves it
    assert not any(decide_depiction(d).applicable for d in NON_PERSPECTIVE)
    digest = hashlib.sha256()
    for d in NON_PERSPECTIVE:
        digest.update(render_svg(d).encode())
    assert digest.hexdigest() == (
        "63c50fb9f392ce2191b3a411e140bf84882ad1fc4b135d824cf2bb36d054fa2a"
    )


def test_the_bounding_box_agrees_with_the_reference_on_every_frozen_figure():
    figures = [*frozen_render_pool(), *IMAGES, *NON_PERSPECTIVE]
    boxes = calls("_rectangle", figures)
    assert len(boxes) == len(figures)
    for (points,) in boxes:
        assert _rectangle(points) == reference_rectangle(points), points


def _canonical(x, y, w):
    g = gcd(x, y, w)
    return x // g, y // g, w // g


# distinct affine points (x, y, w), w > 0, from a small range, so that many share an x or a y
point_lists = st.lists(
    st.builds(_canonical, small, small, st.integers(1, 4)), min_size=1, unique=True
)


@given(point_lists)
@example(points=[(-1, 0, 3), (-2, 5, 6), (0, 1, 1), (3, 1, 3), (1, 1, 1)])  # ties in x
@example(points=[(0, 1, 2), (1, 0, 1), (3, 2, 2), (1, 1, 1), (1, 0, 3)])  # ties in y
def test_the_bounding_box_agrees_with_the_reference_on_tied_points(points):
    assert _rectangle(points) == reference_rectangle(points)


def test_render_joins_a_ray_of_quad2_only_off_the_rays_of_quad1():
    # quad1's four rays and the six diagonal-triangle sides, then one ray for
    # each quad2 vertex off the ray of its quad1 vertex
    perspective = [gen_general_position_diagram(seed, correct=seed % 2 == 0) for seed in range(20)]
    for d in perspective + list(IMAGES[:90]):
        assert len(calls("join2", [d])) == 10
    off = set()
    for d in NON_PERSPECTIVE:
        k = sum(not collinear2(d.O, u, v) for u, v in zip(d.quad1.vertices, d.quad2.vertices))
        assert len(calls("join2", [d])) == 10 + k
        off.add(k)
    assert off == {1, 2, 3, 4}
