"""The paper's characterisations of a correct diagram agree in special position.

For a vertex-perspective diagram these are equivalent: the verdict is
correct; the two-ray lift is coplanar (planarity determinant 0); a
collinear-centers witness verifies; and, in general position, the four
side axes coincide and an axis witness verifies.  The cases put the center
at infinity (sunlight) or one vertex at infinity, where no generator of
the package draws.  Correct diagrams are images under a perspective
collineation; incorrect ones move each vertex along its ray by its own
random multiplier, so a few of them may be correct after all.
"""

import random
import re

import pytest

from quadshadow.kernel import GeometryError, Line2, Point2
from quadshadow.quadrangle import Quadrangle, diagonal_triangle
from quadshadow.perspectivity import (
    NoCommonAxis,
    common_axis,
    general_position,
    perspective_collineation,
)
from quadshadow.checker import DegeneracyKind, PlanarDiagram, decide_depiction
from quadshadow.generators import (
    gen_correct_diagram,
    gen_degenerate_diagram,
    gen_general_position_diagram,
    gen_incorrect_diagram,
)
from quadshadow.lift import (
    NotCorrectDiagram,
    lift_collinear_centers,
    lift_via_axis,
    planarity_certificate,
    verify_witness,
)
from quadshadow.render import render_svg

CASES = 100


def _nonzero(rng):
    return rng.choice([n for n in range(-6, 7) if n])


def _affine(rng):
    return Point2(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 4))


def _ideal(rng):
    return Point2(_nonzero(rng), rng.randint(-6, 6), 0)


def _along_ray(rng, center, x):
    """alpha x + beta center with alpha, beta nonzero: off the center, off x."""
    alpha, beta = _nonzero(rng), _nonzero(rng)
    return Point2(*(alpha * a + beta * c for a, c in zip(x.coords, center.coords)))


def _diagram(rng, ideal_center, correct):
    """A vertex-perspective diagram sharing no vertex, with O or P ideal."""
    while True:
        center = _ideal(rng) if ideal_center else _affine(rng)
        first = _affine(rng) if ideal_center else _ideal(rng)
        try:
            quad1 = Quadrangle(first, *(_affine(rng) for _ in range(3)))
            if correct:
                axis = Line2(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
                if any(axis.contains(v) for v in quad1.vertices):
                    continue
                pair = (quad1.P, _along_ray(rng, center, quad1.P))
                quad2 = perspective_collineation(center, axis, pair).apply_quadrangle(quad1)
            else:
                quad2 = Quadrangle(*(_along_ray(rng, center, v) for v in quad1.vertices))
            return PlanarDiagram(center, quad1, quad2)
        except GeometryError:
            continue


def _verified(lift, d):
    try:
        return verify_witness(d, lift(d)).passed
    except NotCorrectDiagram:
        return False


def _axis_exists(d):
    try:
        common_axis(d.quad1, d.quad2)
    except NoCommonAxis:
        return False
    return True


@pytest.mark.parametrize("ideal_center", [True, False], ids=["ideal-center", "ideal-vertex"])
def test_characterisations_agree_in_special_position(ideal_center):
    rng = random.Random(20260 + ideal_center)
    tally = {"correct": 0, "general": 0}
    for correct in (True, False):
        for _ in range(CASES):
            d = _diagram(rng, ideal_center, correct)
            verdict = decide_depiction(d)
            assert verdict.applicable
            if correct:
                assert verdict.correct, d
            tally["correct"] += verdict.correct
            assert (planarity_certificate(d).determinant == 0) == verdict.correct, d
            assert _verified(lift_collinear_centers, d) == verdict.correct, d
            if general_position(d.quad1, d.quad2):
                tally["general"] += 1
                assert _axis_exists(d) == verdict.correct, d
                assert _verified(lift_via_axis, d) == verdict.correct, d
    # both verdicts occur, and most cases reach the axis route
    assert CASES <= tally["correct"] < 2 * CASES
    assert tally["general"] > CASES


def _spans_both_axes(quad):
    """The affine vertices and diagonal points of quad take two x and two y values."""
    points = (*quad.vertices, *diagonal_triangle(quad).labeled().values())
    xs, ys = zip(*(p.affine_coords for p in points if not p.is_ideal))
    return len(set(xs)) > 1 and len(set(ys)) > 1


def test_every_quadrangle_spans_both_axes_of_its_render():
    # render_svg's bounding box has no fallback for an empty side: a valid
    # quadrangle has two affine vertices X, Y at least, three affine vertices
    # are never collinear, and with ideal U, V the diagonal point XU.YV is
    # affine and off XY
    diagrams = []
    for ideal_center in (True, False):  # the cases of the test above
        rng = random.Random(20260 + ideal_center)
        diagrams += [_diagram(rng, ideal_center, c) for c in (True, False) for _ in range(CASES)]
    for seed in range(100):  # the generated diagrams test_render_outputs_are_frozen draws
        diagrams += [gen_general_position_diagram(seed, correct=c) for c in (True, False)]
    for seed in range(50):
        diagrams += [
            gen_correct_diagram(seed)[1],
            gen_incorrect_diagram(seed),
            gen_degenerate_diagram(seed, kind=DegeneracyKind.TRIANGLE),
            gen_degenerate_diagram(seed, kind=DegeneracyKind.VERTEX),
        ]
    for d in diagrams:
        assert _spans_both_axes(d.quad1) and _spans_both_axes(d.quad2), d


def test_a_quadrangle_with_two_ideal_vertices_renders_with_area():
    quad1 = Quadrangle(Point2(0, 0, 1), Point2(0, 1, 1), Point2(1, 0, 0), Point2(1, 1, 0))
    assert _spans_both_axes(quad1)
    # dilated by 2 from O = (2, 3), which fixes the ideal vertices
    quad2 = Quadrangle(Point2(-2, -3, 1), Point2(-2, -1, 1), quad1.R, quad1.S)
    svg = render_svg(PlanarDiagram(Point2(2, 3, 1), quad1, quad2))
    width, height = re.search(r'viewBox="0 0 ([0-9.]+) ([0-9.]+)"', svg).groups()
    assert float(width) > 0 and float(height) > 0
