"""The paper's characterisations of a correct diagram agree in special position.

For a vertex-perspective diagram these are equivalent: the verdict is
correct; the two-ray lift is coplanar (planarity determinant 0); a
collinear-centers witness verifies; and, in general position, the four
side axes coincide and an axis witness verifies.  The cases are the
projective images of tests/projective_images.py, which put the center or
one vertex at infinity, where no generator of the package draws.
"""

import re

import pytest

from quadshadow.kernel import Point2
from quadshadow.quadrangle import Quadrangle, diagonal_triangle
from quadshadow.perspectivity import NoCommonAxis, common_axis, general_position
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

from projective_images import IMAGES


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


@pytest.mark.parametrize(
    "ideal_center, tally",
    [(True, (45, 45, 87)), (False, (360, 360, 696))],
    ids=["ideal-center", "ideal-vertex"],
)
def test_characterisations_agree_in_special_position(ideal_center, tally):
    counts = {"correct": 0, "incorrect": 0, "general": 0}
    for d in IMAGES:
        if (d.O.coords[2] == 0) != ideal_center:
            continue
        verdict = decide_depiction(d)
        assert verdict.applicable
        counts["correct" if verdict.correct else "incorrect"] += 1
        assert (planarity_certificate(d).determinant == 0) == verdict.correct, d
        assert _verified(lift_collinear_centers, d) == verdict.correct, d
        if general_position(d.quad1, d.quad2):
            counts["general"] += 1
            assert _axis_exists(d) == verdict.correct, d
            # NotGeneralPosition is not caught: lift_via_axis must not raise it here
            assert _verified(lift_via_axis, d) == verdict.correct, d
        else:
            assert not verdict.correct, d
    assert tuple(counts.values()) == tally


def _spans_both_axes(quad):
    """The affine vertices and diagonal points of quad take two x and two y values."""
    points = (*quad.vertices, *diagonal_triangle(quad).labeled().values())
    xs, ys = zip(*(p.affine_coords for p in points if p.coords[2]))
    return len(set(xs)) > 1 and len(set(ys)) > 1


def test_every_quadrangle_spans_both_axes_of_its_render():
    # render_svg's bounding box has no fallback for an empty side: a valid
    # quadrangle has two affine vertices X, Y at least, three affine vertices
    # are never collinear, and with ideal U, V the diagonal point XU.YV is
    # affine and off XY
    diagrams = list(IMAGES)
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
