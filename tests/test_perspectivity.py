"""Perspectivities, Desargues machinery, and perspective collineations."""

import hashlib

import pytest

from quadshadow.checker import PlanarDiagram, decide_depiction
from quadshadow.generators import gen_general_position_diagram
from quadshadow.kernel import Line2, Point2, collinear2, join2, meet2
from quadshadow.quadrangle import Quadrangle
from quadshadow.perspectivity import (
    AXIS_SIDES,
    CenterIsVertex,
    Collineation,
    HomologousSidesEqual,
    InvalidPair,
    NoCommonAxis,
    NotPerspective,
    common_axis,
    desargues_axis,
    general_position,
    perspective_center,
    perspective_collineation,
    side_axes,
    triangles_perspective_point,
)

from collineations import IDENTITY, apply_line, apply_quadrangle, compose, inverse
from figures import DILATED, O, PERTURBED, SQUARE
from textbook import cross, det3

# triangles perspective from the origin with ray ratios 2, 3, 4
CENTER = Point2.affine(0, 0)
T1 = (Point2.affine(1, 0), Point2.affine(0, 1), Point2.affine(-1, -1))
T2 = (Point2.affine(2, 0), Point2.affine(0, 3), Point2.affine(-4, -4))


# --- point perspectivity ------------------------------------------------



def test_triangles_perspective_point():
    assert triangles_perspective_point(CENTER, T1, T2)
    bent = (T2[0], T2[1], Point2.affine(-4, -5))
    assert not triangles_perspective_point(CENTER, T1, bent)


def test_perspective_center_recovers_center():
    assert perspective_center(T1, T2) == CENTER


def test_perspective_center_not_perspective():
    bent = (T2[0], T2[1], Point2.affine(-4, -5))
    with pytest.raises(NotPerspective):
        perspective_center(T1, bent)


def test_triangles_perspective_point_rejects_a_center_at_a_vertex():
    for t1, t2 in ((T1, T2), (T2, T1)):
        with pytest.raises(CenterIsVertex, match="is a triangle vertex"):
            triangles_perspective_point(T1[0], t1, t2)


def test_perspective_center_identical_triangles_rejected():
    with pytest.raises(ValueError, match="too few distinct pairs"):
        perspective_center(T1, T1)


def test_perspective_center_rejects_coinciding_joins():
    # two distinct pairs, both on the x-axis, and an equal third pair
    apex = Point2.affine(0, 1)
    t1 = (Point2.affine(0, 0), Point2.affine(2, 0), apex)
    t2 = (Point2.affine(1, 0), Point2.affine(3, 0), apex)
    with pytest.raises(ValueError, match="homologous joins coincide"):
        perspective_center(t1, t2)


# --- Desargues ----------------------------------------------------------

def test_desargues_axis_matches_cross_product_oracle():
    meets = []
    for i, j in ((1, 2), (2, 0), (0, 1)):
        side1 = cross(T1[i].coords, T1[j].coords)
        side2 = cross(T2[i].coords, T2[j].coords)
        meets.append(cross(side1, side2))
    # the three oracle meets are collinear: that is the theorem
    assert det3(*meets) == 0
    axis = desargues_axis(T1, T2)
    for m in meets:
        assert axis.contains(Point2(*m))


def test_desargues_axis_shared_side_rejected():
    shared = (T1[0], T1[1], Point2.affine(5, 5))
    with pytest.raises(HomologousSidesEqual):
        desargues_axis(T1, shared)


def test_desargues_axis_non_perspective_triangles():
    bent = (T2[0], T2[1], Point2.affine(-4, -5))
    with pytest.raises(NotPerspective):
        desargues_axis(T1, bent)


def test_desargues_axis_rejects_collinear_triangles_with_one_meet():
    # every side of each triple is its own line, so all three meets are one point
    on_x = tuple(Point2.affine(x, 0) for x in (1, 2, 3))
    on_y = tuple(Point2.affine(0, y) for y in (1, 2, 3))
    with pytest.raises(NotPerspective, match="^side intersections all coincide"):
        desargues_axis(on_x, on_y)


# --- the four-axis table -------------------------------------------------

def test_axis_sides_table():
    assert AXIS_SIDES == {
        "s": ("QR", "RP", "PQ"),
        "r": ("PQ", "SQ", "SP"),
        "q": ("SP", "RP", "SR"),
        "p": ("SR", "SQ", "QR"),
    }
    # every side appears in exactly two of the four axes
    from collections import Counter

    counts = Counter(side for triple in AXIS_SIDES.values() for side in triple)
    assert all(n == 2 for n in counts.values())


def test_dilation_side_axes_all_ideal():
    axes = side_axes(SQUARE, DILATED)
    ideal = Line2(0, 0, 1)
    assert axes.s == axes.r == axes.q == axes.p == ideal
    assert axes["s"] == ideal
    assert common_axis(SQUARE, DILATED) == ideal


def test_side_axes_defining_meets_lie_on_axis():
    axes = side_axes(SQUARE, DILATED)
    for name, labels in AXIS_SIDES.items():
        for lab in labels:
            assert axes[name].contains(axes.meets[lab])


def test_no_common_axis_for_perturbed_quad():
    with pytest.raises(NoCommonAxis):
        common_axis(SQUARE, PERTURBED)


def test_general_position_false_for_dilation():
    # parallel side pairs repeat ideal meet directions
    assert not general_position(SQUARE, DILATED)


def test_general_position_true_for_generic_homology():
    axis = Line2(1, 1, 1)
    h = perspective_collineation(O, axis, (Point2.affine(1, 1), Point2.affine(-1, 2)))
    image = apply_quadrangle(h, SQUARE)
    assert decide_depiction(PlanarDiagram(O, SQUARE, image)).applicable
    assert general_position(SQUARE, image)
    assert common_axis(SQUARE, image) == axis


def test_general_position_never_raises_on_shared_vertices():
    shared = Quadrangle(SQUARE.P, SQUARE.Q, SQUARE.R, Point2.affine(4, 7))
    assert general_position(SQUARE, shared) is False


# --- collineations -------------------------------------------------------

def test_collineation_canonical_matrix():
    c = Collineation(((2, 0, -6), (0, 2, 0), (0, 0, 2)))
    assert c.matrix == ((1, 0, -3), (0, 1, 0), (0, 0, 1))
    assert Collineation(((-1, 0, 0), (0, -1, 0), (0, 0, -1))) == IDENTITY


def test_collineation_rejects_a_matrix_that_is_not_3x3():
    with pytest.raises(TypeError, match="^Collineation takes a 3x3 matrix$"):
        Collineation(((1, 0), (0, 1)))


def test_collineation_singular_rejected():
    with pytest.raises(ValueError):
        Collineation(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


def test_identity_fixes_points_and_lines():
    e = IDENTITY
    p = Point2(3, -2, 5)
    line = Line2(1, 4, -2)
    assert e.apply(p) == p
    assert apply_line(e, line) == line


def test_perspective_collineation_dilation_frozen_matrix():
    h = perspective_collineation(
        O, Line2(0, 0, 1), (Point2.affine(1, 1), Point2.affine(-1, 2))
    )
    assert h.matrix == ((2, 0, -3), (0, 2, 0), (0, 0, 1))
    assert h.apply(Point2.affine(-1, 1)) == Point2.affine(-5, 2)
    assert apply_quadrangle(h, SQUARE) == DILATED


def test_perspective_collineation_generated_homology_frozen_matrix():
    d = gen_general_position_diagram(0)
    axis = common_axis(d.quad1, d.quad2)
    assert axis == Line2(637, 254, 38)
    h = perspective_collineation(d.O, axis, (d.quad1.P, d.quad2.P))
    assert h.matrix == (
        (202088, 173228, 25916),
        (-150969, -292544, -9006),
        (151606, 60452, -223302),
    )


def test_perspective_collineation_generated_matrices_frozen():
    # sha256 of the matrix from each vertex pair of the first 40 correct
    # general-position diagrams, recorded before the fraction-free solve.
    digest = hashlib.sha256()
    for seed in range(40):
        d = gen_general_position_diagram(seed)
        axis = common_axis(d.quad1, d.quad2)
        for lab in "PQRS":
            pair = (d.quad1.vertex(lab), d.quad2.vertex(lab))
            digest.update(repr(perspective_collineation(d.O, axis, pair).matrix).encode())
    assert digest.hexdigest() == (
        "9919cbe95b558e2f991289bf285d46160ea2813d649f660c66007e86a355f603"
    )


def test_perspective_collineation_fixes_center_and_axis():
    axis = Line2(1, 1, 1)
    h = perspective_collineation(O, axis, (Point2.affine(1, 1), Point2.affine(-1, 2)))
    assert h.apply(O) == O
    assert apply_line(h, axis) == axis
    # axis is fixed pointwise
    for x in (Point2.affine(0, -1), Point2.affine(-1, 0), Point2(1, -1, 0)):
        assert axis.contains(x)
        assert h.apply(x) == x
    # lines through the center are fixed linewise
    through = join2(O, Point2.affine(0, 5))
    assert apply_line(h, through) == through


def test_perspective_collineation_equal_pair_is_identity():
    p = Point2.affine(1, 1)
    h = perspective_collineation(O, Line2(1, 1, 1), (p, p))
    assert h == IDENTITY


def test_perspective_collineation_invalid_pairs():
    axis = Line2(0, 0, 1)
    with pytest.raises(InvalidPair):
        perspective_collineation(O, axis, (Point2(1, 1, 0), Point2.affine(1, 1)))
    with pytest.raises(InvalidPair):
        perspective_collineation(O, axis, (O, Point2.affine(1, 1)))
    with pytest.raises(InvalidPair):
        perspective_collineation(
            O, axis, (Point2.affine(1, 1), Point2.affine(1, 2))
        )


@pytest.mark.parametrize("first", [True, False], ids=["first-on-axis", "second-on-axis"])
def test_perspective_collineation_rejects_one_pair_point_on_the_axis(first):
    # O = (3 : 0 : 1), the ideal point (1 : 0 : 0) of the axis x2 = 0 and (5 : 0 : 1) are
    # collinear, so the axis is the only check that the pair fails
    axis, on, off = Line2(0, 0, 1), Point2(1, 0, 0), Point2(5, 0, 1)
    assert O == Point2(3, 0, 1) and axis.contains(on) and not axis.contains(off)
    assert collinear2(O, on, off)
    with pytest.raises(InvalidPair, match="^pair points must be off the axis$"):
        perspective_collineation(O, axis, (on, off) if first else (off, on))


def test_elation_when_center_on_axis():
    # center on the axis still yields a collineation with the right action
    center = Point2.affine(0, 0)
    axis = Line2(0, 1, 0)  # the x-axis, contains the center
    pair = (Point2.affine(1, 1), Point2.affine(2, 2))
    h = perspective_collineation(center, axis, pair)
    assert h.apply(pair[0]) == pair[1]
    assert h.apply(center) == center
    for x in (Point2.affine(5, 0), Point2(1, 0, 0)):
        assert h.apply(x) == x


@pytest.mark.parametrize(
    "center, axis, cuts, target, matrix",
    [
        # an elation: the affine center (1, 2) lies on the axis 2x - y = 0
        (Point2.affine(1, 2), Line2(2, -1, 0), (Line2(1, 0, 0), Line2(0, 0, 1)), (3, 4),
         ((8, -3, 0), (12, -4, 0), (6, -3, 2))),
        # a homology with the ideal center (1 : 0 : 0), off the axis x = 2
        (Point2(1, 0, 0), Line2(1, 0, -2), (Line2(0, 1, 0), Line2(0, 0, 1)), (5, 1),
         ((3, 0, -10), (0, -2, 0), (0, 0, -2))),
        # the translation by (5, 0): the ideal center lies on the line at infinity
        (Point2(1, 0, 0), Line2(0, 0, 1), (Line2(1, 0, 0), Line2(0, 1, 0)), (5, 1),
         ((1, 0, 5), (0, 1, 0), (0, 0, 1))),
    ],
    ids=["elation", "ideal-center", "translation"],
)
def test_perspective_collineation_elations_and_ideal_centers_frozen(
    center, axis, cuts, target, matrix
):
    pair = (Point2.affine(0, 1), Point2.affine(*target))
    h = perspective_collineation(center, axis, pair)
    assert h.matrix == matrix  # recorded before the pair was solved with cross products
    assert h.apply(pair[0]) == pair[1]
    # two distinct points of the axis, where it meets two coordinate lines
    p, q = (meet2(axis, cut) for cut in cuts)
    assert p != q
    for x in (p, q, Point2(*(a + b for a, b in zip(p.coords, q.coords)))):
        assert axis.contains(x)
        assert h.apply(x) == x
    through = join2(center, Point2.affine(7, -3))
    assert apply_line(h, through) == through


def test_collineation_compose_and_inverse():
    h = perspective_collineation(
        O, Line2(0, 0, 1), (Point2.affine(1, 1), Point2.affine(-1, 2))
    )
    assert compose(h, inverse(h)) == IDENTITY
    p = Point2.affine(-7, 4)
    assert inverse(h).apply(h.apply(p)) == p


def test_collineation_preserves_incidence():
    h = perspective_collineation(
        O, Line2(1, 1, 1), (Point2.affine(1, 1), Point2.affine(-1, 2))
    )
    a, b = Point2.affine(2, 5), Point2.affine(-3, 1)
    line = join2(a, b)
    assert apply_line(h, line) == join2(h.apply(a), h.apply(b))


def test_collineation_line_action_via_meets():
    h = perspective_collineation(
        O, Line2(0, 0, 1), (Point2.affine(1, 1), Point2.affine(-1, 2))
    )
    l1, l2 = Line2(1, 0, -1), Line2(0, 1, -1)
    assert h.apply(meet2(l1, l2)) == meet2(apply_line(h, l1), apply_line(h, l2))
