"""The closed-form ray meet of the planarity certificate against the Pluecker route.

``planarity_certificate`` meets each pair of rays O1-X1, O2-X2 by the
collinearity relation of O, X1, X2.  The reference here meets the same rays
the general way, with ``line3_through`` and ``meet_lines3``; both must give
the same canonical points and so the same determinant.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, strategies as st

from quadshadow.kernel import Point2, coplanarity_det, embed_drawing
from quadshadow.quadrangle import VERTEX_LABELS, Quadrangle
from quadshadow.checker import DegeneracyKind, PlanarDiagram, decide_depiction
from quadshadow.lift import _ray_meet, displaced_centers, planarity_certificate
from quadshadow.generators import (
    gen_correct_diagram,
    gen_degenerate_diagram,
    gen_incorrect_diagram,
)

from pluecker_oracle import line3_through, meet_lines3

DISPLACEMENTS = [(1, -1), (F(3, 2), -7), (2, 5)]


def reference_meet(O1, O2, X1, X2):
    ray1 = line3_through(O1, embed_drawing(X1))
    ray2 = line3_through(O2, embed_drawing(X2))
    return meet_lines3(ray1, ray2)


def reference_certificate(d, c1, c2):
    O1, O2 = displaced_centers(d.O, c1, c2)
    points = {
        lab: reference_meet(O1, O2, d.quad1.vertex(lab), d.quad2.vertex(lab))
        for lab in VERTEX_LABELS
    }
    return points, coplanarity_det(*points.values())


def assert_certificate_matches(d):
    for c1, c2 in DISPLACEMENTS:
        cert = planarity_certificate(d, c1, c2)
        points, det = reference_certificate(d, c1, c2)
        assert cert.points == points
        assert cert.determinant == det


coord = st.integers(min_value=-30, max_value=30)
triple = st.tuples(coord, coord, coord).filter(any)
multiplier = st.integers(min_value=-4, max_value=4)


@given(triple, triple, triple, multiplier, multiplier, st.booleans(), st.sampled_from(DISPLACEMENTS))
@example((1, 2, 0), (0, 0, 1), (5, 0, 1), 1, 1, True, (1, -1))  # ideal O: sunlight
@example((0, 0, 1), (1, 1, 0), (5, 0, 1), 2, 1, True, (F(3, 2), -7))  # ideal vertex
@example((0, 0, 1), (1, 1, 0), (5, 0, 1), 0, 3, True, (2, 5))  # ideal vertex, shared
@example((1, 2, 0), (3, 1, 1), (5, 0, 1), 0, -2, True, (1, -1))  # ideal O, shared
@example((0, 0, 1), (1, 2, 3), (5, 0, 1), 0, 0, False, (1, -1))  # skew rays
def test_ray_meet_matches_the_pluecker_route(o, x1, x2, lam, mu, on_ray, displacements):
    # X2 is lam O + mu X1 on the ray O-X1, or drawn freely (skew, as a rule)
    O, X1 = Point2(*o), Point2(*x1)
    assume(O != X1)
    if on_ray:
        assume(mu != 0)
        X2 = Point2(*(lam * a + mu * b for a, b in zip(O.coords, X1.coords)))
    else:
        X2 = Point2(*x2)
        assume(O != X2)
    O1, O2 = displaced_centers(O, *displacements)
    assert _ray_meet(O, O1, O2, X1, X2) == reference_meet(O1, O2, X1, X2)


@pytest.mark.parametrize(
    "make, shares",
    [
        (lambda seed: gen_correct_diagram(seed)[1], None),
        (gen_incorrect_diagram, None),
        (lambda seed: gen_degenerate_diagram(seed, kind=DegeneracyKind.TRIANGLE), 3),
        (lambda seed: gen_degenerate_diagram(seed, kind=DegeneracyKind.VERTEX), 3),
    ],
    ids=["correct", "incorrect", "degenerate-triangle", "degenerate-vertex"],
)
def test_certificate_matches_the_pluecker_route_on_generated_diagrams(make, shares):
    for seed in range(40):
        d = make(seed)
        assert_certificate_matches(d)
        # a shared vertex X1 = X2 is where the relation has a = 0
        if shares is not None:
            assert sum(v == w for v, w in zip(d.quad1.vertices, d.quad2.vertices)) == shares


A = Point2.affine
SUN = Point2(1, 2, 0)
BOX = Quadrangle(A(0, 0), A(3, 0), A(3, 2), A(0, 5))


def _slid(quad, center, ts):
    """Each vertex X of quad moved to X + t (center) along its ray, center ideal."""
    return Quadrangle(
        *(A(*(x + t * c for x, c in zip(v.affine_coords, center.coords[:2])))
          for v, t in zip(quad.vertices, ts))
    )


def _stretched(quad, ts):
    """Each vertex of quad scaled by its own factor about the origin."""
    return Quadrangle(*(A(*(t * x for x in v.affine_coords)) for v, t in zip(quad.vertices, ts)))


HAND_BUILT = {
    "sunlight-incorrect": PlanarDiagram(SUN, BOX, _slid(BOX, SUN, (1, 2, -1, 3))),
    "sunlight-translation": PlanarDiagram(SUN, BOX, _slid(BOX, SUN, (2, 2, 2, 2))),
    "ideal-vertex": PlanarDiagram(
        A(0, 0),
        Quadrangle(Point2(1, 1, 0), A(1, 0), A(0, 1), A(3, 1)),
        Quadrangle(A(2, 2), A(2, 0), A(0, -1), A(9, 3)),
    ),
    "ideal-vertex-shared": PlanarDiagram(
        A(0, 0),
        Quadrangle(Point2(1, 1, 0), A(1, 0), A(0, 1), A(3, 1)),
        Quadrangle(Point2(1, 1, 0), A(2, 0), A(0, -1), A(9, 3)),
    ),
    "center-on-a-side": PlanarDiagram(
        A(0, 0),
        Quadrangle(A(-1, -1), A(1, 1), A(2, -1), A(-1, 3)),
        _stretched(Quadrangle(A(-1, -1), A(1, 1), A(2, -1), A(-1, 3)), (2, -1, 3, F(1, 2))),
    ),
}


@pytest.mark.parametrize("name", list(HAND_BUILT))
def test_certificate_matches_the_pluecker_route_in_special_position(name):
    d = HAND_BUILT[name]
    verdict = decide_depiction(d)
    assert verdict.applicable
    assert verdict.correct == (name == "sunlight-translation")
    if name == "center-on-a-side":
        assert "center O lies on side PQ of quadrangle 1" in verdict.notes
    assert_certificate_matches(d)
