"""Kernel tests: canonical form, incidence, meets, joins, projection.

Derived expected values are checked against the independent oracles of
tests/textbook.py, plain int and Fraction arithmetic (cross products, the
explicit parametric line meet), rather than the kernel's own formulas.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, strategies as st

from quadshadow.kernel import (
    DRAWING_PLANE,
    CenterOnTarget,
    CoincidentLines,
    CoincidentPoints,
    CollinearPoints,
    GeometryError,
    Line2,
    LineInPlane,
    Plane3,
    Point2,
    Point3,
    ProjectingCenter,
    ZeroVector,
    central_project,
    collinear2,
    collinear3,
    coplanarity_det,
    embed_drawing,
    join2,
    meet2,
    normalize,
    plane_through,
)

from pluecker_oracle import (
    Line3,
    PlueckerViolation,
    line3_through,
    meet_line_plane,
    meet_lines3,
)
from textbook import cross, det3, det4, dot, line_meet


# --- normalize ---------------------------------------------------------

def test_normalize_reduces_and_fixes_sign():
    assert normalize((2, -4, 6)) == (1, -2, 3)
    assert normalize((0, -3, 0)) == (0, 1, 0)


def test_normalize_clears_fractions():
    assert normalize((F(1, 2), F(1, 3), 0)) == (3, 2, 0)


def test_normalize_rejects_floats():
    with pytest.raises(TypeError):
        normalize((1.0, 2.0, 3.0))


def test_point_equality_is_projective():
    assert Point2(2, 4, 6) == Point2(1, 2, 3)
    assert Point2(-1, -2, -3) == Point2(1, 2, 3)
    assert Point2(F(1, 2), 1, F(3, 2)) == Point2(1, 2, 3)
    assert Point2(1, 2, 3) != Point2(1, 2, 4)


# --- planar joins and meets --------------------------------------------

def test_join2_frozen_values():
    assert join2(Point2(1, 0, 0), Point2(0, 1, 0)) == Line2(0, 0, 1)
    assert join2(Point2(1, 1, 1), Point2(1, 0, 0)) == Line2(0, 1, -1)


def test_join2_matches_cross_product_oracle():
    a, b = (3, -2, 5), (1, 4, -1)
    expected = cross(a, b)
    assert join2(Point2(*a), Point2(*b)) == Line2(*expected)


def test_join2_coincident_points():
    with pytest.raises(CoincidentPoints):
        join2(Point2(1, 2, 3), Point2(2, 4, 6))


def test_meet2_frozen_values():
    assert meet2(Line2(0, 0, 1), Line2(0, 1, 0)) == Point2(1, 0, 0)
    assert meet2(Line2(1, 0, -1), Line2(1, 0, 1)) == Point2(0, 1, 0)


def test_meet2_coincident_lines():
    with pytest.raises(CoincidentLines):
        meet2(Line2(1, 0, -1), Line2(-2, 0, 2))


def test_parallel_lines_meet_at_ideal_point():
    p = meet2(Line2(1, 1, 0), Line2(1, 1, -4))
    assert p.coords[2] == 0
    assert p == Point2(1, -1, 0)


def test_incidence_after_join_and_meet():
    a, b = Point2(2, 3, 1), Point2(-1, 4, 5)
    line = join2(a, b)
    assert line.contains(a) and line.contains(b)
    other = Line2(1, 0, 0)
    p = meet2(line, other)
    assert line.contains(p) and other.contains(p)


def test_collinear2_matches_determinant_oracle():
    pts = (Point2(1, 2, 1), Point2(3, 4, 1), Point2(5, 6, 1))
    assert collinear2(*pts) == (det3(*(p.coords for p in pts)) == 0)
    assert collinear2(Point2(0, 0, 1), Point2(1, 1, 1), Point2(2, 2, 1))


def test_collinear2_coincident_pair_counts():
    a = Point2(1, 2, 3)
    assert collinear2(a, a, Point2(7, 1, 2))


def test_ideal_point_has_no_affine_coordinates():
    with pytest.raises(ZeroVector, match=r"^ideal point Point2\(1:0:0\) has no affine "):
        Point2(1, 0, 0).affine_coords


@pytest.mark.parametrize(
    "cls, coords, text",
    [
        (Point2, (1, 2), "Point2 takes exactly 3 homogeneous coordinates"),
        (Line3, (1, 0, 0, 0, 0), "Line3 takes exactly 6 homogeneous coordinates"),
    ],
)
def test_elements_reject_a_wrong_number_of_coordinates(cls, coords, text):
    with pytest.raises(TypeError, match=f"^{text}$"):
        cls(*coords)


# --- spatial lines and planes ------------------------------------------

def test_line3_frozen_values():
    z_axis = line3_through(Point3(0, 0, 0, 1), Point3(0, 0, 1, 1))
    assert z_axis.pluecker == (0, 0, 0, 1, 0, 0)
    ideal = line3_through(Point3(1, 0, 0, 0), Point3(0, 1, 0, 0))
    assert ideal.pluecker == (1, 0, 0, 0, 0, 0)


def test_line3_contains_both_generators():
    a, b = Point3(1, 2, 3, 1), Point3(-2, 0, 5, 3)
    line = line3_through(a, b)
    assert line.contains(a) and line.contains(b)
    # a third combination of the generators also lies on it
    combo = Point3(*(2 * x + 5 * y for x, y in zip(a.coords, b.coords)))
    assert line.contains(combo)


def test_line3_rejects_invalid_pluecker():
    with pytest.raises(PlueckerViolation):
        Line3(1, 1, 1, 1, 1, 1)


def test_line3_is_a_canonical_element():
    line = Line3(0, 0, 0, -2, 0, F(0))
    assert line.coords == line.pluecker == (0, 0, 0, 1, 0, 0)
    assert line == Line3(0, 0, 0, 1, 0, 0) and hash(line) == hash(((0, 0, 0, 1, 0, 0),))
    assert repr(line) == "Line3(0:0:0:1:0:0)"
    with pytest.raises(AttributeError):
        line.pluecker = (1, 0, 0, 0, 0, 0)


def test_plane_through_frozen_values():
    plane = plane_through(Point3(1, 0, 0, 0), Point3(0, 1, 0, 0), Point3(0, 0, 0, 1))
    assert plane == DRAWING_PLANE
    lifted = plane_through(
        Point3(1, 4, -1, 3), Point3(-7, 4, -1, 3), Point3(-7, -4, -1, 3)
    )
    assert lifted == Plane3(0, 0, 3, 1)


def test_plane_through_contains_all_three():
    pts = (Point3(1, 2, 3, 1), Point3(0, -1, 4, 1), Point3(2, 2, 2, 1))
    plane = plane_through(*pts)
    for p in pts:
        assert plane.contains(p)


def test_plane_through_collinear_points():
    with pytest.raises(CollinearPoints):
        plane_through(Point3(0, 0, 0, 1), Point3(1, 0, 0, 1), Point3(2, 0, 0, 1))


def test_meet_line_plane_frozen_value():
    z_axis = line3_through(Point3(0, 0, 0, 1), Point3(0, 0, 1, 1))
    assert meet_line_plane(z_axis, DRAWING_PLANE) == Point3(0, 0, 0, 1)


def test_meet_line_plane_line_in_plane():
    line = line3_through(Point3(0, 0, 0, 1), Point3(1, 0, 0, 1))
    with pytest.raises(LineInPlane):
        meet_line_plane(line, DRAWING_PLANE)


def test_meet_line_plane_incidence():
    line = line3_through(Point3(1, 1, 1, 1), Point3(2, -1, 3, 1))
    plane = Plane3(1, 2, 3, -4)
    x = meet_line_plane(line, plane)
    assert plane.contains(x) and line.contains(x)


def sparse_points(seed, n):
    """n seeded spatial points, most coordinates 0 or +-1."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        x = [rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(4)]
        if any(x):
            out.append(Point3(*x))
    return out


def test_spatial_incidence_outputs_are_frozen():
    # sha256 of every spatial join, meet and incidence test over seeded points
    # with many zero coordinates, errors by class name
    def outcome(fn, *args):
        try:
            return repr(fn(*args))
        except GeometryError as e:
            return type(e).__name__

    digest = hashlib.sha256()
    points = sparse_points(7, 200)
    for a, b, c, d in zip(points[0::4], points[1::4], points[2::4], points[3::4]):
        digest.update(
            f"{collinear3(a, b, c)} {coplanarity_det(a, b, c, d)} "
            f"{outcome(plane_through, a, b, c)}\n".encode()
        )
        if a == b or c == d:
            continue
        l, m = line3_through(a, b), line3_through(c, d)
        digest.update(
            f"{l.contains(c)} {l.contains(d)} "
            f"{outcome(meet_lines3, l, m)}\n".encode()
        )
        for plane in (Plane3(*c.coords), DRAWING_PLANE):
            digest.update(f"{outcome(meet_line_plane, l, plane)}\n".encode())
    assert digest.hexdigest() == (
        "b8971ee978a991410bebdb6b205ac17c01938f04906474626954259758880fef"
    )


# --- meets of spatial lines --------------------------------------------

def test_meet_lines3_frozen_value_with_parametric_oracle():
    # the two projection rays of the lifted-square example
    p0, q0 = (F(3), F(0), F(1)), (F(1), F(-1), F(0))
    p1, q1 = (F(3), F(0), F(-1)), (F(-1), F(-2), F(0))
    t, u = line_meet(p0, q0, p1, q1)
    assert (t, u) == (F(4, 3), F(2, 3))
    d0 = tuple(b - a for a, b in zip(p0, q0))
    d1 = tuple(b - a for a, b in zip(p1, q1))
    oracle = tuple(a + t * d for a, d in zip(p0, d0))
    assert all(
        a + t * d == b + u * e for a, d, b, e in zip(p0, d0, p1, d1)
    )

    l0 = line3_through(Point3.affine(*p0), Point3.affine(*q0))
    l1 = line3_through(Point3.affine(*p1), Point3.affine(*q1))
    got = meet_lines3(l0, l1)
    assert got == Point3.affine(*oracle)
    assert got == Point3(1, -4, -1, 3)


def test_meet_lines3_skew_returns_none():
    z_axis = line3_through(Point3(0, 0, 0, 1), Point3(0, 0, 1, 1))
    skew = line3_through(Point3(1, 0, 0, 1), Point3(1, 1, 0, 1))
    assert meet_lines3(z_axis, skew) is None


def test_meet_lines3_parallel_lines_meet_at_infinity():
    # parallel spatial lines are coplanar; their meet is the shared
    # ideal direction, not a skew failure
    a = line3_through(Point3(1, 0, 0, 1), Point3(1, 0, 1, 1))
    b = line3_through(Point3(0, 1, 0, 1), Point3(0, 1, 1, 1))
    assert meet_lines3(a, b) == Point3(0, 0, 1, 0)


def test_meet_lines3_coincident():
    a = line3_through(Point3(0, 0, 0, 1), Point3(1, 1, 1, 1))
    b = line3_through(Point3(2, 2, 2, 1), Point3(3, 3, 3, 1))
    with pytest.raises(CoincidentLines):
        meet_lines3(a, b)


def test_meet_lines3_incidence():
    a = line3_through(Point3(0, 0, 0, 1), Point3(1, 2, 3, 1))
    b = line3_through(Point3(0, 0, 0, 1), Point3(-1, 1, 1, 1))
    assert meet_lines3(a, b) == Point3(0, 0, 0, 1)


def test_collinear3_and_coplanarity():
    a, b = Point3(1, 1, 1, 1), Point3(2, 3, 4, 1)
    mid = Point3(3, 4, 5, 2)
    assert collinear3(a, b, mid)
    assert not collinear3(a, b, Point3(0, 0, 1, 1))
    pts = (a, b, Point3(0, 0, 1, 1), Point3(5, 1, -2, 1))
    square = coplanarity_det(*pts)
    assert isinstance(square, int)
    assert square == det4(*(p.coords for p in pts))


# --- central projection and the drawing plane --------------------------

def test_central_project_frozen_value():
    image = central_project(Point3(3, 0, 1, 1), DRAWING_PLANE, Point3(1, -4, -1, 3))
    assert image == Point3(1, -1, 0, 1)


def test_central_project_parametric_oracle():
    # X = C + t (P - C) with the target coordinate driven to zero
    c = (F(3), F(0), F(1))
    p = (F(1, 3), F(-4, 3), F(-1, 3))
    t = F(c[2], c[2] - p[2])  # z-component vanishes
    assert t == F(3, 4)
    oracle = tuple(ci + t * (pi - ci) for ci, pi in zip(c, p))
    assert central_project(
        Point3.affine(*c), DRAWING_PLANE, Point3.affine(*p)
    ) == Point3.affine(*oracle)


def test_central_project_fixes_target_points():
    on_plane = Point3(4, 5, 0, 1)
    assert central_project(Point3(1, 1, 1, 1), DRAWING_PLANE, on_plane) == on_plane


def test_central_project_center_errors():
    with pytest.raises(CenterOnTarget):
        central_project(Point3(1, 1, 0, 1), DRAWING_PLANE, Point3(0, 0, 1, 1))
    with pytest.raises(ProjectingCenter):
        central_project(Point3(1, 1, 1, 1), DRAWING_PLANE, Point3(1, 1, 1, 1))


def test_embed_and_chart_drawing():
    p = Point2(3, -5, 2)
    lifted = embed_drawing(p)
    assert lifted.coords == (3, -5, 0, 2)
    assert DRAWING_PLANE.contains(lifted)
    # the drawing plane's chart drops x2
    assert Point2(*lifted.coords[:2], lifted.coords[3]) == p


def test_embed_preserves_ideal_points():
    ideal = Point2(2, -3, 0)
    lifted = embed_drawing(ideal)
    assert lifted == Point3(2, -3, 0, 0)


# --- closed forms against the Pluecker route ---------------------------
#
# central_project, collinear3 and the planar and spatial dot-product
# incidence tests are computed in closed form.  Each is compared with the
# general route it replaced, kept here as the reference, on drawn input
# and on special positions: ideal points, a target other than the drawing
# plane, points on the target, coordinates near 2**1000.

HUGE = 2**1000
small = st.integers(min_value=-20, max_value=20)
coord = st.one_of(small, small.map(lambda n: n + HUGE), small.map(lambda n: n - HUGE))
vec3 = st.tuples(coord, coord, coord).filter(any)
vec4 = st.tuples(coord, coord, coord, coord).filter(any)


def outcome(fn, *args):
    """fn(*args), or the class of the GeometryError it raises."""
    try:
        return fn(*args)
    except GeometryError as e:
        return type(e)


def on_plane(a, x):
    """x moved onto the plane a along the basis direction of a's first
    nonzero coefficient: a_k x - (a . x) e_k."""
    k = next(i for i, c in enumerate(a) if c)
    return tuple(a[k] * c - (dot(a, x) if i == k else 0) for i, c in enumerate(x))


def pluecker_project(center, target, x):
    """The central projection by a Pluecker line pierced with the target."""
    if dot(target.coords, center.coords) == 0:
        raise CenterOnTarget("center on target")
    if x == center:
        raise ProjectingCenter("projecting the center")
    return meet_line_plane(line3_through(center, x), target)


def pluecker_collinear(a, b, c):
    if a == b or a == c or b == c:
        return True
    return line3_through(a, b).contains(c)


def signed_minors(a, b, c):
    """Signed 3x3 minors of the stacked 3x4 coordinate matrix: the
    coefficients of the plane through a, b, c, all zero when collinear."""
    rows = (a.coords, b.coords, c.coords)
    return tuple((-1) ** k * det3(*(r[:k] + r[k + 1 :] for r in rows)) for k in range(4))


@given(vec4, vec4, vec4, st.sampled_from(["free", "center", "on-target"]))
@example((1, 2, 3, 0), (0, 0, 1, 0), (1, 1, 1, 1), "free")  # ideal center: sunlight
@example((1, 1, 1, 1), (0, 0, 1, 0), (1, -1, 2, 0), "free")  # ideal x
@example((3, 0, 1, 1), (0, 0, 1, 0), (4, 5, 0, 1), "free")  # x on the target
@example((3, 0, 1, 1), (1, 2, -1, 3), (1, -4, -1, 3), "free")  # not the drawing plane
@example((3, 0, 1, 1), (1, 2, -1, 3), (1, -4, -1, 3), "on-target")
@example((HUGE, 1, 1 - HUGE, 1), (1, HUGE, 1, -HUGE), (HUGE + 1, -HUGE, 2, 1), "free")
@example((1, 1, 0, 1), (0, 0, 1, 0), (1, 1, 0, 1), "center")  # both errors apply
@example((1, 1, 1, 1), (0, 0, 1, 0), (0, 0, 1, 1), "center")
def test_central_project_matches_the_pluecker_route(c, a, x, where):
    center, target = Point3(*c), Plane3(*a)
    if where == "center":
        point = center
    elif where == "on-target":
        moved = on_plane(a, x)
        assume(any(moved))
        point = Point3(*moved)
    else:
        point = Point3(*x)
    expected = outcome(pluecker_project, center, target, point)
    assert outcome(central_project, center, target, point) == expected
    if where == "on-target" and expected is not CenterOnTarget:
        assert expected == point


def test_central_project_checks_the_center_before_the_point():
    on_target = Point3(1, 1, 0, 1)
    with pytest.raises(CenterOnTarget):
        central_project(on_target, DRAWING_PLANE, on_target)


@given(vec4, vec4, vec4, small, small, st.sampled_from(["free", "on-line", "a=b", "c=a"]))
# three points in the coordinate plane x_k = 0, not collinear: only the
# minor that omits column k tells them apart (x3 = 0: the ideal plane)
@example((0, 1, 2, 3), (0, 2, -1, 1), (0, 1, 1, -4), 0, 0, "free")
@example((1, 0, 2, 3), (2, 0, -1, 1), (1, 0, 1, -4), 0, 0, "free")
@example((1, 2, 0, 3), (2, -1, 0, 1), (1, 1, 0, -4), 0, 0, "free")
@example((1, 2, 3, 0), (2, -1, 1, 0), (1, 1, -4, 0), 0, 0, "free")
@example((1, 2, 3, 0), (2, -1, 1, 0), (1, 1, -4, 0), 3, -2, "on-line")  # on the ideal line
@example((HUGE, 1, 1 - HUGE, 1), (1, HUGE, 1, -HUGE), (0, 0, 1, 0), 1, 1, "on-line")
@example(
    (HUGE, 1, 1 - HUGE, 1), (1, HUGE, 1, -HUGE), (HUGE + 1, HUGE + 1, 2, 1 - HUGE), 0, 0, "free"
)
@example((1, 2, 3, 4), (1, 2, 3, 4), (5, 6, 7, 8), 0, 0, "a=b")
@example((1, 2, 3, 4), (5, 6, 7, 8), (0, 0, 0, 1), 0, 0, "c=a")
def test_collinear3_matches_the_pluecker_route(a, b, c, lam, mu, where):
    A, B, C = Point3(*a), Point3(*b), Point3(*c)
    if where == "on-line":
        combo = tuple(lam * x + mu * y for x, y in zip(A.coords, B.coords))
        assume(any(combo))
        C = Point3(*combo)
    elif where == "a=b":
        B = A
    elif where == "c=a":
        C = A
    expected = pluecker_collinear(A, B, C)
    minors = signed_minors(A, B, C)
    assert collinear3(A, B, C) == expected == (not any(minors))
    if where != "free":
        assert expected
    elif not expected:
        assert plane_through(A, B, C) == Plane3(*minors)


@given(vec3, vec3, st.booleans())
@example((0, 0, 1), (1, 2, 0), False)  # the line at infinity and an ideal point
@example((0, 0, 1), (1, 2, 3), True)
@example((HUGE, 1, -HUGE), (HUGE + 1, 2, 1), True)
@example((HUGE, 1, -HUGE), (HUGE + 1, 2, 1), False)
def test_line2_contains_matches_the_dot_product(l, p, on):
    line = Line2(*l)
    if on:
        meet = cross(line.coords, p)
        assume(any(meet))
        p = meet
    point = Point2(*p)
    assert line.contains(point) == (dot(line.coords, point.coords) == 0)
    if on:
        assert line.contains(point)


@given(vec4, vec4, st.booleans())
@example((0, 0, 1, 0), (1, -1, 2, 0), False)  # drawing plane, ideal point
@example((0, 0, 0, 1), (1, -1, 2, 0), False)  # ideal plane
@example((1, 2, -1, 3), (1, -4, -1, 3), True)
@example((1, HUGE, 1, -HUGE), (HUGE + 1, -HUGE, 2, 1), True)
@example((1, HUGE, 1, -HUGE), (HUGE + 1, -HUGE, 2, 1), False)
def test_plane3_contains_matches_the_dot_product(a, x, on):
    plane = Plane3(*a)
    if on:
        x = on_plane(plane.coords, x)
        assume(any(x))
    point = Point3(*x)
    assert plane.contains(point) == (dot(plane.coords, point.coords) == 0)
    if on:
        assert plane.contains(point)
