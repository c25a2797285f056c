"""Spatial lines in Pluecker coordinates: the reference route for the tests.

The package meets and pierces in space from points, planes and raw minors
only.  The tests judge those closed forms against the general route kept
here: a ``Line3`` built from two points, pierced with a plane or met with a
second line.  Lines use the kernel's minor order

    (p01, p02, p03, p23, p31, p12),   p_ij = a_i * b_j - a_j * b_i,

in which the Grassmann-Pluecker relation reads
p01 * p23 + p02 * p31 + p03 * p12 = 0, and two lines p, q are coplanar
exactly when p01*q23 + p02*q31 + p03*q12 + p23*q01 + p31*q02 + p12*q03
vanishes.
"""

from quadshadow.kernel import (
    CoincidentLines,
    CoincidentPoints,
    GeometryError,
    LineInPlane,
    Plane3,
    Point3,
    Scalar,
    _Element,
    _fmt,
    _pluecker,
    _span,
)


class PlueckerViolation(GeometryError):
    """Six coordinates that do not satisfy the Grassmann-Pluecker relation."""


class Line3(_Element):
    """Spatial line in Pluecker coordinates (p01, p02, p03, p23, p31, p12).

    The constructor enforces the Grassmann-Pluecker relation
    p01*p23 + p02*p31 + p03*p12 = 0, which characterises the six-tuples
    that actually describe lines.
    """

    _ARITY = 6

    def __init__(self, *pluecker: Scalar):
        super().__init__(*pluecker)
        p01, p02, p03, p23, p31, p12 = self.coords
        if p01 * p23 + p02 * p31 + p03 * p12 != 0:
            raise PlueckerViolation(
                f"({_fmt(self.coords)}) violates the Grassmann-Pluecker relation"
            )

    pluecker = property(lambda self: self.coords, doc="The canonical Pluecker coordinates.")

    def contains(self, x: Point3) -> bool:
        """Incidence test: all 3x3 minors of the stacked matrix vanish."""
        return not any(_span(self.coords, x.coords))


_BASIS3 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def line3_through(a: Point3, b: Point3) -> Line3:
    """Pluecker line through two distinct spatial points."""
    if a == b:
        raise CoincidentPoints(f"cannot join {a!r} with itself")
    return Line3(*_pluecker(a, b))


def _pierce(p: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Raw Pluecker-matrix product P . a (zero vector iff line lies in plane).

    It is the dual of _span: the same product with (p01, p02, p03) and
    (p23, p31, p12) swapped.
    """
    return _span((*p[3:], *p[:3]), a)


def meet_line_plane(line: Line3, plane: Plane3) -> Point3:
    """Unique intersection point of a line with a plane not containing it."""
    x = _pierce(line.coords, plane.coords)
    if not any(x):
        raise LineInPlane(f"{line!r} lies inside {plane!r}")
    return Point3(*x)


def meet_lines3(l1: Line3, l2: Line3) -> Point3 | None:
    """Common point of two coplanar spatial lines, or None when skew.

    The reciprocal bilinear form decides coplanarity.  For coplanar
    distinct lines the common point is found by cutting l2 with a plane
    through l1 that differs from the common plane; some coordinate basis
    point off l1 always spans such a plane with it.
    """
    if l1 == l2:
        raise CoincidentLines(f"cannot intersect {l1!r} with itself")
    p = l1.coords
    q = l2.coords
    form = p[0] * q[3] + p[1] * q[4] + p[2] * q[5] + p[3] * q[0] + p[4] * q[1] + p[5] * q[2]
    if form != 0:
        return None
    # Basis points on l1 span no plane; the others cannot all span the one plane holding l2.
    planes = (_span(p, z) for z in _BASIS3)
    points = (_pierce(q, plane) for plane in planes if any(plane))
    return Point3(*next(x for x in points if any(x)))
