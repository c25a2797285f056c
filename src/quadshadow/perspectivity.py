"""Perspectivities from a point, Desargues axes, perspective collineations.

Two figures are perspective from a center O when every pair of homologous
points is collinear with O; a coincident homologous pair counts as
perspective, which keeps all checks total.  For triangles, Desargues'
theorem makes point-perspectivity equivalent to the collinearity of the
three homologous side intersections, and the line carrying them is the
Desargues axis.

For two labeled quadrangles, dropping one vertex leaves a triangle;
dropping S, R, Q, P in turn yields four axes named s, r, q, p, built from
the six homologous side intersections:

    s:  QR.QR'   RP.RP'   PQ.PQ'
    r:  PQ.PQ'   SQ.SQ'   SP.SP'
    q:  SP.SP'   RP.RP'   SR.SR'
    p:  SR.SR'   SQ.SQ'   QR.QR'

(primes denote the second quadrangle).  Each of the six intersections
appears on exactly two of the four axes, so the axes agree pairwise in at
least one point; when all four are one line, that line is the common axis.
"""

from __future__ import annotations

from .kernel import (
    GeometryError,
    Line2,
    Point2,
    _cross,
    _det3,
    _Record,
    collinear2,
    join2,
    meet2,
    normalize,
)
from .quadrangle import Quadrangle, _Labeled, sides

__all__ = [
    "CenterIsVertex",
    "HomologousSidesEqual",
    "NotPerspective",
    "NoCommonAxis",
    "InvalidPair",
    "AXIS_SIDES",
    "SideAxes",
    "Collineation",
    "triangles_perspective_point",
    "perspective_center",
    "desargues_axis",
    "side_axes",
    "common_axis",
    "general_position",
    "perspective_collineation",
]

Triple = tuple[Point2, Point2, Point2]


class CenterIsVertex(GeometryError):
    """The proposed center coincides with a vertex of a figure."""


class HomologousSidesEqual(GeometryError):
    """A pair of homologous sides coincides, so their meet is undefined."""


class NotPerspective(GeometryError):
    """Homologous side intersections are not collinear (no axis exists)."""


class NoCommonAxis(GeometryError):
    """The four quadrangle axes s, r, q, p are not all the same line."""


class InvalidPair(GeometryError):
    """A point pair unusable for defining a perspective collineation."""


def triangles_perspective_point(center: Point2, t1: Triple, t2: Triple) -> bool:
    """All three labeled vertex pairs perspective from the center."""
    for t in (t1, t2):
        if center in t:
            raise CenterIsVertex(f"center {center!r} is a triangle vertex")
    return all(collinear2(center, a, b) for a, b in zip(t1, t2))


def perspective_center(t1: Triple, t2: Triple) -> Point2:
    """The unique center two point-perspective triangles share.

    Intersects two distinct homologous joins and verifies the third pair
    against the candidate.  Raises NotPerspective when no common center
    exists, ValueError when the center is not uniquely determined (fewer
    than two distinct joins).
    """
    joins = [join2(a, b) for a, b in zip(t1, t2) if a != b]
    if len(joins) < 2:
        raise ValueError("perspective center undetermined: too few distinct pairs")
    second = next((j for j in joins[1:] if j != joins[0]), None)
    if second is None:
        raise ValueError("perspective center undetermined: homologous joins coincide")
    center = meet2(joins[0], second)
    for a, b in zip(t1, t2):
        if not collinear2(center, a, b):
            raise NotPerspective(f"pair {a!r}, {b!r} misses candidate center {center!r}")
    return center


def _triangle_sides(t: Triple) -> dict[str, Line2]:
    """Sides a, b, c, facing the first, second and third vertex."""
    x, y, z = t
    return {"a": join2(y, z), "b": join2(z, x), "c": join2(x, y)}


def _homologous_meets(sides1: dict, sides2: dict) -> dict[str, Point2]:
    """Meet each pair of homologous sides, keyed by label.

    Raises HomologousSidesEqual on a coincident pair, which has no meet.
    """
    meets = {}
    for lab, a in sides1.items():
        if a == sides2[lab]:
            raise HomologousSidesEqual(f"homologous sides {lab} coincide at {a!r}")
        meets[lab] = meet2(a, sides2[lab])
    return meets


def _line_through_all(points: list[Point2]) -> Line2:
    """Join of three collinear points, at least two of them distinct."""
    if not collinear2(*points):
        raise NotPerspective(
            f"side intersections {points[0]!r}, {points[1]!r}, {points[2]!r} "
            "are not collinear"
        )
    first = points[0]
    other = next((p for p in points[1:] if p != first), None)
    if other is None:
        raise NotPerspective("side intersections all coincide; axis undetermined")
    return join2(first, other)


def desargues_axis(t1: Triple, t2: Triple) -> Line2:
    """Axis of two point-perspective triangles.

    Needs the three homologous side pairs distinct; raises NotPerspective
    when the three intersections fail to be collinear, which by the
    converse of Desargues' theorem means no perspectivity center exists.
    """
    meets = _homologous_meets(_triangle_sides(t1), _triangle_sides(t2))
    return _line_through_all(list(meets.values()))


#: Defining side labels for each of the four axes.
AXIS_SIDES = {
    "s": ("QR", "RP", "PQ"),
    "r": ("PQ", "SQ", "SP"),
    "q": ("SP", "RP", "SR"),
    "p": ("SR", "SQ", "QR"),
}


class SideAxes(_Labeled):
    """The four Desargues axes of a quadrangle pair plus the six meets."""

    s: Line2
    r: Line2
    q: Line2
    p: Line2
    meets: dict[str, Point2]

    _LABELS = tuple(AXIS_SIDES)


def side_axes(q1: Quadrangle, q2: Quadrangle) -> SideAxes:
    """Compute s, r, q, p from the six homologous side intersections.  q1 keeps
    them for this partner object, not for an equal one; a failure is not kept.
    So common_axis, lift_via_axis and render share one computation."""
    kept = getattr(q1, "_kept_axes", None)
    if kept is not None and kept[0] is q2:
        return kept[1]
    meets = _homologous_meets(sides(q1).labeled(), sides(q2).labeled())
    axes = {
        name: _line_through_all([meets[lab] for lab in labs])
        for name, labs in AXIS_SIDES.items()
    }
    result = SideAxes(*axes.values(), meets)
    object.__setattr__(q1, "_kept_axes", (q2, result))
    return result


def _common_axis(axes: SideAxes) -> Line2:
    if not (axes.s == axes.r == axes.q == axes.p):
        raise NoCommonAxis(
            f"axes differ: s={axes.s!r} r={axes.r!r} q={axes.q!r} p={axes.p!r}"
        )
    return axes.s


def common_axis(q1: Quadrangle, q2: Quadrangle) -> Line2:
    """The single line carrying all four axes, when it exists."""
    return _common_axis(side_axes(q1, q2))


def general_position(q1: Quadrangle, q2: Quadrangle) -> bool:
    """All six homologous side pairs distinct and their meets pairwise distinct.

    Never raises; a coincident side pair simply yields False.
    """
    try:
        meets = _homologous_meets(sides(q1).labeled(), sides(q2).labeled())
    except HomologousSidesEqual:
        return False
    return len(set(meets.values())) == len(meets)


class Collineation(_Record):
    """Projective transformation of the plane, canonical 3x3 integer matrix.

    Acts on points by matrix multiplication.
    """

    matrix: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]

    def __init__(self, rows) -> None:
        entries = [e for row in rows for e in row]
        if len(entries) != 9:
            raise TypeError("Collineation takes a 3x3 matrix")
        flat = normalize(entries)
        m = (flat[0:3], flat[3:6], flat[6:9])
        if _det3(*m) == 0:
            raise ValueError("collineation matrix is singular")
        object.__setattr__(self, "matrix", m)

    def apply(self, p: Point2) -> Point2:
        return Point2(*(sum(r * c for r, c in zip(row, p.coords)) for row in self.matrix))


def perspective_collineation(
    center: Point2, axis: Line2, pair: tuple[Point2, Point2]
) -> Collineation:
    """The collineation with the given center and axis mapping pair[0] to pair[1].

    Fixes the axis pointwise and every line through the center.  Both pair
    points must be off the axis, distinct from the center, and collinear
    with it; an equal pair yields the identity.  The matrix is
    I + k * center * axis^T with the multiplier k solved from the pair.
    k is never formed: the rows are scaled by its denominator, so they
    stay integer (the fraction-free pattern of Bareiss).
    """
    x0, x1 = pair
    if axis.contains(x0) or axis.contains(x1):
        raise InvalidPair("pair points must be off the axis")
    if x0 == center or x1 == center:
        raise InvalidPair("pair points must differ from the center")
    if not collinear2(center, x0, x1):
        raise InvalidPair("pair points must be collinear with the center")

    c = center.coords
    a = axis.coords
    # x1 ~ alpha*x0 + beta*c.  Dotting the crosses with n = x0 x c, nonzero as
    # x0 != center, gives alpha and beta times n.n; alpha != 0 as x1 != center.
    n = _cross(x0.coords, c)
    alpha = _det3(x1.coords, c, n)  # (x1 x c).n
    beta = _det3(x0.coords, x1.coords, n)  # (x0 x x1).n

    # (I + k c a^T) * alpha * (a.x0), with k = beta / (alpha * (a.x0)).
    scale = alpha * sum(ai * vi for ai, vi in zip(a, x0.coords))
    rows = tuple(
        tuple((scale if r == s else 0) + beta * c[r] * a[s] for s in range(3))
        for r in range(3)
    )
    return Collineation(rows)
