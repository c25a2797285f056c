"""Exact incidence kernel for projective geometry over the rationals.

Every geometric element is stored in a canonical homogeneous form: integer
coordinates with greatest common divisor 1 whose first nonzero entry is
positive.  The canonical form is unique per projective element, so equality
of elements is componentwise equality of their coordinate tuples and all
predicates in this package are exact (no tolerances anywhere).

Coordinate conventions
----------------------

Planar points and lines carry three coordinates ``(x0 : x1 : x2)``; the
affine chart used throughout is ``x2 = 1``, so the affine point ``(x, y)``
is ``(x : y : 1)`` and points with ``x2 = 0`` are ideal (at infinity).
Spatial points and planes carry four coordinates ``(x0 : x1 : x2 : x3)``
with affine chart ``x3 = 1``; the affine point ``(x, y, z)`` is
``(x : y : z : 1)``.

The canonical *drawing plane* is ``x2 = 0``, i.e. the plane with
coefficients ``(0 : 0 : 1 : 0)``.  ``embed_drawing`` maps the planar point
``(x0 : x1 : x2)`` to the spatial point ``(x0 : x1 : 0 : x2)``.

Space has points and planes only.  The plane through three points is read
from the 2x2 minors of the first two, taken in the order

    (p01, p02, p03, p23, p31, p12),   p_ij = a_i * b_j - a_j * b_i,

and contracted with the third point; these are the Pluecker coordinates of
the line through a and b, though no line is ever built.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations: fractions is loaded where a non-integer is built
    from fractions import Fraction

#: A coordinate as the constructors take it, spelled as a string so that naming it loads nothing.
Scalar = "int | Fraction"

__all__ = [
    "GeometryError",
    "ZeroVector",
    "CoincidentPoints",
    "CoincidentLines",
    "CollinearPoints",
    "LineInPlane",
    "CenterOnTarget",
    "ProjectingCenter",
    "Point2",
    "Line2",
    "Point3",
    "Plane3",
    "DRAWING_PLANE",
    "normalize",
    "join2",
    "meet2",
    "collinear2",
    "plane_through",
    "collinear3",
    "coplanarity_det",
    "central_project",
    "embed_drawing",
]


class GeometryError(Exception):
    """Base class for all geometric failures raised by this package."""


class ZeroVector(GeometryError):
    """All homogeneous coordinates are zero."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct coincide."""


class CoincidentLines(GeometryError):
    """Two lines that must be distinct coincide."""


class CollinearPoints(GeometryError):
    """Three points that must span a plane are collinear."""


class LineInPlane(GeometryError):
    """A line meant to pierce a plane lies inside it."""


class CenterOnTarget(GeometryError):
    """A projection center lies on the target plane."""


class ProjectingCenter(GeometryError):
    """Attempt to project the center of the projection itself."""


def normalize(coords) -> tuple[int, ...]:
    """Canonical integer form of a homogeneous coordinate sequence.

    Clears denominators with their lcm, divides by the gcd and flips signs
    so the first nonzero entry is positive.  Raises ZeroVector if every
    coordinate is zero.  Floats are rejected: this kernel is exact.

    All-int input, which every construction in the package produces, goes
    straight to the signed gcd; anything else (a Fraction, a bool) is first
    read as Fractions and scaled to integers by the lcm of the denominators.
    """
    for c in coords:
        if type(c) is not int:
            from fractions import Fraction

            fracs = []
            for x in coords:
                if isinstance(x, float):
                    raise TypeError("coordinates must be exact (int or Fraction), not float")
                fracs.append(Fraction(x))
            mult = lcm(*(f.denominator for f in fracs))
            coords = [int(f * mult) for f in fracs]
            break
    g = gcd(*coords)
    if not g:
        raise ZeroVector("all homogeneous coordinates are zero")
    for c in coords:
        if c:
            if c < 0:
                g = -g
            break
    return tuple(coords) if g == 1 else tuple([c // g for c in coords])


def _fmt(coords: tuple[int, ...]) -> str:
    return ":".join(str(c) for c in coords)


class _Record:
    """Frozen record whose fields are its class's own annotations, in order.

    A plain base rather than dataclasses, so that importing the package loads
    neither dataclasses nor the inspect, ast and dis that it imports.
    """

    __post_init__ = None  # a class with a rule for its fields checks them here

    def __init_subclass__(cls) -> None:
        if names := tuple(cls.__annotations__):
            cls._FIELDS, cls._key = names, attrgetter(*names)

    def __init__(self, *args, **kw) -> None:
        if len(args) != len(names := self._FIELDS) or kw:  # by keyword or default
            args += tuple([kw.pop(n, getattr(type(self), n, kw)) for n in names[len(args):]])
            if kw or len(args) != len(names) or id(kw) in map(id, args):  # kw marks a missing one
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        values, i = {}, 0
        for name in names:  # faster than zip for a few fields
            values[name] = args[i]
            i += 1
        self.__dict__.update(values)  # at once: key by key, later reads of the fields are slower
        if self.__post_init__:
            self.__post_init__()

    def __eq__(self, other):  # within one class only, so Point2(1, 2, 3) != Line2(1, 2, 3)
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:  # of the tuple of the fields, which _key gives from two fields up
        return hash(self._key(self) if self._FIELDS[1:] else (self._key(self),))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._FIELDS)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class _Element(_Record):
    """Canonical homogeneous coordinates, three unless a subclass sets _ARITY."""

    coords: tuple[int, ...]
    _ARITY = 3

    def __init__(self, *coords: Scalar):
        if len(coords) != self._ARITY:
            raise TypeError(
                f"{type(self).__name__} takes exactly {self._ARITY} homogeneous coordinates")
        object.__setattr__(self, "coords", normalize(coords))

    def __eq__(self, other):  # the hot path, without the base's key lookups
        return self.coords == other.coords if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({_fmt(self.coords)})"


class Point2(_Element):
    """Point of the projective plane, canonical coordinates (x0 : x1 : x2)."""

    @classmethod
    def affine(cls, x: Scalar, y: Scalar) -> "Point2":
        return cls(x, y, 1)

    @property
    def affine_coords(self) -> tuple[Fraction, Fraction]:
        x0, x1, x2 = self.coords
        if x2 == 0:
            raise ZeroVector(f"ideal point {self!r} has no affine coordinates")
        from fractions import Fraction

        return Fraction(x0, x2), Fraction(x1, x2)


class Line2(_Element):
    """Line of the projective plane; a point x lies on it iff l . x = 0."""

    def contains(self, p: Point2) -> bool:
        l0, l1, l2 = self.coords
        x0, x1, x2 = p.coords
        return l0 * x0 + l1 * x1 + l2 * x2 == 0

    @property
    def is_ideal(self) -> bool:
        """True for the line at infinity x2 = 0."""
        return self.coords[0] == 0 and self.coords[1] == 0


class Point3(_Element):
    """Point of projective space, canonical coordinates (x0 : x1 : x2 : x3)."""

    _ARITY = 4

    @classmethod
    def affine(cls, x: Scalar, y: Scalar, z: Scalar) -> "Point3":
        return cls(x, y, z, 1)


class Plane3(_Element):
    """Plane of projective space; a point x lies on it iff a . x = 0."""

    _ARITY = 4

    def contains(self, p: Point3) -> bool:
        a0, a1, a2, a3 = self.coords
        x0, x1, x2, x3 = p.coords
        return a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3 == 0


def _span(p: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Coefficients of the plane through x and the line with (possibly
    unnormalised) Pluecker coordinates p, not normalised.

    For p the 2x2 minors of a and b these are the signed 3x3 minors of the
    stacked rows a, b, x, expanded along x.  They all vanish exactly when x
    lies on the line, and when p is zero.
    """
    p01, p02, p03, p23, p31, p12 = p
    x0, x1, x2, x3 = x
    return (
        p23 * x1 + p31 * x2 + p12 * x3,
        -p23 * x0 + p03 * x2 - p02 * x3,
        -p31 * x0 - p03 * x1 + p01 * x3,
        -p12 * x0 + p02 * x1 - p01 * x2,
    )


#: The canonical drawing plane x2 = 0.
DRAWING_PLANE = Plane3(0, 0, 1, 0)


def _cross(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _det3(r0: tuple[int, ...], r1: tuple[int, ...], r2: tuple[int, ...]) -> int:
    """Determinant of the 3x3 matrix with rows r0, r1, r2."""
    (a, b, c), (d, e, f), (g, h, i) = r0, r1, r2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def join2(p: Point2, q: Point2) -> Line2:
    """Line through two distinct planar points (cross product)."""
    if p == q:
        raise CoincidentPoints(f"cannot join {p!r} with itself")
    return Line2(*_cross(p.coords, q.coords))


def meet2(l: Line2, m: Line2) -> Point2:
    """Intersection point of two distinct planar lines (cross product)."""
    if l == m:
        raise CoincidentLines(f"cannot intersect {l!r} with itself")
    return Point2(*_cross(l.coords, m.coords))


def collinear2(p: Point2, q: Point2, r: Point2) -> bool:
    """True iff the 3x3 coordinate determinant vanishes.

    A triple with a coincident pair is collinear by this convention, which
    is exactly what perspectivity checks downstream need.
    """
    return _det3(p.coords, q.coords, r.coords) == 0


def _pluecker(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int, int, int, int, int]:
    """Raw 2x2 minors of the stacked raw points a and b, in Pluecker order;
    not normalised, and zero exactly when a and b are proportional."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b1 - a1 * b0,  # p01
        a0 * b2 - a2 * b0,  # p02
        a0 * b3 - a3 * b0,  # p03
        a2 * b3 - a3 * b2,  # p23
        a3 * b1 - a1 * b3,  # p31
        a1 * b2 - a2 * b1,  # p12
    )


def plane_through(a: Point3, b: Point3, c: Point3) -> Plane3:
    """Plane spanned by three non-collinear spatial points.

    Coefficients are the signed 3x3 minors of the stacked 3x4 coordinate
    matrix; a zero vector means the points are collinear (or coincident).
    """
    coeffs = _span(_pluecker(a.coords, b.coords), c.coords)
    if not any(coeffs):
        raise CollinearPoints(f"{a!r}, {b!r}, {c!r} do not span a plane")
    return Plane3(*coeffs)


def collinear3(a: Point3, b: Point3, c: Point3) -> bool:
    """Spatial collinearity; coincident pairs count as collinear.

    The three are collinear exactly when they span no plane.
    """
    return not any(_span(_pluecker(a.coords, b.coords), c.coords))


def coplanarity_det(a: Point3, b: Point3, c: Point3, d: Point3) -> int:
    """4x4 determinant of the canonical coordinates of four points.

    Zero exactly when the points are coplanar.  Because canonical forms are
    unique, the integer value itself is deterministic and can serve as a
    certificate of non-planarity.  Expanded along d's row, it is minus the
    dot product of d with the unnormalised plane coefficients of a, b, c.
    """
    p0, p1, p2, p3 = _span(_pluecker(a.coords, b.coords), c.coords)
    x0, x1, x2, x3 = d.coords
    return -(p0 * x0 + p1 * x1 + p2 * x2 + p3 * x3)


def central_project(center: Point3, target: Plane3, x: Point3) -> Point3:
    """Image of x on the target plane as seen from the center.

    Points already on the target are fixed.  The center must be off the
    target plane and x must differ from it.  For a target with coefficients
    a the image (a.c) x - (a.x) c is on the line cx and the target, and 0 at c.
    """
    a0, a1, a2, a3 = target.coords
    c0, c1, c2, c3 = center.coords
    pc = a0 * c0 + a1 * c1 + a2 * c2 + a3 * c3
    if not pc:
        raise CenterOnTarget(f"projection center {center!r} lies on {target!r}")
    x0, x1, x2, x3 = x.coords
    px = a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3
    image = (pc * x0 - px * c0, pc * x1 - px * c1, pc * x2 - px * c2, pc * x3 - px * c3)
    if not any(image):
        raise ProjectingCenter(f"cannot project the center {center!r} itself")
    return Point3(*image)


def embed_drawing(p: Point2) -> Point3:
    """Embed a planar point into the drawing plane x2 = 0 in space."""
    x0, x1, x2 = p.coords
    return Point3(x0, x1, 0, x2)

