"""Complete quadrangles: labeled vertices, sides, diagonal points, traces.

A complete quadrangle is four points P, Q, R, S of the projective plane,
no three collinear.  Its six sides are the joins of vertex pairs, labeled
QR, RP, PQ, SP, SQ, SR; sides are *opposite* when they share no vertex,
giving the three pairs {QR, SP}, {RP, SQ}, {PQ, SR}.  Opposite sides meet
in the diagonal points

    A = SP . QR,    B = SQ . RP,    C = SR . PQ,

which over the rationals always form a genuine triangle.  Labels matter
throughout this package: quadrangles are compared label by label.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from operator import attrgetter

from .kernel import GeometryError, Line2, Point2, _cross, _Record, meet2

__all__ = [
    "VERTEX_LABELS",
    "SIDE_LABELS",
    "OPPOSITE_SIDES",
    "RepeatedVertex",
    "CollinearTriple",
    "LineThroughVertex",
    "Quadrangle",
    "SideSet",
    "DiagonalTriangle",
    "QuadrangularTrace",
    "sides",
    "diagonal_triangle",
    "quadrangular_trace",
]

VERTEX_LABELS = ("P", "Q", "R", "S")
SIDE_LABELS = ("QR", "RP", "PQ", "SP", "SQ", "SR")
OPPOSITE_SIDES = (("QR", "SP"), ("RP", "SQ"), ("PQ", "SR"))


class RepeatedVertex(GeometryError):
    """Two labeled vertices coincide."""


class CollinearTriple(GeometryError):
    """Three labeled vertices are collinear."""


class LineThroughVertex(GeometryError):
    """A trace line passes through a vertex of the quadrangle."""


def _check_vertices(vertices, collinear) -> None:
    """Raise at a repeated vertex pair, then at the first of PQR, PQS, PRS, QRS flagged."""
    labeled = tuple(zip(VERTEX_LABELS, vertices))
    for (la, a), (lb, b) in combinations(labeled, 2):
        if a.coords == b.coords and type(a) is type(b):  # a == b, without calling __eq__
            raise RepeatedVertex(f"vertices {la} and {lb} coincide at {a!r}")
    for labels, flat in zip(combinations(VERTEX_LABELS, 3), collinear):
        if flat:
            raise CollinearTriple(f"vertices {', '.join(labels)} are collinear")


class _once(cached_property):
    """cached_property without the lock that Python 3.11 takes on every first read.

    Two threads racing on a first read may both compute the value; the values are
    equal, and the one stored last is kept.
    """

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


class _Labeled(_Record):
    """A record with lookup by label, for one field per label in _LABELS."""

    _LABELS = property(attrgetter("_FIELDS"))  # where a class does not name its labels

    def __getitem__(self, label: str):
        return getattr(self, label) if label in self._LABELS else self.labeled()[label]

    def labeled(self) -> dict:
        return {lab: getattr(self, lab) for lab in self._LABELS}


class Quadrangle(_Labeled):
    """Four labeled points, no three collinear.  Checked on construction.

    Its raw crosses, sides and diagonal triangle are built once: the check
    keeps the crosses of sides PQ, SP and QR, and the rest come on first
    use.  They are not fields, so equality, hashing and repr ignore them.
    """

    P: Point2
    Q: Point2
    R: Point2
    S: Point2

    vertex = _Labeled.__getitem__

    def __post_init__(self) -> None:
        p, q, r, s = self.P.coords, self.Q.coords, self.R.coords, self.S.coords
        pq, sp, qr = _cross(p, q), _cross(s, p), _cross(q, r)
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = pq, sp, qr
        flat = (a0 * r[0] + a1 * r[1] + a2 * r[2] == 0, a0 * s[0] + a1 * s[1] + a2 * s[2] == 0,
                b0 * r[0] + b1 * r[1] + b2 * r[2] == 0, c0 * s[0] + c1 * s[1] + c2 * s[2] == 0)
        if True in flat:  # a repeated pair makes one of these triples flat too
            _check_vertices(self.vertices, flat)
        object.__setattr__(self, "_kept_sides", (pq, sp, qr))

    @_once
    def _crosses(self) -> tuple[dict[str, tuple[int, ...]], tuple[tuple[int, ...], ...]]:
        """Sides by label, then A, B, C: crosses of vertex pairs, then of sides."""
        p, q, r, s = self.P.coords, self.Q.coords, self.R.coords, self.S.coords
        pq, sp, qr = self._kept_sides
        side = dict(QR=qr, RP=_cross(r, p), PQ=pq, SP=sp, SQ=_cross(s, q), SR=_cross(s, r))
        return side, tuple([_cross(side[b], side[a]) for a, b in OPPOSITE_SIDES])

    @_once
    def _sides(self) -> SideSet:
        return SideSet(*(Line2(*c) for c in self._crosses[0].values()))

    @_once
    def _diagonal_triangle(self) -> DiagonalTriangle:
        return DiagonalTriangle(*(Point2(*c) for c in self._crosses[1]))

    vertices = property(attrgetter("P", "Q", "R", "S"))


class SideSet(_Labeled):
    """The six sides of a quadrangle, keyed by vertex-pair label."""

    QR: Line2
    RP: Line2
    PQ: Line2
    SP: Line2
    SQ: Line2
    SR: Line2


def sides(q: Quadrangle) -> SideSet:
    """All six sides; always defined for a valid quadrangle, built once."""
    return q._sides


class DiagonalTriangle(_Labeled):
    """Diagonal points A = SP.QR, B = SQ.RP, C = SR.PQ."""

    A: Point2
    B: Point2
    C: Point2

    points = property(attrgetter("A", "B", "C"))


def diagonal_triangle(q: Quadrangle) -> DiagonalTriangle:
    """Meet each pair of opposite sides.

    The three points are never collinear over the rationals, so they do
    form a triangle; callers may rely on that without re-checking.  Built
    once per quadrangle.
    """
    return q._diagonal_triangle


class QuadrangularTrace(_Labeled):
    """The six labeled points cut out of a line by the sides of a quadrangle."""

    line: Line2
    QR: Point2
    RP: Point2
    PQ: Point2
    SP: Point2
    SQ: Point2
    SR: Point2

    _LABELS = SIDE_LABELS


def quadrangular_trace(q: Quadrangle, line: Line2) -> QuadrangularTrace:
    """Intersect every side with a line that avoids all four vertices.

    The opposite-side pairing of the labels is what makes the six points a
    quadrangular set; the trace preserves the labels so callers can compare
    traces of different quadrangles point by point.
    """
    for lab, v in q.labeled().items():
        if line.contains(v):
            raise LineThroughVertex(f"trace line {line!r} passes through vertex {lab}")
    meets = {lab: meet2(side, line) for lab, side in sides(q).labeled().items()}
    return QuadrangularTrace(line, *meets.values())
