"""Complete quadrangles: labeled vertices, sides, diagonal points, traces.

A complete quadrangle is four points P, Q, R, S of the projective plane,
no three collinear.  Its six sides are the joins of vertex pairs, labeled
QR, RP, PQ, SP, SQ, SR; sides are *opposite* when they share no vertex,
giving the three pairs {QR, SP}, {RP, SQ}, {PQ, SR}.  Opposite sides meet
in the diagonal points

    A = SP . QR,    B = SQ . RP,    C = SR . PQ,

which over the rationals always form a genuine triangle.  Labels matter
throughout this package: quadrangles are compared label by label, and the
separate helper ``same_vertex_set`` compares them as bare point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .kernel import GeometryError, Line2, Point2, join2, meet2, collinear2

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
    "validate_quadrangle",
    "same_vertex_set",
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
    """Raise unless the labeled vertices are distinct, no three collinear."""
    labeled = tuple(zip(VERTEX_LABELS, vertices))
    for (la, a), (lb, b) in combinations(labeled, 2):
        if a.coords == b.coords and type(a) is type(b):  # a == b, without the generated __eq__
            raise RepeatedVertex(f"vertices {la} and {lb} coincide at {a!r}")
    for (la, a), (lb, b), (lc, c) in combinations(labeled, 3):
        if collinear(a, b, c):
            raise CollinearTriple(f"vertices {la}, {lb}, {lc} are collinear")


class _Labeled:
    """Lookup by label for a record with one field per label in _LABELS."""

    _LABELS: tuple[str, ...]

    def __getitem__(self, label: str):
        if label not in self._LABELS:
            raise KeyError(label)
        return getattr(self, label)

    def labeled(self) -> dict:
        return {lab: getattr(self, lab) for lab in self._LABELS}


@dataclass(frozen=True)
class Quadrangle(_Labeled):
    """Four labeled points, no three collinear.  Checked on construction.

    Its sides and diagonal triangle are built once, on first use; they are
    not fields, so equality, hashing and repr ignore them.
    """

    P: Point2
    Q: Point2
    R: Point2
    S: Point2

    _LABELS = VERTEX_LABELS
    vertex = _Labeled.__getitem__

    def __post_init__(self) -> None:
        _check_vertices(self.vertices, collinear2)

    @cached_property
    def _sides(self) -> SideSet:
        v = self.labeled()
        return SideSet(**{lab: join2(v[lab[0]], v[lab[1]]) for lab in SIDE_LABELS})

    @cached_property
    def _diagonal_triangle(self) -> DiagonalTriangle:
        s = self._sides
        return DiagonalTriangle(*(meet2(s[b], s[a]) for a, b in OPPOSITE_SIDES))

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (self.P, self.Q, self.R, self.S)


def validate_quadrangle(p: Point2, q: Point2, r: Point2, s: Point2) -> Quadrangle:
    """Checked constructor; raises RepeatedVertex or CollinearTriple."""
    return Quadrangle(p, q, r, s)


def same_vertex_set(q1: Quadrangle, q2: Quadrangle) -> bool:
    """Compare two quadrangles as unlabeled point sets."""
    return set(q1.vertices) == set(q2.vertices)


@dataclass(frozen=True)
class SideSet(_Labeled):
    """The six sides of a quadrangle, keyed by vertex-pair label."""

    QR: Line2
    RP: Line2
    PQ: Line2
    SP: Line2
    SQ: Line2
    SR: Line2

    _LABELS = SIDE_LABELS


def sides(q: Quadrangle) -> SideSet:
    """All six sides; always defined for a valid quadrangle, built once."""
    return q._sides


@dataclass(frozen=True)
class DiagonalTriangle(_Labeled):
    """Diagonal points A = SP.QR, B = SQ.RP, C = SR.PQ."""

    A: Point2
    B: Point2
    C: Point2

    _LABELS = ("A", "B", "C")

    @property
    def points(self) -> tuple[Point2, Point2, Point2]:
        return (self.A, self.B, self.C)


def diagonal_triangle(q: Quadrangle) -> DiagonalTriangle:
    """Meet each pair of opposite sides.

    The three points are never collinear over the rationals, so they do
    form a triangle; callers may rely on that without re-checking.  Built
    once per quadrangle.
    """
    return q._diagonal_triangle


@dataclass(frozen=True)
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
    return QuadrangularTrace(line=line, **meets)
