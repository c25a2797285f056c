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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .kernel import GeometryError, Line2, Point2, _cross, meet2, collinear2

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

    Its raw crosses, sides and diagonal triangle are built once: the check
    keeps the crosses of sides PQ, SP and QR, and the rest come on first
    use.  They are not fields, so equality, hashing and repr ignore them.
    """

    P: Point2
    Q: Point2
    R: Point2
    S: Point2

    _LABELS = VERTEX_LABELS
    vertex = _Labeled.__getitem__

    def __post_init__(self) -> None:
        p, q, r, s = self.P.coords, self.Q.coords, self.R.coords, self.S.coords
        if len({p, q, r, s}) < 4:  # a repeated vertex, reported as _check_vertices does
            _check_vertices(self.vertices, collinear2)
        pq, sp, qr = _cross(p, q), _cross(s, p), _cross(q, r)
        for (l0, l1, l2), x, lab in ((pq, r, "P, Q, R"), (pq, s, "P, Q, S"),
                                     (sp, r, "P, R, S"), (qr, s, "Q, R, S")):
            if l0 * x[0] + l1 * x[1] + l2 * x[2] == 0:
                raise CollinearTriple(f"vertices {lab} are collinear")
        object.__setattr__(self, "_kept_sides", (pq, sp, qr))

    @cached_property
    def _crosses(self) -> tuple[dict[str, tuple[int, ...]], tuple[tuple[int, ...], ...]]:
        """Sides by label, then A, B, C: crosses of vertex pairs, then of sides."""
        p, q, r, s = self.P.coords, self.Q.coords, self.R.coords, self.S.coords
        pq, sp, qr = self._kept_sides
        side = dict(QR=qr, RP=_cross(r, p), PQ=pq, SP=sp, SQ=_cross(s, q), SR=_cross(s, r))
        return side, tuple(_cross(side[b], side[a]) for a, b in OPPOSITE_SIDES)

    @cached_property
    def _sides(self) -> SideSet:
        return SideSet(**{lab: Line2(*c) for lab, c in self._crosses[0].items()})

    @cached_property
    def _diagonal_triangle(self) -> DiagonalTriangle:
        return DiagonalTriangle(*(Point2(*c) for c in self._crosses[1]))

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (self.P, self.Q, self.R, self.S)


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
