"""Decide whether a drawn quadrangle-and-shadow diagram is consistent.

A planar diagram consists of a center O and two labeled quadrangles whose
homologous vertices are (supposed to be) aligned with O, the way a light
source aligns an object with its shadow.  The diagram is *correct*, i.e.
realizable by an actual spatial quadrangle with its shadow, exactly when
the two diagonal triangles are also perspective from O.  decide_depiction
evaluates that criterion as seven integer determinants det(O, X1, X2) on raw
side and diagonal crosses (a zero test ignores scale, so nothing is
normalised); verify_witness reads the raw diagonal crosses too, and only
render builds a DiagonalTriangle.

Degenerate pairs in which three of the four vertex pairs coincide come in
two shapes, distinguished by which three homologous sides coincide: either
those three sides form a triangle (the fourth vertex moved freely off the
shared three) or they run through one shared vertex (the moved vertex slid
along a side through that vertex).  Both shapes always break the diagonal
criterion, and fully identical quadrangles are ruled incorrect by fiat:
nothing about such drawings forces a spatial reading.
"""

from __future__ import annotations

from enum import Enum

from .kernel import Point2, _det3, _Record, collinear2
from .quadrangle import VERTEX_LABELS, Quadrangle, _once
from .perspectivity import CenterIsVertex

__all__ = [
    "DegeneracyKind",
    "DegeneracyClass",
    "Reason",
    "PlanarDiagram",
    "Verdict",
    "classify_degeneracy",
    "decide_depiction",
]


class DegeneracyKind(Enum):
    NONE = "none"
    TRIANGLE = "triangle"
    VERTEX = "vertex"
    IDENTICAL = "identical"


class DegeneracyClass(_Record):
    """Kind of coincidence between two labeled quadrangles.

    ``coincident`` lists the labels whose vertices agree.  TRIANGLE and
    VERTEX both mean exactly one label differs; they are told apart by
    whether the moved pair is collinear with one of the shared vertices
    (VERTEX) or not (TRIANGLE).
    """

    kind: DegeneracyKind
    coincident: tuple[str, ...]


def classify_degeneracy(q1: Quadrangle, q2: Quadrangle) -> DegeneracyClass:
    pairs = zip(VERTEX_LABELS, q1.vertices, q2.vertices)
    shared = tuple(lab for lab, a, b in pairs if a.coords == b.coords and type(a) is type(b))
    kind = DegeneracyKind.IDENTICAL if len(shared) == 4 else DegeneracyKind.NONE
    if len(shared) == 3:
        (moved,) = set(VERTEX_LABELS).difference(shared)
        w1, w2 = q1.vertex(moved), q2.vertex(moved)
        through = any(collinear2(q1.vertex(lab), w1, w2) for lab in shared)
        kind = DegeneracyKind.VERTEX if through else DegeneracyKind.TRIANGLE
    return DegeneracyClass(kind, shared)


class Reason(Enum):
    CORRECT = "correct"
    NOT_PERSPECTIVE = "not_perspective"
    IDENTICAL = "identical"
    TRIANGLE_DEGENERACY = "triangle_degeneracy"
    VERTEX_DEGENERACY = "vertex_degeneracy"
    DIAGONAL_A = "diagonal_pair_a"
    DIAGONAL_B = "diagonal_pair_b"
    DIAGONAL_C = "diagonal_pair_c"


_DEGENERACY_REASONS = {
    DegeneracyKind.IDENTICAL: Reason.IDENTICAL,
    DegeneracyKind.TRIANGLE: Reason.TRIANGLE_DEGENERACY,
    DegeneracyKind.VERTEX: Reason.VERTEX_DEGENERACY,
}
_DIAGONAL_REASONS = (Reason.DIAGONAL_A, Reason.DIAGONAL_B, Reason.DIAGONAL_C)


class PlanarDiagram(_Record):
    """Center plus two labeled quadrangles; O must not be a vertex.

    Its verdict is worked out once, on first use; it is not a field, so
    equality, hashing and repr ignore it.
    """

    O: Point2
    quad1: Quadrangle
    quad2: Quadrangle

    def __post_init__(self) -> None:
        o, o_cls = self.O.coords, type(self.O)
        for which, q in (("quadrangle 1", self.quad1), ("quadrangle 2", self.quad2)):
            for lab, v in zip(VERTEX_LABELS, q.vertices):
                if v.coords == o and type(v) is o_cls:  # v == self.O, without calling __eq__
                    raise CenterIsVertex(f"center O equals vertex {lab} of {which}")

    @_once
    def _verdict(self) -> Verdict:
        degeneracy = classify_degeneracy(self.quad1, self.quad2)
        o, (s1, d1), (s2, d2) = self.O.coords, self.quad1._crosses, self.quad2._crosses
        notes = tuple(
            f"center O lies on side {lab} of quadrangle {n}"
            for n, sides in enumerate((s1, s2), 1)
            for lab, (l0, l1, l2) in sides.items()
            if l0 * o[0] + l1 * o[1] + l2 * o[2] == 0
        )
        vertex_pairs = zip(self.quad1.vertices, self.quad2.vertices)
        if not all(_det3(o, x1.coords, x2.coords) == 0 for x1, x2 in vertex_pairs):
            return Verdict(False, None, degeneracy, False, Reason.NOT_PERSPECTIVE, notes)
        pairs = tuple(_det3(o, x1, x2) == 0 for x1, x2 in zip(d1, d2))
        failed = (r for r, ok in zip(_DIAGONAL_REASONS, pairs) if not ok)
        reason = _DEGENERACY_REASONS.get(degeneracy.kind) or next(failed, Reason.CORRECT)
        correct = all(pairs) and degeneracy.kind is not DegeneracyKind.IDENTICAL
        return Verdict(True, pairs, degeneracy, correct, reason, notes)


class Verdict(_Record):
    """Full outcome of the depiction decision.

    ``diagonal_pairs`` holds the perspectivity of the homologous diagonal
    pairs (A, B, C) and is None when the diagram is not even
    vertex-perspective.  ``correct`` is

        applicable and all diagonal pairs perspective and not identical.
    """

    applicable: bool
    diagonal_pairs: tuple[bool, bool, bool] | None
    degeneracy: DegeneracyClass
    correct: bool
    reason: Reason
    notes: tuple[str, ...] = ()


def decide_depiction(d: PlanarDiagram) -> Verdict:
    """Evaluate the diagonal-triangle criterion for a diagram.

    Applicability (vertex perspectivity from O) is checked first; when it
    fails no diagonal results are reported.  Otherwise the three homologous
    diagonal pairs are tested one by one, and the reason pinpoints the
    degeneracy or the first failing pair.
    """
    return d._verdict
