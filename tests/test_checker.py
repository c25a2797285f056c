"""Verdict machinery: applicability, diagonal criterion, degeneracies."""

from fractions import Fraction as F

import pytest

from quadshadow.kernel import Point2, _Element, join2
from quadshadow.quadrangle import Quadrangle, RepeatedVertex, diagonal_triangle
from quadshadow.perspectivity import CenterIsVertex
from quadshadow.checker import (
    DegeneracyKind,
    PlanarDiagram,
    Reason,
    classify_degeneracy,
    decide_depiction,
)
from quadshadow.documents import parse_diagram
from quadshadow.lift import lift_collinear_centers, verify_witness
from quadshadow.render import render_svg

from figures import A, DATA, DIAGRAM, DILATED, INCORRECT, O, OFF_RAY, ON_SIDE, PERTURBED, SQUARE


def test_center_must_not_be_a_vertex():
    with pytest.raises(CenterIsVertex) as err:
        PlanarDiagram(O=SQUARE.Q, quad1=SQUARE, quad2=DILATED)
    assert "Q" in str(err.value)


def test_vertex_checks_compare_coordinates_with_the_same_messages(monkeypatch):
    # the checks compare coordinate tuples, never through the generated __eq__
    monkeypatch.setattr(_Element, "__eq__", lambda self, other: pytest.fail("__eq__ called"))
    PlanarDiagram(O=O, quad1=SQUARE, quad2=DILATED)
    with pytest.raises(RepeatedVertex) as err:
        Quadrangle(A(0, 0), Point2(0, 0, 5), A(1, 0), A(1, 0))
    assert str(err.value) == "vertices P and Q coincide at Point2(0:0:1)"
    with pytest.raises(CenterIsVertex) as err:
        PlanarDiagram(O=DILATED.R, quad1=SQUARE, quad2=DILATED)
    assert str(err.value) == "center O equals vertex R of quadrangle 2"


def test_dilation_is_correct():
    verdict = decide_depiction(DIAGRAM)
    assert verdict.applicable
    assert verdict.correct
    assert verdict.diagonal_pairs == (True, True, True)
    assert verdict.degeneracy.kind is DegeneracyKind.NONE
    assert verdict.reason is Reason.CORRECT
    assert verdict.notes == ()


def test_perturbed_q_is_incorrect_via_a_pair():
    verdict = decide_depiction(INCORRECT)
    assert verdict.applicable
    assert not verdict.correct
    assert verdict.diagonal_pairs[0] is False
    assert verdict.reason is Reason.DIAGONAL_A


def test_perturbed_a_pair_line_misses_center():
    # the failing homologous diagonal points span x = -1, which avoids O
    a1 = diagonal_triangle(SQUARE).A
    a2 = diagonal_triangle(PERTURBED).A
    assert a2 == Point2(1, 7, -1)
    line = join2(a1, a2)
    assert line.coords == (1, 0, 1)
    assert not line.contains(O)


def test_not_perspective_diagram_inapplicable():
    verdict = decide_depiction(OFF_RAY)
    assert not verdict.applicable
    assert not verdict.correct
    assert verdict.diagonal_pairs is None
    assert verdict.reason is Reason.NOT_PERSPECTIVE


# --- degeneracy classification -------------------------------------------

def test_classify_no_shared_vertices():
    got = classify_degeneracy(SQUARE, DILATED)
    assert got.kind is DegeneracyKind.NONE
    assert got.coincident == ()


def test_classify_identical():
    got = classify_degeneracy(SQUARE, SQUARE)
    assert got.kind is DegeneracyKind.IDENTICAL
    assert got.coincident == ("P", "Q", "R", "S")


def test_classify_triangle_case():
    # S moved along a ray that passes through no shared vertex
    moved = Quadrangle(SQUARE.P, SQUARE.Q, SQUARE.R, A(2, -3))
    got = classify_degeneracy(SQUARE, moved)
    assert got.kind is DegeneracyKind.TRIANGLE
    assert got.coincident == ("P", "Q", "R")


def test_classify_vertex_case():
    # R moved along side RS: the moved pair is collinear with shared S
    moved = Quadrangle(SQUARE.P, SQUARE.Q, A(-1, -1) , SQUARE.S)
    slid = Quadrangle(SQUARE.P, SQUARE.Q, A(-3, -1), SQUARE.S)
    # R1 = (-1,-1), R2 = (-3,-1), S = (1,-1): all on y = -1
    got = classify_degeneracy(moved, slid)
    assert got.kind is DegeneracyKind.VERTEX
    assert got.coincident == ("P", "Q", "S")


def test_identical_quadrangles_ruled_incorrect():
    center = A(4, 4)
    verdict = decide_depiction(PlanarDiagram(O=center, quad1=SQUARE, quad2=SQUARE))
    assert verdict.applicable
    assert verdict.diagonal_pairs == (True, True, True)
    assert not verdict.correct
    assert verdict.reason is Reason.IDENTICAL
    assert verdict.degeneracy.kind is DegeneracyKind.IDENTICAL


def test_triangle_case_ruled_incorrect():
    # slide S along its ray from O; the ray avoids P, Q, and R, so the
    # moved pair is collinear with no shared vertex
    center = A(0, -3)
    s2 = A(F(1, 2), -2)  # halfway along the ray through O and S = (1,-1)
    moved = Quadrangle(SQUARE.P, SQUARE.Q, SQUARE.R, s2)
    verdict = decide_depiction(PlanarDiagram(O=center, quad1=SQUARE, quad2=moved))
    assert verdict.applicable
    assert verdict.degeneracy.kind is DegeneracyKind.TRIANGLE
    assert not verdict.correct
    assert verdict.reason is Reason.TRIANGLE_DEGENERACY
    # the diagonal criterion itself already fails somewhere
    assert not all(verdict.diagonal_pairs)


def test_vertex_case_ruled_incorrect():
    # center on side RS, R slid inside that side
    quad1 = Quadrangle(A(0, 3), A(-2, 1), A(-1, -1), A(3, -1))
    center = A(1, -1)  # on the line y = -1 through R and S
    r2 = A(-3, -1)
    quad2 = Quadrangle(quad1.P, quad1.Q, r2, quad1.S)
    diagram = PlanarDiagram(O=center, quad1=quad1, quad2=quad2)
    verdict = decide_depiction(diagram)
    assert verdict.applicable
    assert verdict.degeneracy.kind is DegeneracyKind.VERTEX
    assert not verdict.correct
    assert verdict.reason is Reason.VERTEX_DEGENERACY


def test_note_when_center_on_a_side():
    # O = (0, 1) is on side PQ of the square, the line y = 1
    assert decide_depiction(ON_SIDE).notes == ("center O lies on side PQ of quadrangle 1",)


def test_no_notes_for_center_off_all_sides():
    verdict = decide_depiction(DIAGRAM)
    assert verdict.notes == ()


def test_the_verdict_is_decided_once_and_kept_off_the_fields():
    d = PlanarDiagram(O=O, quad1=SQUARE, quad2=PERTURBED)
    twin = PlanarDiagram(O=O, quad1=SQUARE, quad2=PERTURBED)
    before = (repr(d), hash(d))
    verdict = decide_depiction(d)
    assert decide_depiction(d) is verdict
    assert verdict.reason is Reason.DIAGONAL_A
    # deciding adds nothing to equality, hashing or repr
    assert d._FIELDS == ("O", "quad1", "quad2")
    assert d == twin and (repr(d), hash(d)) == before == (repr(twin), hash(twin))
    assert decide_depiction(twin) == verdict


def test_the_verdict_builds_no_sides_or_diagonal_triangles():
    for name in ("perturbed", "vertex-degenerate", "dilation"):
        d = parse_diagram((DATA / f"{name}.json").read_text())
        decide_depiction(d)
        for q in (d.quad1, d.quad2):
            assert "_crosses" in vars(q), name
            assert not {"_sides", "_diagonal_triangle"} & set(vars(q)), name
    # the dilation is correct: its witness check reads the kept diagonal crosses
    # and builds neither sides nor diagonal triangles; only its figure builds both
    witness = lift_collinear_centers(d)
    assert verify_witness(d, witness).passed
    for q in (d.quad1, d.quad2):
        assert not {"_sides", "_diagonal_triangle"} & set(vars(q))
    render_svg(d)
    assert all({"_sides", "_diagonal_triangle"} <= set(vars(q)) for q in (d.quad1, d.quad2))
    vars(d.quad1)["_crosses"] = d.quad2._crosses
    assert not verify_witness(d, witness).clauses[-1].ok


def test_reason_values_are_stable_strings():
    assert Reason.CORRECT.value == "correct"
    assert Reason.NOT_PERSPECTIVE.value == "not_perspective"
    assert Reason.IDENTICAL.value == "identical"
    assert Reason.TRIANGLE_DEGENERACY.value == "triangle_degeneracy"
    assert Reason.VERTEX_DEGENERACY.value == "vertex_degeneracy"
    assert Reason.DIAGONAL_A.value == "diagonal_pair_a"
    assert Reason.DIAGONAL_B.value == "diagonal_pair_b"
    assert Reason.DIAGONAL_C.value == "diagonal_pair_c"
    assert DegeneracyKind.NONE.value == "none"
    assert DegeneracyKind.TRIANGLE.value == "triangle"
    assert DegeneracyKind.VERTEX.value == "vertex"
    assert DegeneracyKind.IDENTICAL.value == "identical"
