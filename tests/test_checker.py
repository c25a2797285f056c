"""What the verdict's fields do not show: the centre-is-vertex error, vertex checks that
never call the records' __eq__, and a verdict decided once, kept off the diagram's fields
and built from the kept crosses alone.

tests/test_judge.py recomputes every field of every verdict, on the goldens, the generated
pools and the special positions, and the acceptance criteria 2 and 10 state the worked
figure's verdict and the degenerate diagrams' refusal.
"""

import pytest

from quadshadow.kernel import Point2, _Element
from quadshadow.quadrangle import Quadrangle, RepeatedVertex
from quadshadow.perspectivity import CenterIsVertex
from quadshadow.checker import PlanarDiagram, Reason, decide_depiction
from quadshadow.documents import parse_diagram
from quadshadow.lift import lift_collinear_centers, verify_witness
from quadshadow.render import render_svg

from figures import A, DATA, DILATED, O, PERTURBED, SQUARE


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
