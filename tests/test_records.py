"""The package's records: built from their fields, frozen, equal only within one class.

Every record class shares one small base in the kernel, which reads a class's
own annotations as its fields.  One record of each of the 17 classes is built
from the worked figure, and each test checks one property over all of them.
"""

import pytest

from quadshadow.kernel import Line2, Point2, _Element, _Record
from quadshadow.quadrangle import (
    DiagonalTriangle,
    Quadrangle,
    QuadrangularTrace,
    SideSet,
    diagonal_triangle,
    quadrangular_trace,
    sides,
)
from quadshadow.perspectivity import Collineation, SideAxes, perspective_collineation, side_axes
from quadshadow.checker import (
    DegeneracyClass,
    PlanarDiagram,
    Verdict,
    classify_degeneracy,
    decide_depiction,
)
from quadshadow.lift import (
    ClauseCheck,
    PlanarityCertificate,
    SpatialQuadrangle,
    SpatialScene,
    Witness,
    WitnessReport,
    lift_collinear_centers,
    planarity_certificate,
    scene_from_witness,
    verify_witness,
)
from quadshadow.generators import GenConfig

from collineations import IDENTITY
from figures import DIAGRAM, DILATED, O, SQUARE

#: The records whose fields hold a dict, which makes them unhashable.
UNHASHABLE = (SideAxes, PlanarityCertificate)


def _records() -> dict:
    """A record of each class, built anew from the worked figure on every call."""
    square = Quadrangle(*SQUARE.vertices)
    d = PlanarDiagram(O, square, DILATED)
    w = lift_collinear_centers(d)
    report = verify_witness(d, w)
    return {
        _Element: _Element(1, 2, 3),
        Quadrangle: square,
        SideSet: sides(square),
        DiagonalTriangle: diagonal_triangle(square),
        QuadrangularTrace: quadrangular_trace(square, Line2(0, 1, -2)),
        SideAxes: side_axes(square, DILATED),
        Collineation: perspective_collineation(O, Line2(0, 0, 1), (square.P, DILATED.P)),
        DegeneracyClass: classify_degeneracy(square, DILATED),
        PlanarDiagram: d,
        Verdict: decide_depiction(d),
        SpatialQuadrangle: w.quad,
        Witness: w,
        SpatialScene: scene_from_witness(w),
        PlanarityCertificate: planarity_certificate(d),
        ClauseCheck: report.clauses[0],
        WitnessReport: report,
        GenConfig: GenConfig(),
    }


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in record._FIELDS}


def _rebuilt(record, cls=None):
    """A record of cls (record's class by default) with record's fields, built anew."""
    cls = cls or type(record)
    if isinstance(record, _Element):
        return cls(*record.coords)
    if isinstance(record, Collineation):
        return cls(record.matrix)
    return cls(**_fields(record))


def test_the_records_are_every_class_with_fields_of_its_own():
    classes, todo = set(), [_Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if vars(cls).get("__annotations__") and cls.__module__.startswith("quadshadow."):
            classes.add(cls)
    records = _records()
    assert classes == set(records) and len(records) == 17
    assert all(type(record) is cls for cls, record in records.items())


def test_records_are_built_by_position_or_keyword_with_the_class_defaults():
    for cls, record in _records().items():
        if cls in (_Element, Collineation):  # their own constructors normalise the input
            continue
        fields = _fields(record)
        assert cls(*fields.values()) == cls(**fields) == record
        first, *rest = fields
        assert cls(fields[first], **{n: fields[n] for n in rest}) == record
        for bad in (
            lambda: cls(*fields.values(), None),
            lambda: cls(*fields.values(), extra=None),
            lambda: cls(*fields.values(), **{first: fields[first]}),
        ):
            with pytest.raises(TypeError, match=f"^{cls.__name__} takes the fields "):
                bad()
    # defaults: Verdict.notes, SpatialScene.viewpoint, ClauseCheck.detail and all of GenConfig
    v = decide_depiction(DIAGRAM)
    assert v.notes == () and Verdict(*list(_fields(v).values())[:5]) == v
    scene = scene_from_witness(lift_collinear_centers(DIAGRAM))
    assert SpatialScene(scene.quad, scene.light, scene.shadow_plane).viewpoint is None
    assert ClauseCheck("c", True) == ClauseCheck("c", True, "")
    assert GenConfig() == GenConfig(9, 9, 1000) == GenConfig(max_retries=1000)
    with pytest.raises(TypeError, match="^Verdict takes the fields applicable, diagonal_pairs, "):
        Verdict(True)
    with pytest.raises(TypeError, match="^ClauseCheck takes the fields name, ok, detail$"):
        ClauseCheck(name="c", detail="")


def test_equality_depends_on_the_class():
    assert Point2(1, 2, 3) != Line2(1, 2, 3) and not Point2(1, 2, 3) == Line2(1, 2, 3)
    for cls, record in _records().items():
        lookalike = _rebuilt(record, type(f"Other{cls.__name__}", (cls,), {}))
        assert _fields(lookalike) == _fields(record)
        assert record == _rebuilt(record) and not record != _rebuilt(record)
        assert record != lookalike and lookalike != record and not record == lookalike
        assert record.__eq__(lookalike) is NotImplemented
        assert record.__eq__(tuple(_fields(record).values())) is NotImplemented


def test_fields_can_be_neither_assigned_nor_deleted():
    for record in _records().values():
        before = repr(record)
        for name in (*record._FIELDS, "extra"):
            text = f"^{type(record).__name__} is frozen: cannot set or delete '{name}'$"
            with pytest.raises(AttributeError, match=text):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=text):
                delattr(record, name)
        assert repr(record) == before and not hasattr(record, "extra")


def test_equal_records_hash_alike_as_the_tuple_of_their_fields():
    for cls, record in _records().items():
        if cls not in UNHASHABLE:
            twin = _rebuilt(record)
            assert twin is not record
            assert hash(twin) == hash(record) == hash(tuple(_fields(record).values()))


def test_records_with_a_dict_field_are_unhashable():
    for cls, record in _records().items():
        assert any(type(v) is dict for v in _fields(record).values()) == (cls in UNHASHABLE)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError, match="^unhashable type: 'dict'$"):
                hash(record)


def test_repr_names_the_class_and_each_field_in_order():
    for cls, record in _records().items():
        if cls is _Element:
            assert repr(record) == "_Element(1:2:3)" and repr(Point2(2, 4, 6)) == "Point2(1:2:3)"
        else:
            fields = ", ".join(f"{n}={v!r}" for n, v in _fields(record).items())
            assert repr(record) == f"{cls.__name__}({fields})"
    assert repr(GenConfig()) == (
        "GenConfig(numerator_bound=9, denominator_bound=9, max_retries=1000)"
    )
    assert repr(classify_degeneracy(SQUARE, DILATED)) == (
        "DegeneracyClass(kind=<DegeneracyKind.NONE: 'none'>, coincident=())"
    )
    assert repr(ClauseCheck("c", False, "why")) == "ClauseCheck(name='c', ok=False, detail='why')"
    assert repr(IDENTITY) == (
        "Collineation(matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1)))"
    )
