"""Documents: the diagram, witness, scene and verdict formats.

Documents are versioned JSON with fixed field names and fixed key order;
every coordinate travels as a rational string ("-7/3", "4") or a JSON
integer, never as a float, so exactness survives the trip through text.
Emitters write canonical form (canonical integer coordinates, laid out
byte for byte as json.dumps with an indent of 2 plus a trailing newline,
ASCII only).  A diagram, witness or scene whose coordinates are all within
the readers' 1024-bit bound re-parses to an equal value; for already-canonical
input, parse followed by emit is byte-identical.  The lifts and project_scene
can reach coordinates past the bound from inputs inside it (a witness's plane
has about three times its diagram's bits), so the lift and project commands
read what they write back and refuse such a document.  A diagram text in the
writer's exact layout is read against the writer's own template, with no JSON
decode: every workload reads diagrams.  Every other text, and every witness or
scene, goes through json, and an object with a repeated key is rejected.

A verdict is written and never read; its "witness" is always null.  No command
calls emit_scene, the other half of the scene format: the tests use it as an
oracle, for parse_scene's round trip.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter

from .kernel import GeometryError, Line2, Plane3, Point2, Point3
from .quadrangle import (
    SIDE_LABELS, VERTEX_LABELS, DiagonalTriangle, Quadrangle, quadrangular_trace)
from .checker import PlanarDiagram, Verdict
from .lift import SpatialQuadrangle, SpatialScene, Witness

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations: fractions is loaded where a non-integer is read
    from fractions import Fraction
    from typing import Any, Iterable, Iterator

__all__ = [
    "ParseError",
    "InvariantViolation",
    "parse_diagram",
    "emit_diagram",
    "parse_witness",
    "emit_witness",
    "parse_scene",
    "emit_scene",
    "emit_verdict",
]

DOCUMENT_VERSION = 1

#: Longest numerator or denominator, in bits, a document coordinate may have.
_MAX_COORD_BITS = 1024
#: Decimal digits of 2**_MAX_COORD_BITS, so 10**_MAX_COORD_DIGITS is past the bound.
_MAX_COORD_DIGITS = len(str(1 << _MAX_COORD_BITS))
#: The ASCII characters of every other spelling Fraction reads alike on
#: every supported Python: no spaces, underscores or non-ASCII digits.
_SPELLING = re.compile(r"[-+./0-9eE]+")

#: A plain ASCII integer of at most 308 digits, below 10**308 < 2**1024 and the least
#: int-to-str digit limit (640), so int() reads it.  Kept as text, re compiles it on the
#: first coordinate string read: lift's --c1 and --c2 and the witness it reads back, never
#: a diagram in the writer's layout.
_INTEGER = r"-?[0-9]{1,308}"
#: The 27 slots of the diagram template, joined by "," (a comma inside one adds a slot).
_INTEGERS = re.compile(r"%s(?:,%s){26}" % (_INTEGER, _INTEGER))


class ParseError(Exception):
    """Malformed document; the message carries the offending location."""


class InvariantViolation(Exception):
    """Well-formed document describing an invalid geometric object."""


# ---------------------------------------------------------------------------
# rational plumbing


def _rational(node: Any, path: str) -> int | Fraction:
    """A bounded rational, as an int when it is integral.

    A JSON integer is taken as it is, a plain integer string is read by int
    and every other string goes through Fraction; a diagram in the writer's layout
    comes here only when one of its points does not build (see _canonical).
    """
    if type(node) is int:
        value, bits = node, node.bit_length()
    elif type(node) is str and re.fullmatch(_INTEGER, node):
        return int(node)  # below 10**308, inside the bound
    else:
        value = _fraction(node, path)
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if value.denominator == 1:
            value = value.numerator
    if bits > _MAX_COORD_BITS:
        raise ParseError(f"{path}: a {bits}-bit rational exceeds the {_MAX_COORD_BITS}-bit bound")
    return value


def _fraction(node: Any, path: str) -> Fraction:
    """Any other rational spelling, read by Fraction once it is known to be bounded."""
    if isinstance(node, bool) or isinstance(node, float):
        raise ParseError(f"{path}: coordinates must be rational strings, got {node!r}")
    if not isinstance(node, str):  # every int took _rational's own path
        raise ParseError(
            f"{path}: coordinates must be rational strings, got {type(node).__name__}"
        )
    # A nonzero m * 10**e with at most len(node) mantissa digits has a
    # numerator or denominator of at least 10**_MAX_COORD_DIGITS once |e|
    # exceeds that plus len(node); reject it before Fraction builds 10**e.
    _, sep, tail = node.lower().rpartition("e")
    try:
        exponent = int(tail) if sep else 0
    except ValueError:
        exponent = 0  # no exponent form: Fraction rejects the string
    if abs(exponent) > _MAX_COORD_DIGITS + len(node):
        raise ParseError(f"{path}: exponent {exponent} exceeds the {_MAX_COORD_BITS}-bit bound")
    if not _SPELLING.fullmatch(node):
        raise ParseError(f"{path}: not a rational: {node!r}")
    from fractions import Fraction

    try:
        return Fraction(node)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{path}: not a rational: {node!r}") from None


def _object(node: Any, path: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(node, dict):
        raise ParseError(f"{path}: expected an object")
    if None in node:
        raise ParseError(f"{path}: repeated field {node[None]!r}")
    missing = [k for k in keys if k not in node]
    if missing:
        raise ParseError(f"{path}: missing field {missing[0]!r}")
    unknown = [k for k in node if k not in keys]
    if unknown:
        raise ParseError(f"{path}: unknown field {unknown[0]!r}")
    return node


def _pairs(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object; one with a repeated key keeps the first key read twice under None."""
    node = {}
    for key, value in pairs:
        if key in node and None not in node:
            node[None] = key
        node[key] = value
    return node


def _load(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_pairs)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer past the interpreter's int-to-str digit limit
        raise ParseError(f"an integer exceeds the {_MAX_COORD_BITS}-bit bound") from None
    except RecursionError:
        raise ParseError("arrays or objects are nested too deeply") from None


def _fields(text: str, keys: Iterable[str]) -> dict:
    """The document's object, once its keys and its version are checked."""
    doc = _object(_load(text), "document", ("version", *keys))
    version = doc["version"]
    if type(version) is not int or version != DOCUMENT_VERSION:
        raise ParseError(f"version: expected {DOCUMENT_VERSION}, got {version!r}")
    return doc


def _element(cls, node: Any, path: str):
    """A kernel element (Point2, Point3, Plane3) from an array of rationals."""
    if not isinstance(node, list) or len(node) != cls._ARITY:
        raise ParseError(f"{path}: expected an array of {cls._ARITY} rationals")
    try:
        return cls(*[_rational(c, f"{path}[{i}]") for i, c in enumerate(node)])
    except GeometryError as e:
        raise InvariantViolation(f"{path}: {e}") from None


def _elements(doc: dict, form: dict):
    """The document's elements in form order, read one at a time as they are taken: a
    caller that builds from them as it goes raises the first error in document order."""
    for name, (labels, cls) in form.items():
        if labels is None:
            yield _element(cls, doc[name], name)
        else:
            obj = _object(doc[name], name, labels)
            yield from (_element(cls, obj[lab], f"{name}.{lab}") for lab in labels)


def _quadrangle(name: str, vertices: Iterable[Point2]) -> Quadrangle:
    try:
        return Quadrangle(*vertices)
    except GeometryError as e:
        raise InvariantViolation(f"{name}: {e}") from None


# The writer lays documents out byte for byte as json.dumps with an indent of
# 2 does: fixed ASCII keys, literals, integers through "%d" (a sign and digits,
# never escaped) and free strings through _string, which json.dumps calls too.


def _array(items: list[str], pad: str) -> str:
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _members(pairs, pad: str) -> str:
    return f'{{\n{pad}  "' + f',\n{pad}  "'.join(f'{k}": {v}' for k, v in pairs) + f"\n{pad}}}"


def _document(pairs) -> str:
    return _members([("version", str(DOCUMENT_VERSION)), *pairs], "") + "\n"


def _layout(form: dict) -> list[tuple[str, str]]:
    """The fields of a form, "%d" in the slot of every coordinate."""
    return [(name, _array(['"%d"'] * cls._ARITY, "  ") if labels is None else _members(
        [(lab, _array(['"%d"'] * cls._ARITY, "    ")) for lab in labels], "  "))
        for name, (labels, cls) in form.items()]


def _fill(template: str, elements) -> str:
    return template % tuple([c for e in elements for c in e.coords])


# ---------------------------------------------------------------------------
# diagram, witness and scene documents

#: The documents of a fixed shape, field by field in document order: the labels of an
#: object of elements (None for one element) and the element class.
_BARRED = {"quad": (("Pbar", "Qbar", "Rbar", "Sbar"), Point3), "plane": (None, Plane3)}
_DIAGRAM = {"O": (None, Point2), **dict.fromkeys(("quad1", "quad2"), (VERTEX_LABELS, Point2))}
_WITNESS = {"O1": (None, Point3), "O2": (None, Point3), **_BARRED, "drawing_plane": (None, Plane3)}
_UNVIEWED = {**_BARRED, "light": (None, Point3), "shadow_plane": (None, Plane3)}
_SCENE = {**_UNVIEWED, "viewpoint": (None, Point3)}
#: Their %-templates, and those of the axis and qset traces.
_DIAGRAM_DOC, _WITNESS_DOC, _SCENE_DOC = map(_document, map(_layout, (_DIAGRAM, _WITNESS, _SCENE)))
_UNVIEWED_DOC = _document([*_layout(_UNVIEWED), ("viewpoint", "null")])
_TRACES = {"quad1": (SIDE_LABELS, Point2), "quad2": (SIDE_LABELS, Point2)}
_TRACES_DOC = {k: _document(_layout({k: (None, Line2), **_TRACES})) for k in ("axis", "line")}
#: The diagram template's pieces between quotes: the fixed ones, and its 27 slots.
_PARTS = _DIAGRAM_DOC.split('"')
_FIXED = itemgetter(*[i for i, p in enumerate(_PARTS) if p != "%d"])
_SLOTS = itemgetter(*[i for i, p in enumerate(_PARTS) if p == "%d"])
_PIECES = _FIXED(_PARTS)


def _canonical(text: str) -> Iterator | None:
    """The nine points of a diagram text in the writer's layout, as an iterator: split at its
    quotes (none escaped, as each follows a fixed piece or a digit), its fixed pieces are the
    template's and its slots plain integers.  None for any other text, or one whose point does
    not build, for _elements to find its first error."""
    parts = text.split('"') if type(text) is str else ()  # json.loads reads bytes too
    if len(parts) == len(_PARTS) and _FIXED(parts) == _PIECES:
        coords = _SLOTS(parts)
        if _INTEGERS.fullmatch(",".join(coords)):
            values = [*map(int, coords)]
            try:
                return iter([Point2(*values[i:i + 3]) for i in range(0, 27, 3)])
            except GeometryError:
                pass
    return None


def parse_diagram(text: str) -> PlanarDiagram:
    elements = _canonical(text) or _elements(_fields(text, _DIAGRAM), _DIAGRAM)
    O, quad1 = next(elements), _quadrangle("quad1", islice(elements, 4))
    quad2 = _quadrangle("quad2", elements)
    try:
        return PlanarDiagram(O, quad1, quad2)
    except GeometryError as e:
        raise InvariantViolation(str(e)) from None


def emit_diagram(d: PlanarDiagram) -> str:
    return _fill(_DIAGRAM_DOC, (d.O, *d.quad1.vertices, *d.quad2.vertices))


def parse_witness(text: str) -> Witness:
    O1, O2, *quad, drawing_plane = _elements(_fields(text, _WITNESS), _WITNESS)
    return Witness(SpatialQuadrangle(*quad), O1, O2, drawing_plane)


def emit_witness(w: Witness) -> str:
    return _fill(_WITNESS_DOC, (w.O1, w.O2, *w.quad.vertices, w.quad.plane, w.drawing_plane))


def parse_scene(text: str) -> SpatialScene:
    doc = _fields(text, _SCENE)
    elements = _elements(doc, _UNVIEWED if doc["viewpoint"] is None else _SCENE)
    return SpatialScene(SpatialQuadrangle(*islice(elements, 5)), *elements)


def emit_scene(s: SpatialScene) -> str:
    elements = (*s.quad.vertices, s.quad.plane, s.light, s.shadow_plane)
    if s.viewpoint is None:
        return _fill(_UNVIEWED_DOC, elements)
    return _fill(_SCENE_DOC, (*elements, s.viewpoint))


def _traces(key: str, line: Line2, d: PlanarDiagram) -> str:
    """The line under key, then its labeled traces on quad1 and quad2."""
    traces = [quadrangular_trace(q, line).labeled().values() for q in (d.quad1, d.quad2)]
    return _fill(_TRACES_DOC[key], (line, *traces[0], *traces[1]))


# ---------------------------------------------------------------------------
# verdict documents

#: The verdict document's fields after "version", in document order.
_VERDICT = ("applicable", "correct", "degeneracy", "diagonal_pairs", "reason", "witness", "notes")
_BOOL = {True: "true", False: "false"}
#: The verdict's %-template, its "witness" always null, and that of its diagonal pairs.
_VERDICT_DOC = _document((key, {
    "degeneracy": _members([("kind", "%s"), ("coincident", "%s")], "  "), "witness": "null",
}.get(key, "%s")) for key in _VERDICT)
_PAIRS_DOC = _members([(key, "%s") for key in DiagonalTriangle._FIELDS], "  ")


def emit_verdict(v: Verdict) -> str:
    deg, pairs = v.degeneracy, v.diagonal_pairs
    return _VERDICT_DOC % (
        _BOOL[v.applicable], _BOOL[v.correct],
        _string(deg.kind.value), _array([_string(lab) for lab in deg.coincident], "    "),
        "null" if pairs is None else _PAIRS_DOC % tuple([_BOOL[p] for p in pairs]),
        _string(v.reason.value), _array([_string(n) for n in v.notes], "  "))

