"""Documents: the diagram, witness, scene and verdict formats.

Documents are versioned JSON with fixed field names and fixed key order;
every coordinate travels as a rational string ("-7/3", "4") or a JSON
integer, never as a float, so exactness survives the trip through text.
Emitters write canonical form (canonical integer coordinates, laid out
byte for byte as json.dumps with an indent of 2 plus a trailing newline,
ASCII only), and everything emitted re-parses to an equal value; for
already-canonical input, parse followed by emit is byte-identical.  The one
exception is a verdict's "witness" reference: parse_verdict checks it and
drops it, so the verdict re-emits with "witness": null.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import Any

from .kernel import GeometryError, Line2, Plane3, Point2, Point3
from .quadrangle import VERTEX_LABELS, DiagonalTriangle, Quadrangle, quadrangular_trace
from .checker import DegeneracyClass, DegeneracyKind, PlanarDiagram, Reason, Verdict, _ruling
from .lift import SpatialQuadrangle, SpatialScene, Witness

__all__ = [
    "ParseError",
    "InvariantViolation",
    "parse_diagram",
    "emit_diagram",
    "parse_witness",
    "emit_witness",
    "parse_scene",
    "emit_scene",
    "parse_verdict",
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
#: By arity, an element's coordinates joined by ",", all plain ASCII integers of at most
#: 308 digits: int() reads them, each below 10**308 < 2**1024 and far below the least
#: int-to-str digit limit an interpreter may set (640), so no bound is checked.
_PLAIN_ARRAY = {n: re.compile(",".join(["-?[0-9]{1,308}"] * n)) for n in (3, 4)}


class ParseError(Exception):
    """Malformed document; the message carries the offending location."""


class InvariantViolation(Exception):
    """Well-formed document describing an invalid geometric object."""


# ---------------------------------------------------------------------------
# rational plumbing


def _rational(node: Any, path: str) -> int | Fraction:
    """A bounded rational, as an int when it is integral.

    A JSON integer is taken as it is and every string goes through Fraction;
    an array of plain integer strings never comes here, as _element reads it.
    """
    if type(node) is int:
        value, bits = node, node.bit_length()
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
    try:
        return Fraction(node)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{path}: not a rational: {node!r}") from None


def _object(node: Any, path: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(node, dict):
        raise ParseError(f"{path}: expected an object")
    missing = [k for k in keys if k not in node]
    if missing:
        raise ParseError(f"{path}: missing field {missing[0]!r}")
    unknown = [k for k in node if k not in keys]
    if unknown:
        raise ParseError(f"{path}: unknown field {unknown[0]!r}")
    return node


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer past the interpreter's int-to-str digit limit
        raise ParseError(f"an integer exceeds the {_MAX_COORD_BITS}-bit bound") from None
    except RecursionError:
        raise ParseError("arrays or objects are nested too deeply") from None


def _fields(text: str, keys: tuple[str, ...]) -> dict:
    """The document's object, once its keys and its version are checked."""
    doc = _object(_load(text), "document", ("version", *keys))
    version = doc["version"]
    if type(version) is not int or version != DOCUMENT_VERSION:
        raise ParseError(f"version: expected {DOCUMENT_VERSION}, got {version!r}")
    return doc


def _element(cls, node: Any, path: str):
    """A kernel element (Point2, Point3, Plane3) from an array of rationals."""
    arity = cls._ARITY
    if not isinstance(node, list) or len(node) != arity:
        raise ParseError(f"{path}: expected an array of {arity} rationals")
    try:
        plain = _PLAIN_ARRAY[arity].fullmatch(",".join(node))
    except TypeError:  # a coordinate that is not a string
        plain = None
    coords = (map(int, node) if plain
              else [_rational(c, f"{path}[{i}]") for i, c in enumerate(node)])
    try:
        return cls(*coords)
    except GeometryError as e:
        raise InvariantViolation(f"{path}: {e}") from None


# The writer lays documents out byte for byte as json.dumps with an indent of
# 2 does: fixed ASCII keys, literals, integers through "%d" (a sign and digits,
# never escaped) and free strings through _string, which json.dumps calls too.


def _array(items: list[str], pad: str) -> str:
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _members(pairs, pad: str) -> str:
    return f'{{\n{pad}  "' + f',\n{pad}  "'.join(f'{k}": {v}' for k, v in pairs) + f"\n{pad}}}"


#: The %-template of an element's array, by indentation and coordinate count.
_ELEMENT = {(pad, n): _array(['"%d"'] * n, pad) for pad in ("  ", "    ") for n in (3, 4)}


def _coords(element, pad: str = "  ") -> str:
    return _ELEMENT[pad, len(element.coords)] % element.coords


def _labeled(labels, elements) -> str:
    return _members([(lab, _coords(e, "    ")) for lab, e in zip(labels, elements)], "  ")


def _document(pairs) -> str:
    return _members([("version", str(DOCUMENT_VERSION)), *pairs], "") + "\n"


# ---------------------------------------------------------------------------
# diagram, witness and scene documents

_BARRED = ("Pbar", "Qbar", "Rbar", "Sbar")


def _vertices(doc: dict, name: str, labels: tuple[str, ...], cls) -> list:
    obj = _object(doc[name], name, labels)
    return [_element(cls, obj[lab], f"{name}.{lab}") for lab in labels]


def _quadrangle(doc: dict, name: str) -> Quadrangle:
    vertices = _vertices(doc, name, VERTEX_LABELS, Point2)
    try:
        return Quadrangle(*vertices)
    except GeometryError as e:
        raise InvariantViolation(f"{name}: {e}") from None


def _barred(doc: dict) -> SpatialQuadrangle:
    """The barred quadrangle: its vertices under "quad", its plane under "plane"."""
    vertices = _vertices(doc, "quad", _BARRED, Point3)
    return SpatialQuadrangle(*vertices, plane=_element(Plane3, doc["plane"], "plane"))


def _barred_fields(quad: SpatialQuadrangle) -> list[tuple[str, str]]:
    return [("quad", _labeled(_BARRED, quad.vertices)), ("plane", _coords(quad.plane))]


def parse_diagram(text: str) -> PlanarDiagram:
    doc = _fields(text, ("O", "quad1", "quad2"))
    O = _element(Point2, doc["O"], "O")
    quad1, quad2 = _quadrangle(doc, "quad1"), _quadrangle(doc, "quad2")
    try:
        return PlanarDiagram(O, quad1, quad2)
    except GeometryError as e:
        raise InvariantViolation(str(e)) from None


def emit_diagram(d: PlanarDiagram) -> str:
    quad1, quad2 = (_labeled(VERTEX_LABELS, q.vertices) for q in (d.quad1, d.quad2))
    return _document([("O", _coords(d.O)), ("quad1", quad1), ("quad2", quad2)])


def parse_witness(text: str) -> Witness:
    doc = _fields(text, ("O1", "O2", "quad", "plane", "drawing_plane"))
    O1, O2 = _element(Point3, doc["O1"], "O1"), _element(Point3, doc["O2"], "O2")
    quad = _barred(doc)
    return Witness(quad, O1, O2, _element(Plane3, doc["drawing_plane"], "drawing_plane"))


def emit_witness(w: Witness) -> str:
    head = [("O1", _coords(w.O1)), ("O2", _coords(w.O2)), *_barred_fields(w.quad)]
    return _document([*head, ("drawing_plane", _coords(w.drawing_plane))])


def parse_scene(text: str) -> SpatialScene:
    doc = _fields(text, ("quad", "plane", "light", "shadow_plane", "viewpoint"))
    quad, light = _barred(doc), _element(Point3, doc["light"], "light")
    shadow_plane = _element(Plane3, doc["shadow_plane"], "shadow_plane")
    node = doc["viewpoint"]
    viewpoint = None if node is None else _element(Point3, node, "viewpoint")
    return SpatialScene(quad, light, shadow_plane, viewpoint)


def emit_scene(s: SpatialScene) -> str:
    viewpoint = "null" if s.viewpoint is None else _coords(s.viewpoint)
    tail = [("light", _coords(s.light)), ("shadow_plane", _coords(s.shadow_plane))]
    return _document([*_barred_fields(s.quad), *tail, ("viewpoint", viewpoint)])


def _traces(key: str, line: Line2, d: PlanarDiagram) -> str:
    """The line under key, then its labeled traces on quad1 and quad2."""
    pairs = [(key, _coords(line))]
    for name, quad in (("quad1", d.quad1), ("quad2", d.quad2)):
        trace = quadrangular_trace(quad, line).labeled()
        pairs.append((name, _labeled(trace, trace.values())))
    return _document(pairs)


# ---------------------------------------------------------------------------
# verdict documents

#: The verdict document's fields after "version", in document order.
_VERDICT = ("applicable", "correct", "degeneracy", "diagonal_pairs", "reason", "witness", "notes")
_BOOL = {True: "true", False: "false"}


def emit_verdict(v: Verdict, witness_ref: str | None = None) -> str:
    deg, pairs = v.degeneracy, v.diagonal_pairs
    coincident = _array([_string(lab) for lab in deg.coincident], "    ")
    values = (
        _BOOL[v.applicable],
        _BOOL[v.correct],
        _members([("kind", _string(deg.kind.value)), ("coincident", coincident)], "  "),
        "null" if pairs is None
        else _members(zip(DiagonalTriangle._LABELS, [_BOOL[p] for p in pairs]), "  "),
        _string(v.reason.value),
        "null" if witness_ref is None else _string(witness_ref),
        _array([_string(n) for n in v.notes], "  "),
    )
    return _document(zip(_VERDICT, values))


def parse_verdict(text: str) -> Verdict:
    doc = _fields(text, _VERDICT)
    for key in ("applicable", "correct"):
        if not isinstance(doc[key], bool):
            raise ParseError(f"{key}: expected a boolean")
    deg = _object(doc["degeneracy"], "degeneracy", ("kind", "coincident"))
    try:
        kind = DegeneracyKind(deg["kind"])
    except ValueError:
        raise ParseError(f"degeneracy.kind: unknown kind {deg['kind']!r}") from None
    coincident = deg["coincident"]
    shared = [v for v in VERTEX_LABELS if isinstance(coincident, list) and v in coincident]
    if coincident != shared:  # distinct vertex labels in label order, as emitted
        raise ParseError("degeneracy.coincident: expected an array of labels")
    pairs = None
    if doc["diagonal_pairs"] is not None:
        pobj = _object(doc["diagonal_pairs"], "diagonal_pairs", DiagonalTriangle._LABELS)
        pairs = tuple(pobj[k] for k in DiagonalTriangle._LABELS)
        if not all(isinstance(p, bool) for p in pairs):
            raise ParseError("diagonal_pairs: expected booleans")
    try:
        reason = Reason(doc["reason"])
    except ValueError:
        raise ParseError(f"reason: unknown reason {doc['reason']!r}") from None
    if doc["witness"] is not None and not isinstance(doc["witness"], str):
        raise ParseError("witness: expected a string or null")
    notes = doc["notes"]
    if not isinstance(notes, list) or not all(isinstance(n, str) for n in notes):
        raise ParseError("notes: expected an array of strings")
    allowed = {3: ("triangle", "vertex"), 4: ("identical",)}.get(len(shared), ("none",))
    if kind.value not in allowed:
        raise InvariantViolation(f"degeneracy: {len(shared)} coincident labels for {kind.value}")
    v = _ruling(pairs, DegeneracyClass(kind, tuple(coincident)), tuple(notes))
    if (v.applicable, v.correct, v.reason) != (doc["applicable"], doc["correct"], reason):
        raise InvariantViolation("applicable, correct, reason: contradict the diagonal pairs")
    return v
