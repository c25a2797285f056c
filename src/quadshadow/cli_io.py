"""Documents and the command line.

Documents are versioned JSON with fixed field names and fixed key order;
every coordinate travels as a rational string ("-7/3", "4") or a JSON
integer, never as a float, so exactness survives the trip through text.
Emitters write canonical form (canonical integer coordinates, laid out
byte for byte as json.dumps with an indent of 2 plus a trailing newline,
ASCII only), and everything emitted re-parses to an equal value; for
already-canonical input, parse followed by emit is byte-identical.

Exit codes: 0 the diagram is correct (or the requested object was
produced), 1 incorrect verdict or a domain failure (no witness, no axis,
degenerate scene), 2 invalid or inapplicable input document, 64 usage
errors, 66 file errors, 70 internal errors (a defect of this program,
reported as one line, never as a traceback).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Sequence, TextIO

from .kernel import (
    GeometryError,
    Line2,
    Plane3,
    Point2,
    Point3,
)
from .quadrangle import (
    VERTEX_LABELS,
    DiagonalTriangle,
    Quadrangle,
    quadrangular_trace,
)
from .perspectivity import common_axis, desargues_axis, perspective_center
from .checker import (
    DegeneracyClass,
    DegeneracyKind,
    PlanarDiagram,
    Reason,
    Verdict,
    decide_depiction,
)
from .lift import (
    SpatialQuadrangle,
    SpatialScene,
    Witness,
    lift_collinear_centers,
    lift_via_axis,
    planarity_certificate,
    project_scene,
)
from .render import render_svg
from .generators import (
    gen_axis_perspective_triangles,
    gen_correct_diagram,
    gen_incorrect_diagram,
    gen_point_perspective_triangles,
)

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
    "run_cli",
]

DOCUMENT_VERSION = 1

#: Longest numerator or denominator, in bits, a document coordinate may have.
_MAX_COORD_BITS = 1024
#: Decimal digits of 2**_MAX_COORD_BITS, so 10**_MAX_COORD_DIGITS is past the bound.
_MAX_COORD_DIGITS = len(str(1 << _MAX_COORD_BITS))
#: A sign and decimal digits, ASCII only, as int() reads them.
_PLAIN_INT = re.compile(r"-?[0-9]+")
#: Longest string the int fast path takes: past any bounded integer, and far
#: below the least int-to-str digit limit an interpreter may set (640).
_MAX_INT_CHARS = _MAX_COORD_DIGITS + 1


class ParseError(Exception):
    """Malformed document; the message carries the offending location."""


class InvariantViolation(Exception):
    """Well-formed document describing an invalid geometric object."""


# ---------------------------------------------------------------------------
# rational plumbing


def _rational(node: Any, path: str) -> int | Fraction:
    """A bounded rational, as an int when it is integral.

    A JSON integer or a short plain decimal integer string goes straight to
    int; every other spelling goes through Fraction, to the same value.
    """
    if type(node) is int or (
        type(node) is str and len(node) <= _MAX_INT_CHARS and _PLAIN_INT.fullmatch(node)
    ):
        value = int(node)
        bits = value.bit_length()
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
    if not isinstance(node, (int, str)):
        raise ParseError(
            f"{path}: coordinates must be rational strings, got {type(node).__name__}"
        )
    if isinstance(node, str):
        # A nonzero m * 10**e with at most len(node) mantissa digits has a
        # numerator or denominator of at least 10**_MAX_COORD_DIGITS once |e|
        # exceeds that plus len(node); reject it before Fraction builds 10**e.
        _, sep, tail = node.lower().rpartition("e")
        try:
            exponent = int(tail) if sep else 0
        except ValueError:
            exponent = 0  # no exponent form: Fraction rejects the string
        if abs(exponent) > _MAX_COORD_DIGITS + len(node):
            raise ParseError(
                f"{path}: exponent {exponent} exceeds the {_MAX_COORD_BITS}-bit bound"
            )
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


def _check_version(doc: dict) -> None:
    version = doc.get("version")
    if type(version) is not int or version != DOCUMENT_VERSION:
        raise ParseError(f"version: expected {DOCUMENT_VERSION}, got {version!r}")


def _element(cls, node: Any, path: str):
    """A kernel element (Point2, Point3, Plane3) from an array of rationals."""
    arity = cls._ARITY
    if not isinstance(node, list) or len(node) != arity:
        raise ParseError(f"{path}: expected an array of {arity} rationals")
    try:
        coords = [_rational(c, path) for c in node]
    except ParseError:
        for i, c in enumerate(node):  # only now name the failing coordinate
            _rational(c, f"{path}[{i}]")
        raise
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
_OPTIONAL_POINT3 = "Point3 or null"

#: Vertex keys and vertex class of the planar and the barred quadrangle.
_QUADS = {Quadrangle: (VERTEX_LABELS, Point2), SpatialQuadrangle: (_BARRED, Point3)}

#: Each document's fields in document order, with the kind of their value:
#: an element class, a quadrangle kind, or _OPTIONAL_POINT3.  A barred
#: quadrangle puts its vertices under its field and its plane under "plane".
_DIAGRAM = {"O": Point2, "quad1": Quadrangle, "quad2": Quadrangle}
_WITNESS = {"O1": Point3, "O2": Point3, "quad": SpatialQuadrangle, "drawing_plane": Plane3}
_SCENE = {
    "quad": SpatialQuadrangle,
    "light": Point3,
    "shadow_plane": Plane3,
    "viewpoint": _OPTIONAL_POINT3,
}


def _build(cls, values: dict, where: str):
    try:
        return cls(**values)
    except GeometryError as e:
        raise InvariantViolation(f"{where}{e}") from None


def _parse_value(kind, doc: dict, name: str):
    node = doc[name]
    if kind is _OPTIONAL_POINT3:
        return None if node is None else _element(Point3, node, name)
    if kind not in _QUADS:
        return _element(kind, node, name)
    labels, vertex_cls = _QUADS[kind]
    obj = _object(node, name, labels)
    values = {lab: _element(vertex_cls, obj[lab], f"{name}.{lab}") for lab in labels}
    if kind is SpatialQuadrangle:
        values["plane"] = _element(Plane3, doc["plane"], "plane")
    return _build(kind, values, f"{name}: ")


def _parse(text: str, cls, fields: dict):
    """Parse a document with the given fields and build cls from their values."""
    keys = ["version"]
    for name, kind in fields.items():
        keys += [name, "plane"] if kind is SpatialQuadrangle else [name]
    doc = _object(_load(text), "document", tuple(keys))
    _check_version(doc)
    values = {name: _parse_value(kind, doc, name) for name, kind in fields.items()}
    return _build(cls, values, "")


def _emit(obj, fields: dict) -> str:
    pairs = []
    for name, kind in fields.items():
        value = getattr(obj, name)
        if kind in _QUADS:
            pairs.append((name, _labeled(_QUADS[kind][0], value.vertices)))
            if kind is SpatialQuadrangle:
                pairs.append(("plane", _coords(value.plane)))
        else:
            pairs.append((name, "null" if value is None else _coords(value)))
    return _document(pairs)


def parse_diagram(text: str) -> PlanarDiagram:
    return _parse(text, PlanarDiagram, _DIAGRAM)


def emit_diagram(d: PlanarDiagram) -> str:
    return _emit(d, _DIAGRAM)


def parse_witness(text: str) -> Witness:
    return _parse(text, Witness, _WITNESS)


def emit_witness(w: Witness) -> str:
    return _emit(w, _WITNESS)


def parse_scene(text: str) -> SpatialScene:
    return _parse(text, SpatialScene, _SCENE)


def emit_scene(s: SpatialScene) -> str:
    return _emit(s, _SCENE)


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
    doc = _object(_load(text), "document", ("version", *_VERDICT))
    _check_version(doc)
    for key in ("applicable", "correct"):
        if not isinstance(doc[key], bool):
            raise ParseError(f"{key}: expected a boolean")
    deg = _object(doc["degeneracy"], "degeneracy", ("kind", "coincident"))
    try:
        kind = DegeneracyKind(deg["kind"])
    except ValueError:
        raise ParseError(f"degeneracy.kind: unknown kind {deg['kind']!r}") from None
    coincident = deg["coincident"]
    if not isinstance(coincident, list) or not all(isinstance(c, str) for c in coincident):
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
    return Verdict(
        applicable=doc["applicable"],
        diagonal_pairs=pairs,
        degeneracy=DegeneracyClass(kind=kind, coincident=tuple(coincident)),
        correct=doc["correct"],
        reason=reason,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# command line


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="quadshadow",
        description="Decide whether a planar diagram depicts a quadrangle "
        "and its shadow, and build spatial witnesses when it does.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verdict for a diagram document")
    p_check.add_argument("input", help="diagram document path")
    p_check.set_defaults(run=_cmd_check)

    p_lift = sub.add_parser("lift", help="spatial witness for a correct diagram")
    p_lift.add_argument("input", help="diagram document path")
    p_lift.add_argument(
        "--method", choices=("centers", "axis"), default="centers",
        help="collinear displaced centers (default) or the common-axis route",
    )
    p_lift.add_argument(
        "--c1", default="1", help="first displacement (rational; use --c1=-2 form)"
    )
    p_lift.add_argument(
        "--c2", default="-1", help="second displacement (rational; use --c2=-1/2 form)"
    )
    p_lift.set_defaults(run=_cmd_lift)

    p_project = sub.add_parser("project", help="diagram presented by a scene document")
    p_project.add_argument("input", help="scene document path")
    p_project.set_defaults(run=_cmd_project)

    p_axis = sub.add_parser("axis", help="common axis and its six labeled traces")
    p_axis.add_argument("input", help="diagram document path")
    p_axis.set_defaults(run=_cmd_axis)

    p_qset = sub.add_parser("qset", help="trace of a line on both quadrangles")
    p_qset.add_argument("input", help="diagram document path")
    p_qset.add_argument("line", help="line coordinates 'a,b,c' (rationals)")
    p_qset.set_defaults(run=_cmd_qset)

    p_fuzz = sub.add_parser("fuzz", help="run a seeded property suite")
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--mode", choices=("correct", "incorrect", "desargues"), default="correct")
    p_fuzz.set_defaults(run=_cmd_fuzz)

    p_render = sub.add_parser("render", help="SVG figure of a diagram")
    p_render.add_argument("input", help="diagram document path")
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.set_defaults(run=_cmd_render)

    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text: {e.reason}") from None


def _argument(text: str, name: str) -> int | Fraction:
    """A rational command-line argument, bounded like a document coordinate."""
    try:
        return _rational(text, name)
    except ParseError as e:
        raise _UsageError(str(e)) from None


def _cmd_check(args, out: TextIO) -> int:
    verdict = decide_depiction(parse_diagram(_read_text(args.input)))
    out.write(emit_verdict(verdict))
    return 0 if verdict.correct else 1 if verdict.applicable else 2


def _cmd_lift(args, out: TextIO) -> int:
    diagram = parse_diagram(_read_text(args.input))
    c1, c2 = _argument(args.c1, "--c1"), _argument(args.c2, "--c2")
    axis = args.method == "axis"
    witness = lift_via_axis(diagram) if axis else lift_collinear_centers(diagram, c1, c2)
    out.write(emit_witness(witness))
    return 0


def _cmd_project(args, out: TextIO) -> int:
    out.write(emit_diagram(project_scene(parse_scene(_read_text(args.input)))))
    return 0


def _traces(key: str, line: Line2, d: PlanarDiagram) -> str:
    """The line under key, then its labeled traces on quad1 and quad2."""
    pairs = [(key, _coords(line))]
    for name, quad in (("quad1", d.quad1), ("quad2", d.quad2)):
        trace = quadrangular_trace(quad, line).labeled()
        pairs.append((name, _labeled(trace, trace.values())))
    return _document(pairs)


def _cmd_axis(args, out: TextIO) -> int:
    diagram = parse_diagram(_read_text(args.input))
    out.write(_traces("axis", common_axis(diagram.quad1, diagram.quad2), diagram))
    return 0


def _cmd_qset(args, out: TextIO) -> int:
    diagram = parse_diagram(_read_text(args.input))
    pieces = args.line.split(",")
    if len(pieces) != 3:
        raise _UsageError(f"line must be 'a,b,c', got {args.line!r}")
    coeffs = [_argument(p.strip(), f"line[{i}]") for i, p in enumerate(pieces)]
    try:
        line = Line2(*coeffs)
    except GeometryError as e:
        raise _UsageError(str(e))
    out.write(_traces("line", line, diagram))
    return 0


def _cmd_fuzz(args, out: TextIO) -> int:
    if args.count <= 0:
        raise _UsageError(f"--count must be positive, got {args.count}")
    failures: list[tuple[int, str]] = []
    for i in range(args.count):
        seed = args.seed + i
        try:
            if args.mode == "correct":
                _, diagram = gen_correct_diagram(seed)
                verdict = decide_depiction(diagram)
                if not verdict.correct:
                    failures.append((seed, f"verdict {verdict.reason.value}"))
            elif args.mode == "incorrect":
                diagram = gen_incorrect_diagram(seed)
                verdict = decide_depiction(diagram)
                if not verdict.applicable or verdict.correct:
                    failures.append((seed, f"verdict {verdict.reason.value}"))
                elif planarity_certificate(diagram).determinant == 0:
                    failures.append((seed, "coplanarity determinant vanished"))
            else:
                _, t1, t2 = gen_point_perspective_triangles(seed)
                desargues_axis(t1, t2)
                _, u1, u2 = gen_axis_perspective_triangles(seed)
                perspective_center(u1, u2)
                desargues_axis(u1, u2)
        except GeometryError as e:
            failures.append((seed, f"{type(e).__name__}: {e}"))
    good = args.count - len(failures)
    noun = {
        "correct": "verdicts correct",
        "incorrect": "verdicts incorrect",
        "desargues": "configurations consistent",
    }[args.mode]
    out.write(f"{good}/{args.count} {noun}\n")
    if failures:
        seed, detail = failures[0]
        out.write(f"first failure: seed {seed}: {detail}\n")
        return 1
    return 0


def _cmd_render(args, out: TextIO) -> int:
    svg = render_svg(parse_diagram(_read_text(args.input)))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def run_cli(argv: Sequence[str], out: TextIO | None = None, err: TextIO | None = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.run(args, out)
    except _UsageError as e:
        err.write(f"error: usage: {e}\n")
        return 64
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except OSError as e:
        err.write(f"error: file: {e}\n")
        return 66
    except (ParseError, InvariantViolation, GeometryError) as e:
        err.write(f"error: {type(e).__name__}: {e}\n")
        return 1 if isinstance(e, GeometryError) else 2
    except Exception as e:  # a defect, not a verdict: never exit 1
        err.write(f"error: internal: {type(e).__name__}: {e}\n")
        return 70


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
