"""The command line.

Each command reads a document (see documents), runs one step of the
pipeline and writes a document.  Exit codes: 0 the diagram is correct (or
the requested object was produced), 1 incorrect verdict or a domain
failure (no witness, no axis, degenerate scene, or a witness or diagram past
the coordinate bound, which lift and project find by reading their document
back), 2 an invalid input document or check's verdict on an inapplicable
diagram (lift and axis exit 1 on one), 64 usage errors, 66 file errors,
70 internal errors (a defect of this program, reported as one line, never as
a traceback).
"""

from __future__ import annotations

import argparse
import gc
import re
import sys

from .kernel import GeometryError, Line2
from .perspectivity import common_axis, desargues_axis, perspective_center
from .checker import decide_depiction
from .lift import lift_collinear_centers, lift_via_axis, planarity_certificate, project_scene
from .render import render_svg
from .documents import (
    InvariantViolation,
    ParseError,
    _rational,
    _traces,
    emit_diagram,
    emit_verdict,
    emit_witness,
    parse_diagram,
    parse_scene,
    parse_witness,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations: fractions is loaded where a non-integer is read
    from fractions import Fraction
    from typing import Sequence, TextIO

__all__ = ["run_cli"]


class _UsageError(Exception):
    pass


class _Unreadable(Exception):
    """A result that its format's reader refuses, from a valid input: a domain failure."""


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

    def command(name: str, run, help: str, document: str | None = "diagram") -> _Parser:
        p = sub.add_parser(name, help=help)
        if document:
            p.add_argument("input", help=f"{document} document path")
        p.set_defaults(run=run, document=document)
        return p

    command("check", _cmd_check, "verdict for a diagram document")
    p_lift = command("lift", _cmd_lift, "spatial witness for a correct diagram")
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
    command("project", _cmd_project, "diagram presented by a scene document", "scene")
    command("axis", _cmd_axis, "common axis and its six labeled traces")
    p_qset = command("qset", _cmd_qset, "trace of a line on both quadrangles")
    p_qset.add_argument("line", help="line coordinates 'a,b,c' (rationals)")
    p_fuzz = command("fuzz", _cmd_fuzz, "run a seeded property suite", None)
    p_fuzz.add_argument(
        "--count", required=True, type=lambda t: _argument(t, "--count", integer=True))
    p_fuzz.add_argument(
        "--seed", required=True, type=lambda t: _argument(t, "--seed", integer=True))
    p_fuzz.add_argument("--mode", choices=tuple(_FUZZ), default="correct")
    p_render = command("render", _cmd_render, "SVG figure of a diagram")
    p_render.add_argument("--out", required=True, help="output SVG path")
    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"not UTF-8 text: {e.reason}") from None


def _argument(text: str, name: str, integer: bool = False) -> int | Fraction:
    """A rational (or an integer) argument, bounded like a coordinate."""
    if integer and not re.fullmatch(r"[-+]?[0-9]+", text):  # int() takes "٣" and "1_0"
        raise _UsageError(f"{name}: not an integer: {text!r}")
    try:
        return _rational(text, name)
    except ParseError as e:
        raise _UsageError(str(e)) from None


def _read_back(text: str, read) -> str:
    """The text, once its format's reader takes it: a result can pass the coordinate bound."""
    try:
        read(text)
    except ParseError as e:
        raise _Unreadable(str(e)) from None
    return text


def _cmd_check(args, diagram, out: TextIO) -> int:
    verdict = decide_depiction(diagram)
    out.write(emit_verdict(verdict))
    return 0 if verdict.correct else 1 if verdict.applicable else 2


def _cmd_lift(args, diagram, out: TextIO) -> int:
    c1, c2 = _argument(args.c1, "--c1"), _argument(args.c2, "--c2")
    if c1 == c2 or c1 == 0 or c2 == 0:  # for both methods: a bad option, not a domain failure
        raise _UsageError(f"--c1 {c1} and --c2 {c2} must be distinct and nonzero")
    axis = args.method == "axis"
    witness = lift_via_axis(diagram) if axis else lift_collinear_centers(diagram, c1, c2)
    out.write(_read_back(emit_witness(witness), parse_witness))
    return 0


def _cmd_project(args, scene, out: TextIO) -> int:
    out.write(_read_back(emit_diagram(project_scene(scene)), parse_diagram))
    return 0


def _cmd_axis(args, diagram, out: TextIO) -> int:
    out.write(_traces("axis", common_axis(diagram.quad1, diagram.quad2), diagram))
    return 0


def _cmd_qset(args, diagram, out: TextIO) -> int:
    pieces = args.line.split(",")
    if len(pieces) != 3:
        raise _UsageError(f"line must be 'a,b,c', got {args.line!r}")
    coeffs = [_argument(p, f"line[{i}]") for i, p in enumerate(pieces)]
    try:
        line = Line2(*coeffs)
    except GeometryError as e:
        raise _UsageError(str(e))
    out.write(_traces("line", line, diagram))
    return 0


def _fuzz_correct(generators, seed: int) -> str:
    verdict = decide_depiction(generators.gen_correct_diagram(seed)[1])
    return "" if verdict.correct else f"verdict {verdict.reason.value}"


def _fuzz_incorrect(generators, seed: int) -> str:
    # an inapplicable diagram raises NotCorrectDiagram, and a correct one has determinant 0
    certificate = planarity_certificate(generators.gen_incorrect_diagram(seed))
    return "" if certificate.determinant else "coplanarity determinant vanished"


def _fuzz_desargues(generators, seed: int) -> str:
    desargues_axis(*generators.gen_point_perspective_triangles(seed)[1:])
    _, u1, u2 = generators.gen_axis_perspective_triangles(seed)
    perspective_center(u1, u2)
    desargues_axis(u1, u2)
    return ""


#: Each fuzz mode's check, which returns its failure text ("" when it holds), and its noun.
_FUZZ = {
    "correct": (_fuzz_correct, "verdicts correct"),
    "incorrect": (_fuzz_incorrect, "verdicts incorrect"),
    "desargues": (_fuzz_desargues, "configurations consistent"),
}


def _cmd_fuzz(args, _, out: TextIO) -> int:
    if args.count <= 0:
        raise _UsageError(f"--count must be positive, got {args.count}")
    from . import generators  # only fuzz draws diagrams; other commands never load them

    check, noun = _FUZZ[args.mode]
    failures = []
    for seed in range(args.seed, args.seed + args.count):
        try:
            detail = check(generators, seed)
        except GeometryError as e:
            detail = f"{type(e).__name__}: {e}"
        if detail:
            failures.append(f"first failure: seed {seed}: {detail}\n")
    out.write(f"{args.count - len(failures)}/{args.count} {noun}\n")
    out.writelines(failures[:1])
    return 1 if failures else 0


def _cmd_render(args, diagram, out: TextIO) -> int:
    svg = render_svg(diagram)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


#: Built once per process: every run_cli call parses with this same tree.
_PARSER = _build_parser()


def run_cli(argv: Sequence[str], out: TextIO | None = None, err: TextIO | None = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        stdout, sys.stdout = sys.stdout, out  # argparse prints --help to sys.stdout
        try:
            args = _PARSER.parse_args(list(argv))
        finally:
            sys.stdout = stdout
        # The document is read before any other argument is looked at: its errors come first.
        read = {"diagram": parse_diagram, "scene": parse_scene}.get(args.document)
        return args.run(args, read and read(_read_text(args.input)), out)
    except _UsageError as e:
        err.write(f"error: usage: {e}\n")
        return 64
    except _Unreadable as e:
        err.write(f"error: unreadable output: {e}\n")
        return 1
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
    """The entry point of the quadshadow command and of python -m.

    It freezes the collector once the command has run.  The standard streams are
    flushed before the interpreter's final collections, and every file a command
    writes is closed by its with, so no output depends on them.  run_cli does not
    freeze: a caller in process keeps its collector as it was.
    """
    code = run_cli(sys.argv[1:])
    gc.freeze()  # the process ends here: spare its final collections a walk over every object
    sys.exit(code)


if __name__ == "__main__":
    main()