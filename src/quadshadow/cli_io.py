"""The command line.

Each command reads a document (see documents), runs one step of the
pipeline and writes a document.  Exit codes: 0 the diagram is correct (or
the requested object was produced), 1 incorrect verdict or a domain
failure (no witness, no axis, degenerate scene), 2 invalid or inapplicable
input document, 64 usage errors, 66 file errors, 70 internal errors (a
defect of this program, reported as one line, never as a traceback).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from typing import Sequence, TextIO

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
)

__all__ = ["run_cli"]


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
    from .generators import (  # only fuzz draws diagrams; other commands never load them
        gen_axis_perspective_triangles,
        gen_correct_diagram,
        gen_incorrect_diagram,
        gen_point_perspective_triangles,
    )

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
        with redirect_stdout(out):  # argparse prints --help to sys.stdout
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