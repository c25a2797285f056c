"""Document serialization, the command line, and SVG rendering.

Every reader is held to reference_rational, the fraction reader: a corpus of spellings
(plain, signed, padded, fractional, exponent, non-ASCII and out-of-bound integers, JSON
integers, booleans, arrays) sits at the first, a middle and the last coordinate of a
diagram, a witness and a scene, each read as compact JSON and in the writer's layout, and
every value or error text must be the fraction reader's.  A diagram in the writer's layout
is read without json.loads; a diagram one byte or one spelling off it, and every witness or
scene, goes through json once, and the error raised is the first in document order either
way.  Every emitter is held to json.dumps with an indent of 2, and the golden files in
tests/data pin the bytes; test_readme holds the README's command lines to most of them.
"""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import xml.dom.minidom
from fractions import Fraction as F
from pathlib import Path

import pytest

import quadshadow.cli_io
import quadshadow.documents
import quadshadow.generators
import quadshadow.lift
import quadshadow.perspectivity
from quadshadow.kernel import Point2, meet2
from quadshadow.quadrangle import Quadrangle
from quadshadow.perspectivity import common_axis, side_axes
from quadshadow.checker import DegeneracyKind, PlanarDiagram, Reason, decide_depiction
from quadshadow.generators import (
    GenConfig,
    gen_correct_diagram,
    gen_degenerate_diagram,
    gen_general_position_diagram,
    gen_incorrect_diagram,
)
from quadshadow.lift import (
    DegenerateScene,
    lift_collinear_centers,
    lift_via_axis,
    project_scene,
    scene_from_witness,
    verify_witness,
)
from quadshadow.cli_io import (
    InvariantViolation,
    ParseError,
    _argument,
    _rational,
    _UsageError,
    emit_diagram,
    emit_verdict,
    emit_witness,
    parse_diagram,
    parse_scene,
    render_svg,
    run_cli,
)
from quadshadow.documents import _fraction, emit_scene, parse_witness

from figures import A, DATA, DIAGRAM, frozen_render_pool, replace

DILATION = DATA / "dilation.json"
WITNESS = DATA / "witness.json"
SCENE = DATA / "scene.json"
GENERAL = DATA / "general-axis.json"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


# --- document round-trips -----------------------------------------------------

def test_diagram_round_trip_is_byte_identical():
    text = DILATION.read_text()
    assert parse_diagram(text) == DIAGRAM  # the golden is the worked figure
    assert emit_diagram(parse_diagram(text)) == text


def test_witness_round_trip_is_byte_identical():
    text = WITNESS.read_text()
    assert emit_witness(parse_witness(text)) == text


def test_lifted_witnesses_equal_their_round_trip():
    d = gen_general_position_diagram(0, correct=True)
    for w in (lift_collinear_centers(d), lift_via_axis(d)):
        assert parse_witness(emit_witness(w)) == w


def test_scene_round_trip_is_byte_identical():
    text = SCENE.read_text()
    assert emit_scene(parse_scene(text)) == text
    doc = json.loads(text)
    doc["viewpoint"] = None
    text = json.dumps(doc, indent=2) + "\n"
    scene = parse_scene(text)
    assert scene.viewpoint is None
    assert emit_scene(scene) == text


def test_emit_canonicalizes_coordinates():
    doc = json.loads(DILATION.read_text())
    doc["O"] = ["6/2", "0/5", "2/2"]  # same point as ["3", "0", "1"]
    d = parse_diagram(json.dumps(doc))
    assert d.O == A(3, 0)
    assert json.loads(emit_diagram(d))["O"] == ["3", "0", "1"]


def test_rationals_are_strings_in_documents():
    doc = json.loads(WITNESS.read_text())
    assert all(isinstance(c, str) for c in doc["O1"])
    assert doc["version"] == 1
    assert WITNESS.read_text().endswith("}\n")


# --- parse rejections -----------------------------------------------------------

def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError) as exc:
        parse_diagram("{not json")
    assert "line 1" in str(exc.value)


def test_parse_rejects_wrong_version():
    doc = json.loads(DILATION.read_text())
    doc["version"] = 2
    with pytest.raises(ParseError):
        parse_diagram(json.dumps(doc))


@pytest.mark.parametrize("version", [True, 1.0, "1"])
@pytest.mark.parametrize(
    "parse, path", [(parse_diagram, DILATION), (parse_witness, WITNESS), (parse_scene, SCENE)]
)
def test_parse_rejects_a_version_that_is_not_the_integer_one(parse, path, version):
    doc = json.loads(path.read_text())
    doc["version"] = version
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == f"version: expected 1, got {version!r}"


def test_parse_rejects_missing_and_unknown_fields():
    doc = json.loads(DILATION.read_text())
    del doc["O"]
    with pytest.raises(ParseError):
        parse_diagram(json.dumps(doc))
    doc = json.loads(DILATION.read_text())
    doc["extra"] = 1
    with pytest.raises(ParseError):
        parse_diagram(json.dumps(doc))


def test_parse_rejects_non_string_coordinates():
    doc = json.loads(DILATION.read_text())
    doc["O"] = [3.0, 0, 1]
    with pytest.raises(ParseError):
        parse_diagram(json.dumps(doc))
    doc["O"] = [True, False, True]
    with pytest.raises(ParseError):
        parse_diagram(json.dumps(doc))


def test_parse_rejects_geometric_invariant_violations():
    doc = json.loads(DILATION.read_text())
    doc["O"] = doc["quad1"]["P"]  # center equal to a vertex
    with pytest.raises(InvariantViolation):
        parse_diagram(json.dumps(doc))
    doc = json.loads(DILATION.read_text())
    doc["quad1"]["Q"] = doc["quad1"]["P"]
    with pytest.raises(InvariantViolation):
        parse_diagram(json.dumps(doc))
    doc = json.loads(DILATION.read_text())
    doc["O"] = ["0", "0", "0"]
    with pytest.raises(InvariantViolation):
        parse_diagram(json.dumps(doc))


@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize(
    "bad, message",
    [
        ("x", "not a rational: 'x'"),
        (1.5, "coordinates must be rational strings, got 1.5"),
        ("1e99999", "exponent 99999 exceeds the 1024-bit bound"),
        (str(2**1024), "a 1025-bit rational exceeds the 1024-bit bound"),
    ],
)
def test_parse_error_names_the_failing_coordinate(i, bad, message):
    doc = json.loads(DILATION.read_text())
    doc["quad2"]["R"][i] = bad
    with pytest.raises(ParseError) as info:
        parse_diagram(json.dumps(doc))
    assert str(info.value) == f"quad2.R[{i}]: {message}"


# --- emitted text is what json.dumps with an indent of 2 writes -------------------

def _assert_as_json_dumps(text):
    """The old encoder is the reference: re-encoding the parsed text with
    json.dumps(indent=2) must give back every byte."""
    assert text == json.dumps(json.loads(text), indent=2) + "\n", text
    assert text.isascii()


def test_emitted_documents_match_json_dumps():
    # diagrams from every diagram generator, verdicts of every reason,
    # witnesses of both lift routes and scenes with and without a viewpoint
    verdicts = []
    for seed in range(30):
        scene, d = gen_correct_diagram(seed)
        _assert_as_json_dumps(emit_scene(scene))
        _assert_as_json_dumps(emit_scene(replace(scene, viewpoint=None)))
        general = [gen_general_position_diagram(seed, correct=c) for c in (True, False)]
        other = gen_incorrect_diagram(seed)
        degenerate = [
            gen_degenerate_diagram(seed, kind=k)
            for k in (DegeneracyKind.TRIANGLE, DegeneracyKind.VERTEX)
        ]
        for diagram in (d, other, *general, *degenerate):
            _assert_as_json_dumps(emit_diagram(diagram))
            verdicts.append(decide_depiction(diagram))
        verdicts.append(decide_depiction(PlanarDiagram(d.O, d.quad1, d.quad1)))
        verdicts.append(decide_depiction(PlanarDiagram(d.O, d.quad1, other.quad2)))
        lifts = (
            lift_collinear_centers(d),
            lift_collinear_centers(general[0], 2, F(-1, 3)),
            lift_via_axis(general[0]),
        )
        for w in lifts:
            _assert_as_json_dumps(emit_witness(w))
            _assert_as_json_dumps(emit_scene(scene_from_witness(w)))
    for v in verdicts:
        _assert_as_json_dumps(emit_verdict(v))
    # every shape of verdict was written: no diagonal pairs, coincident
    # labels and notes, and every reason (a generated incorrect diagram
    # fails its A pair, so the B and C reasons never come first)
    assert any(v.diagonal_pairs is None for v in verdicts)
    assert any(v.degeneracy.coincident and v.notes for v in verdicts)
    assert {v.reason for v in verdicts} == set(Reason) - {Reason.DIAGONAL_B, Reason.DIAGONAL_C}


def test_coordinates_at_the_bound_and_zero_match_json_dumps(tmp_path):
    big = 2**1024 - 1
    d = parse_diagram(DILATION.read_text())
    for O in (Point2(big, 0, 1), Point2(-big, 1, 0), Point2(0, -big, big - 2)):
        _assert_as_json_dumps(emit_diagram(replace(d, O=O)))
    p = _shrunk_square(tmp_path, f"1/{big}")
    code, out, _ = run("lift", str(p))
    assert code == 0 and max(len(c) for c in re.findall(r'"(-?[0-9]+)"', out)) > 300
    _assert_as_json_dumps(out)


def test_axis_and_qset_documents_match_json_dumps(tmp_path):
    written = 0
    for seed in range(20):
        path = tmp_path / f"d{seed}.json"
        path.write_text(emit_diagram(gen_general_position_diagram(seed, correct=True)))
        for argv in (("axis", str(path)), ("qset", str(path), "7,-3,1000003")):
            code, out, _ = run(*argv)
            if code == 0:
                _assert_as_json_dumps(out)
                written += 1
    assert written > 30


# --- exit codes -------------------------------------------------------------------

@pytest.mark.parametrize("name, status", [("vertex-degenerate", 1)])  # the README checks the rest
def test_check_matches_golden_verdict(name, status):
    expected = (DATA / f"{name}-verdict.json").read_text()
    assert run("check", str(DATA / f"{name}.json")) == (status, expected, "")


def test_vertex_degenerate_golden_is_generated():
    d = gen_degenerate_diagram(0, kind=DegeneracyKind.VERTEX)
    assert emit_diagram(d) == (DATA / "vertex-degenerate.json").read_text()
    v = decide_depiction(d)
    assert v.degeneracy.coincident and len(v.notes) == 2


def _off_ray(tmp_path):
    """The dilation with quad2's Q moved off the ray through O and Q1: inapplicable."""
    doc = json.loads(DILATION.read_text())
    doc["quad2"]["Q"] = ["-9", "4", "1"]
    p = tmp_path / "off.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_check_inapplicable_diagram_exits_two(tmp_path):
    code, out, _ = run("check", _off_ray(tmp_path))
    assert code == 2
    parsed = json.loads(out)
    assert parsed["applicable"] is False
    assert parsed["diagonal_pairs"] is None


def test_lift_and_axis_exit_one_on_an_inapplicable_diagram(tmp_path):
    # only check exits 2 for an inapplicable diagram: to lift and axis it is a domain failure
    off = _off_ray(tmp_path)
    for method in ("centers", "axis"):
        assert run("lift", off, f"--method={method}") == (
            1, "", "error: NotCorrectDiagram: diagram is not correct (not_perspective)\n")
    code, out, err = run("axis", off)
    assert (code, out) == (1, "")
    assert err.startswith("error: NotPerspective: ")


def test_invalid_document_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"version": 1}')
    code, _, err = run("check", str(p))
    assert code == 2
    assert "error:" in err


_UTF16 = ("\ufeff" + DILATION.read_text()).encode("utf-16-le")  # starts with bytes FF FE
_VERSION_TRUE = json.dumps({**json.loads(DILATION.read_text()), "version": True})
_QUAD1_ARRAY = json.dumps({**json.loads(DILATION.read_text()), "quad1": [["0", "0", "1"]]})
_O_STRING = json.dumps({**json.loads(DILATION.read_text()), "O": "0"})
#: json.loads keeps the last of two equal keys; the reader rejects the text instead.
_REPEATED_O = '{"O": ["9", "9", "1"], ' + DILATION.read_text()[1:]
_O_REPEATED_AFTER = DILATION.read_text().rstrip()[:-1] + ', "O": ["9", "9", "1"]}'
_VERSION_TWO_THEN_ONE = '{"version": 2, ' + DILATION.read_text()[1:]
_REPEATED_P = DILATION.read_text().replace('"P": [', '"P": ["9", "9", "1"], "P": [', 1)


@pytest.mark.parametrize(
    "content, message",
    [
        (_UTF16, "not UTF-8 text: invalid start byte"),
        # json.loads's depth limit is the interpreter's: 3.13 decodes 5 000 levels, so a
        # text must be deeper than any supported Python reads to pin the message
        (b"[" * 20_000 + b"]" * 20_000, "arrays or objects are nested too deeply"),
        (b"[" * 100_000 + b"]" * 100_000, "arrays or objects are nested too deeply"),
        (_VERSION_TRUE.encode(), "version: expected 1, got True"),
        (_QUAD1_ARRAY.encode(), "quad1: expected an object"),
        (_O_STRING.encode(), "O: expected an array of 3 rationals"),
        (_REPEATED_O.encode(), "document: repeated field 'O'"),
        (_O_REPEATED_AFTER.encode(), "document: repeated field 'O'"),
        (_VERSION_TWO_THEN_ONE.encode(), "document: repeated field 'version'"),
        (_REPEATED_P.encode(), "quad1: repeated field 'P'"),
    ],
    ids=["utf-16", "20000-deep", "100000-deep", "version-true", "quad1-array", "O-string",
         "O-before-O", "O-after-O", "version-2-then-1", "quad1-P-repeated"],
)
def test_malformed_file_exits_two(tmp_path, content, message):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    assert run("check", str(p)) == (2, "", f"error: ParseError: {message}\n")


def test_usage_errors_exit_sixty_four():
    code, _, err = run("frobnicate")
    assert code == 64
    assert "usage:" in err
    code, _, err = run("fuzz", "--count", "5")  # missing --seed
    assert code == 64
    code, _, err = run("qset", str(DILATION), "1,2")  # two coordinates
    assert code == 64
    code, _, err = run("qset", str(DILATION), "0,0,0")
    assert code == 64


def test_missing_file_exits_sixty_six():
    code, _, err = run("check", "no/such/file.json")
    assert code == 66
    assert "error:" in err


def test_a_directory_as_input_exits_sixty_six(tmp_path):
    code, out, err = run("check", str(tmp_path))
    assert (code, out) == (66, "")
    assert err.startswith("error: file: ")


def test_render_into_a_missing_directory_exits_sixty_six_and_writes_nothing(tmp_path):
    code, out, err = run("render", str(DILATION), "--out", str(tmp_path / "no" / "d.svg"))
    assert (code, out) == (66, "")
    assert err.startswith("error: file: ")
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    # the help goes to the stream given to run_cli, not to sys.stdout
    code, out, _ = run("--help")
    assert code == 0 and out.startswith("usage: quadshadow [-h]")
    code, out, _ = run("lift", "--help")
    assert code == 0 and out.startswith("usage: quadshadow lift") and "--method" in out
    assert capsys.readouterr() == ("", "")


def test_help_texts_are_frozen(monkeypatch):
    # sha256 of the top-level help and of each subcommand's, 80 columns wide
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in ([], ["check"], ["lift"], ["project"], ["axis"], ["qset"], ["fuzz"], ["render"]):
        code, out, err = run(*argv, "--help")
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "5d6c324e2998c1e5d739f027c4c0746c207f03bd03a820b8a04f64b5776d942c"
    )


def test_the_document_is_read_before_any_other_argument(tmp_path):
    # a bad document exits 2 before a bad --c1, a bad qset line or an
    # unwritable --out is looked at
    doc = json.loads(DILATION.read_text())
    del doc["O"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    missing_o = "error: ParseError: document: missing field 'O'\n"
    for argv in (
        ("lift", str(bad), "--c1", "nope"),
        ("qset", str(bad), "1,2"),
        ("render", str(bad), "--out", str(tmp_path / "no" / "x.svg")),
    ):
        assert run(*argv) == (2, "", missing_o)
    scene = json.loads(SCENE.read_text())
    del scene["quad"]
    bad.write_text(json.dumps(scene))
    assert run("project", str(bad)) == (
        2, "", "error: ParseError: document: missing field 'quad'\n"
    )


def _python(*args):
    """Run python -W error with the package's source on the path."""
    src = str(Path(quadshadow.lift.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def _python_m(module, *argv):
    return _python("-m", module, *argv)


def test_python_dash_m_runs_the_command_line():
    # through the package's __main__
    proc = _python_m("quadshadow", "check", str(DILATION))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == run("check", str(DILATION))[1].encode()


def test_python_dash_m_runs_cli_io_without_a_warning():
    # the package does not import cli_io, so runpy runs it once, as __main__
    proc = _python_m("quadshadow.cli_io", "check", str(DILATION))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (DATA / "dilation-verdict.json").read_bytes()


def test_one_parser_serves_every_call_as_a_fresh_process_would(monkeypatch):
    # the argparse tree is built once per process, so later calls build no
    # parser, and a call after another answers as a fresh process does
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the children
    calls = [("check", str(DILATION)), ("lift", "--help")]
    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "__init__", lambda *a, **k: pytest.fail("rebuilt"))
        in_process = [run(*argv) for argv in calls]
    fresh = [_python_m("quadshadow", *argv) for argv in calls]
    assert [(c, o.encode(), e.encode()) for c, o, e in in_process] == [
        (proc.returncode, proc.stdout, proc.stderr) for proc in fresh
    ]
    assert in_process[1][1].startswith("usage: quadshadow lift")


def test_domain_failure_exits_one():
    # the dilation is correct but not in general position, so the axis
    # route has no witness to offer
    code, _, err = run("lift", str(DILATION), "--method", "axis")
    assert code == 1
    assert "error:" in err


# --- subcommand behavior --------------------------------------------------------------

def test_axis_lift_matches_stored_witness():
    # the README lifts general-axis.json by the axis route to general-axis-witness.json
    assert GENERAL.read_text() == emit_diagram(gen_general_position_diagram(0, correct=True))


def test_lift_rejects_equal_displacements():
    code, _, err = run("lift", str(DILATION), "--c1", "2", "--c2", "2")
    assert code == 64
    code, _, err = run("lift", str(DILATION), "--c1", "nope")
    assert code == 64


@pytest.mark.parametrize("method", ["centers", "axis"])
@pytest.mark.parametrize(
    "options, c1, c2",
    [
        (["--c1=0"], 0, -1),
        (["--c2=0/5"], 1, 0),
        (["--c1=1", "--c2=1"], 1, 1),
        (["--c1=-1"], -1, -1),
        (["--c1=1/2", "--c2=2/4"], F(1, 2), F(1, 2)),
    ],
)
def test_lift_degenerate_displacements_are_usage_errors(tmp_path, method, options, c1, c2):
    # exit 1 means an incorrect diagram or a domain failure, never a bad option
    for diagram in (DILATION, GENERAL):
        code, out, err = run("lift", f"--method={method}", *options, str(diagram))
        assert (code, out) == (64, "")
        assert err == f"error: usage: --c1 {c1} and --c2 {c2} must be distinct and nonzero\n"
    # the document is read first: an invalid one still exits 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1}')
    code, out, err = run("lift", f"--method={method}", *options, str(bad))
    assert (code, out, err) == (2, "", "error: ParseError: document: missing field 'O'\n")
    # library callers still see the domain error
    with pytest.raises(quadshadow.lift.DegenerateParameters):
        quadshadow.lift.lift_collinear_centers(parse_diagram(DILATION.read_text()), c1, c2)


def test_axis_document_frozen():
    # the README writes this golden with axis on the dilation
    doc = json.loads((DATA / "dilation-axis.json").read_text())
    assert doc["axis"] == ["0", "0", "1"]
    assert doc["quad1"]["QR"] == ["0", "1", "0"]
    assert doc["quad1"] == doc["quad2"]


def test_axis_fails_for_incorrect_diagram():
    code, _, err = run("axis", str(DATA / "perturbed.json"))
    assert code == 1


def test_qset_traces_both_quadrangles():
    # the README writes this golden with qset on the dilation and the line 0,0,1
    doc = json.loads((DATA / "dilation-qset.json").read_text())
    assert doc["line"] == ["0", "0", "1"]
    assert doc["quad1"]["PQ"] == ["1", "0", "0"]
    assert doc["quad1"]["SQ"] == ["1", "-1", "0"]
    assert doc["quad1"]["RP"] == ["1", "1", "0"]
    assert set(doc["quad2"]) == {"QR", "RP", "PQ", "SP", "SQ", "SR"}


def test_qset_rejects_line_through_vertex():
    code, _, err = run("qset", str(DILATION), "1,-1,0")  # through P1
    assert code == 1


def test_fuzz_summary_lines():
    code, out, _ = run("fuzz", "--count", "5", "--seed", "3")
    assert code == 0
    assert out == "5/5 verdicts correct\n"
    code, out, _ = run("fuzz", "--count", "4", "--seed", "9", "--mode", "incorrect")
    assert code == 0
    assert out == "4/4 verdicts incorrect\n"
    code, out, _ = run("fuzz", "--count", "4", "--seed", "1", "--mode", "desargues")
    assert code == 0
    assert out == "4/4 configurations consistent\n"
    # seed 217 once drew an axis-perspective pair with no Desargues axis
    code, out, _ = run("fuzz", "--count", "1", "--seed", "217", "--mode", "desargues")
    assert (code, out) == (0, "1/1 configurations consistent\n")
    code, _, _ = run("fuzz", "--count", "0", "--seed", "1")
    assert code == 64


@pytest.mark.parametrize(
    "spelling", [" 2", "1_0", "\u0663", "\uff13", "+-2", "-+2", "++2"],
    ids=[
        "space", "underscore", "arabic-indic", "fullwidth", "plus-minus", "minus-plus", "plus-plus"
    ],
)
@pytest.mark.parametrize("option", ["--count", "--seed"])
def test_fuzz_integers_spelled_outside_ascii_digits_are_rejected(option, spelling):
    # int() reads the first four as 2, 10, 3 and 3, and Fraction none of the stacked signs;
    # the options take one optional sign and ASCII digits only
    given = {"--count": "2", "--seed": "0", option: spelling}
    code, out, err = run("fuzz", *(f"{name}={value}" for name, value in given.items()))
    assert (code, out) == (64, "")
    assert err == f"error: usage: {option}: not an integer: {spelling!r}\n"


def test_fuzz_integers_keep_their_ascii_spellings():
    assert run("fuzz", "--count", "+2", "--seed", "-1")[:2] == (0, "2/2 verdicts correct\n")
    assert run("fuzz", "--count", "2", "--seed", "+007")[:2] == run(
        "fuzz", "--count", "2", "--seed", "7"
    )[:2]
    code, out, err = run("fuzz", "--count", "1.0", "--seed", "0")
    assert (code, out, err) == (64, "", "error: usage: --count: not an integer: '1.0'\n")


def test_fuzz_reports_the_first_wrong_verdict(monkeypatch):
    def correct_but_seed_four(seed):
        return (None, gen_incorrect_diagram(seed)) if seed == 4 else gen_correct_diagram(seed)

    monkeypatch.setattr(quadshadow.generators, "gen_correct_diagram", correct_but_seed_four)
    code, out, _ = run("fuzz", "--count", "6", "--seed", "0")
    assert code == 1
    assert out == "5/6 verdicts correct\nfirst failure: seed 4: verdict diagonal_pair_a\n"


def test_fuzz_incorrect_reports_a_diagram_that_is_not_incorrect(monkeypatch):
    # a correct diagram's rays meet in coplanar points; a diagram that is not
    # vertex-perspective has no planarity certificate at all
    def skew(seed):
        d = gen_incorrect_diagram(seed)
        return PlanarDiagram(d.O, d.quad1, gen_incorrect_diagram(seed + 1).quad2)

    for generator, detail in [
        (lambda seed: gen_correct_diagram(seed)[1], "coplanarity determinant vanished"),
        (skew, "NotCorrectDiagram: diagram is not vertex-perspective; rays would be skew"),
    ]:
        monkeypatch.setattr(quadshadow.generators, "gen_incorrect_diagram", generator)
        code, out, _ = run("fuzz", "--count", "2", "--seed", "0", "--mode", "incorrect")
        assert (code, out) == (1, f"0/2 verdicts incorrect\nfirst failure: seed 0: {detail}\n")


def test_fuzz_reports_a_raised_geometry_error(monkeypatch):
    def no_retries(seed):
        return gen_correct_diagram(seed, GenConfig(max_retries=0))

    monkeypatch.setattr(quadshadow.generators, "gen_correct_diagram", no_retries)
    code, out, _ = run("fuzz", "--count", "1", "--seed", "0")
    assert (code, out) == (
        1,
        "0/1 verdicts correct\n"
        "first failure: seed 0: RetriesExhausted: no valid scene within the retry budget\n",
    )


# --- rendering --------------------------------------------------------------------------

def test_axis_lift_and_render_build_the_side_axes_once(monkeypatch):
    doc = emit_diagram(gen_general_position_diagram(0, correct=True))
    g, again, bare = (parse_diagram(doc) for _ in range(3))
    q1, q2 = g.quad1, g.quad2
    calls = []

    def counting_meet2(l, m):
        calls.append((l, m))
        return meet2(l, m)

    monkeypatch.setattr(quadshadow.perspectivity, "meet2", counting_meet2)
    axes = side_axes(q1, q2)
    assert common_axis(q1, q2) == axes.s
    lift_via_axis(g)
    svg = render_svg(g)
    assert len(calls) == 6
    assert side_axes(q1, q2) is axes
    # the kept axes are not a field: equality, hashing and repr ignore them
    assert (q1 == bare.quad1, hash(q1), repr(q1)) == (True, hash(bare.quad1), repr(bare.quad1))
    # an equal diagram parsed again shares nothing
    side_axes(again.quad1, again.quad2)
    common_axis(again.quad1, again.quad2)
    lift_via_axis(again)
    assert render_svg(again) == svg
    assert len(calls) == 12
    # another partner, even an equal one, replaces the kept axes
    assert side_axes(q1, again.quad2) == axes
    recomputed = side_axes(q1, q2)
    assert len(calls) == 24
    assert recomputed == axes and recomputed is not axes
    monkeypatch.undo()
    assert svg == render_svg(parse_diagram(doc))


def test_render_writes_well_formed_svg(tmp_path):
    target = tmp_path / "figure.svg"
    code, _, _ = run("render", str(DILATION), "--out", str(target))
    assert code == 0
    svg = target.read_text()
    xml.dom.minidom.parseString(svg)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


def test_render_marker_and_arrow_counts_for_the_dilation():
    svg = render_svg(parse_diagram(DILATION.read_text()))
    assert svg.count('class="vertex"') == 8
    assert svg.count('class="center"') == 1
    # B1=(0,0) and B2=(-3,0); the other diagonal points are ideal
    assert svg.count('class="diagonal"') == 2
    # two shared ideal diagonal directions plus the ideal axis
    assert svg.count('<g class="arrow">') == 3
    assert ">o</text>" in svg
    assert "A1=A2" in svg and "C1=C2" in svg


def test_render_affine_diagram_has_no_arrows():
    d = gen_general_position_diagram(0, correct=True)
    svg = render_svg(d)
    assert '<g class="arrow">' not in svg
    assert svg.count('class="vertex"') + svg.count('class="diagonal"') >= 10
    xml.dom.minidom.parseString(svg)


def test_render_merges_coincident_labels():
    svg = render_svg(parse_diagram(DILATION.read_text()))
    # every marker label is unique in the picture
    assert svg.count(">B1</text>") == 1
    assert svg.count(">B2</text>") == 1


@pytest.mark.parametrize("name", ["perturbed"])  # the README renders the dilation
def test_render_matches_golden_svg(name):
    d = parse_diagram((DATA / f"{name}.json").read_text())
    assert render_svg(d) == (DATA / f"{name}.svg").read_text()


def test_render_outputs_are_frozen():
    # sha256 of the SVGs of generated diagrams and both golden documents
    # (ideal points, an ideal axis, merged labels); any change to a
    # chord, a marker, a number's formatting or the layering moves it.
    diagrams = frozen_render_pool()
    assert len(diagrams) == 402
    digest = hashlib.sha256()
    for d in diagrams:
        digest.update(render_svg(d).encode())
    assert digest.hexdigest() == (
        "3faf6288d5d57c93c49e14e616369642034b1c19153c68c0b6b0ec63f2e8b3cd"
    )


def test_witness_outputs_are_frozen():
    # sha256 of both lifts of general-position seeds 0-99, every clause of
    # verify_witness (also with the centers swapped, so the projection
    # clauses fail and print their images), and the diagram each witness
    # presents seen from O2 and through the drawing plane's chart.
    digest = hashlib.sha256()
    for seed in range(100):
        d = gen_general_position_diagram(seed, correct=True)
        for w in (lift_collinear_centers(d), lift_via_axis(d)):
            digest.update(emit_witness(w).encode())
            for claim in (w, replace(w, O1=w.O2, O2=w.O1)):
                for c in verify_witness(d, claim).clauses:
                    digest.update(f"{c.name}|{c.ok}|{c.detail}\n".encode())
            scene = scene_from_witness(w)
            for s in (scene, replace(scene, viewpoint=None)):
                try:
                    digest.update(emit_diagram(project_scene(s)).encode())
                except DegenerateScene as e:
                    digest.update(f"DegenerateScene: {e}\n".encode())
    assert digest.hexdigest() == (
        "c96e51d1e5f9f4207761dbb7eedfe51fb1fb6f24bfdee67ada93bcbd0cd14209"
    )


def _render_document(tmp_path, doc) -> str:
    """Render a diagram document through the command line; exit 0 and
    well-formed XML without inf or nan are required."""
    source, target = tmp_path / "figure.json", tmp_path / "figure.svg"
    source.write_text(json.dumps(doc))
    assert run("render", str(source), "--out", str(target)) == (0, "", "")
    svg = target.read_text()
    xml.dom.minidom.parseString(svg)
    assert "inf" not in svg and "nan" not in svg
    return svg


def _assert_inside_viewbox(svg: str, xs: str, ys: str) -> None:
    """Every attribute named in xs lies in [0, width], in ys in [0, height]."""
    root = xml.dom.minidom.parseString(svg).documentElement
    width, height = (float(v) for v in root.getAttribute("viewBox").split()[2:])
    for element in root.getElementsByTagName("*"):
        for names, bound in ((xs, width), (ys, height)):
            for name in names.split():
                if element.hasAttribute(name):
                    value = float(element.getAttribute(name))
                    assert 0 <= value <= bound, (element.toxml(), bound)


def test_every_command_runs_near_the_coordinate_bound(tmp_path):
    # a dilation about the origin keeps the diagram correct and in general position;
    # before normalize cancels common powers of two, the largest coordinate has 1017 bits
    def dilated(p):
        x0, x1, x2 = p.coords
        return Point2(x0 << 1000, x1 << 1000, x2)

    d = gen_general_position_diagram(0, correct=True)
    quads = (Quadrangle(*map(dilated, q.vertices)) for q in (d.quad1, d.quad2))
    huge = PlanarDiagram(dilated(d.O), *quads)
    points = (huge.O, *huge.quad1.vertices, *huge.quad2.vertices)
    assert max(abs(c).bit_length() for p in points for c in p.coords) == 1016
    source, svg = tmp_path / "huge.json", tmp_path / "huge.svg"
    source.write_text(emit_diagram(huge))
    g = parse_diagram(source.read_text())
    for argv in (
        ["check"], ["lift"], ["lift", "--method", "axis"], ["axis"], ["render", "--out", str(svg)]
    ):
        code, out, err = run(*argv, str(source))
        assert (code, err) == (0, ""), argv
        if argv[0] == "lift":
            assert verify_witness(g, parse_witness(out)).passed, argv


def test_render_huge_figure_exits_zero(tmp_path):
    # within the coordinate bound, but the figure's extent overflows a float
    n = str(2**1000)
    doc = json.loads(DILATION.read_text())
    doc["quad1"]["P"] = [n, "1", "1/" + n]
    _render_document(tmp_path, doc)


def test_render_tiny_figure_is_rescaled_exactly(tmp_path):
    # the dilation shrunk by 2**-1018: 640 over its extent overflows a float
    doc = json.loads(DILATION.read_text())
    for point in [doc["O"], *doc["quad1"].values(), *doc["quad2"].values()]:
        point[2] = str(int(point[2]) * 2**1018)
    svg = _render_document(tmp_path, doc)
    _assert_inside_viewbox(svg, "x x1 x2 cx", "y y1 y2 cy")
    # a power-of-two scaling is exact, so the picture is the dilation's
    assert svg == (DATA / "dilation.svg").read_text()


@pytest.mark.parametrize("k", [-1000, -7, 3, 900])
def test_render_is_invariant_under_power_of_two_scaling(tmp_path, k):
    # scaling by 2**k commutes with correctly rounded division, so the bytes hold
    doc = json.loads((DATA / "perturbed.json").read_text())
    for point in [doc["O"], *doc["quad1"].values(), *doc["quad2"].values()]:
        if k > 0:
            point[0], point[1] = (str(int(c) * 2**k) for c in point[:2])
        else:
            point[2] = str(int(point[2]) * 2**-k)
    assert _render_document(tmp_path, doc) == (DATA / "perturbed.svg").read_text()


def test_render_huge_ideal_direction_exits_zero(tmp_path):
    # squaring the direction (2**600 : 1 : 0) overflows a float
    doc = json.loads(DILATION.read_text())
    doc["quad1"]["P"] = [str(2**600), "1", "0"]
    assert '<g class="arrow">' in _render_document(tmp_path, doc)


@pytest.mark.parametrize(
    "P",
    [[str(2**1000), "1", "1/" + str(2**1000)], [str(2**1024 - 1), "1", "0"]],
    ids=["zero-height-canvas", "ideal-direction-2**1024-1"],
)
def test_render_keeps_markers_labels_and_arrow_tips_in_the_viewbox(tmp_path, P):
    # the first figure is so flat that its canvas is 0 high, so labels
    # offset upwards left it; the second direction's y is a subnormal
    # float, so the arrow's run to the top edge was -inf
    doc = json.loads(DILATION.read_text())
    doc["quad1"]["P"] = P
    svg = _render_document(tmp_path, doc)
    # x2/y2: chords end on the canvas edge and arrows at their tips
    _assert_inside_viewbox(svg, "x x2 cx", "y y2 cy")


# --- internal errors ----------------------------------------------------------------------

def _shrunk_square(tmp_path, tiny: str):
    """The square (+-1, +-1) and its dilation from the origin by `tiny`."""
    doc = {
        "version": 1,
        "O": ["0", "0", "1"],
        "quad1": {
            "P": ["1", "1", "1"],
            "Q": ["-1", "1", "1"],
            "R": ["-1", "-1", "1"],
            "S": ["1", "-1", "1"],
        },
        "quad2": {
            "P": [tiny, tiny, "1"],
            "Q": ["-" + tiny, tiny, "1"],
            "R": ["-" + tiny, "-" + tiny, "1"],
            "S": [tiny, "-" + tiny, "1"],
        },
    }
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize(
    "tiny", ["1e-5000", f"1/{2**1024}"], ids=["exponent", "2**1024"]
)
def test_oversized_rational_exits_two(tmp_path, tiny):
    p = _shrunk_square(tmp_path, tiny)
    for command in ("check", "lift"):
        code, out, err = run(command, str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: ParseError: quad2.P[0]: ")
        assert "exceeds the 1024-bit bound" in err


@pytest.mark.parametrize("huge", ["1e-1000000", "1e999999999"])
def test_huge_exponent_exits_two_quickly(tmp_path, huge):
    # rejected before Fraction builds 10**exponent, which takes seconds
    # to forever at these sizes
    p = _shrunk_square(tmp_path, huge)
    start = time.perf_counter()
    code, out, err = run("check", str(p))
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (2, "")
    assert err.startswith("error: ParseError: quad2.P[0]: exponent ")
    assert "exceeds the 1024-bit bound" in err


def test_exponent_inside_the_bound_parses(tmp_path):
    p = _shrunk_square(tmp_path, "1e-300")
    assert run("check", str(p))[0] == 0
    assert parse_diagram(p.read_text()).quad2.P == Point2(1, 1, 10**300)


def test_overlong_json_integer_exits_two(tmp_path):
    p = tmp_path / "long.json"
    p.write_text('{"version": 1, "O": [' + "7" * 5000 + ', 0, 1]}')
    code, _, err = run("check", str(p))
    assert code == 2
    assert err.startswith("error: ParseError: ")
    assert "exceeds the 1024-bit bound" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lift", "--c1=1e-5000"),
        ("lift", "--c1=1e-99999999"),
        ("lift", f"--c2=1/{2**1024}"),
        ("qset", "1e99999999,1,1"),
        ("qset", "1e-5000,1,1"),
    ],
    ids=["c1-exponent", "c1-huge-exponent", "c2-2**1024", "qset-huge-exponent", "qset-exponent"],
)
def test_oversized_cli_rationals_exit_sixty_four_quickly(argv):
    # unbounded, Fraction() builds 10**e for these: seconds of work, or a
    # witness past the interpreter's int-to-str digit limit on emit
    command, value = argv
    start = time.perf_counter()
    code, out, err = run(command, str(DILATION), value)
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (64, "")
    assert err.startswith("error: usage: ")
    assert "exceeds the 1024-bit bound" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lift", "--c1", "nope"), "--c1: not a rational: 'nope'"),
        (("lift", "--c2=1/0"), "--c2: not a rational: '1/0'"),
        (("qset", "1,x,1"), "line[1]: not a rational: 'x'"),
        (("lift", "--method", "axis", "--c1", "nope"), "--c1: not a rational: 'nope'"),
        # each qset coefficient is spelled as a document coordinate is: no whitespace
        (("qset", "0, 0, 1"), "line[1]: not a rational: ' 0'"),
        (("qset", " 0,0,1"), "line[0]: not a rational: ' 0'"),
        (("qset", "0,0,1\n"), "line[2]: not a rational: '1\\n'"),
    ],
    ids=["c1-word", "c2-zero-denominator", "qset-word", "axis-c1-word",
         "qset-space-after-comma", "qset-leading-space", "qset-trailing-newline"],
)
def test_non_rational_cli_arguments_exit_sixty_four(argv, message):
    command, *rest = argv
    assert run(command, str(DILATION), *rest) == (64, "", f"error: usage: {message}\n")


@pytest.mark.parametrize("node", ["4", "8/2", 4], ids=["string", "reducible", "json-integer"])
def test_integral_coordinates_parse_to_int(node):
    value = _rational(node, "x")
    assert type(value) is int and value == 4


@pytest.mark.parametrize(
    "node, message",
    [
        ("1e314", "a 1044-bit rational exceeds the 1024-bit bound"),
        ("1e315", "exponent 315 exceeds the 1024-bit bound"),
        ("1e-315", "a 1047-bit rational exceeds the 1024-bit bound"),
        ("1e-316", "exponent -316 exceeds the 1024-bit bound"),
    ],
    ids=["at-exponent-bound", "past-exponent-bound", "at-negative-bound", "past-negative-bound"],
)
def test_an_exponent_at_its_bound_fails_on_bits_and_one_past_on_the_exponent(node, message):
    # the exponent bound is 309 + len(node): 314 for "1e314", 315 for "1e-315"
    with pytest.raises(ParseError) as e:
        _rational(node, "x")
    assert str(e.value) == f"x: {message}"


def test_non_integral_coordinate_stays_a_fraction():
    value = _rational("1/3", "x")
    assert type(value) is F and value == F(1, 3)


@pytest.mark.parametrize(
    "text, by_int",
    [
        ("007", True), ("-0", True), ("+1", False), ("9" * 308, True), ("-" + "9" * 308, True),
        ("9" * 309, False), ("1_0", False), ("\u0663", False),
    ],
    ids=["leading-zeros", "minus-zero", "plus", "308-digits", "minus-308-digits", "309-digits",
         "underscore", "arabic-indic"],
)
def test_plain_integer_strings_read_as_fraction_reads_them(monkeypatch, text, by_int):
    # ASCII digits after an optional "-", at most 308 of them, are read by int; "+1" and
    # longer strings still go to the Fraction reader, which refuses "1_0" and "\u0663":
    # a coordinate and an option give the value, or the error text, Fraction gives
    read_by_fraction = []

    def fraction(node, path):
        read_by_fraction.append(node)
        return _fraction(node, path)

    monkeypatch.setattr(quadshadow.documents, "_fraction", fraction)
    for path, read in [("x", _rational), ("--c1", _argument)]:
        try:
            value = read(text, path)
        except (ParseError, _UsageError) as e:  # an option's is the coordinate's text
            outcome = "ParseError", str(e)
        else:
            outcome = type(value), value
        assert outcome == _read(reference_rational, text, path), path
    assert read_by_fraction == ([] if by_int else [text, text])


def test_a_rational_option_loads_fractions_when_it_is_read():
    # integer options read no Fraction, so fractions is not loaded until --c1=1/2
    code = (
        "import io, sys\n"
        "from quadshadow.cli_io import run_cli\n"
        "for c1 in ('2', '1/2'):\n"
        "    out = io.StringIO()\n"
        "    code = run_cli(['lift', f'--c1={c1}', sys.argv[1]], out)\n"
        "    print(code, 'fractions' in sys.modules)\n"
        "print(out.getvalue(), end='')\n"
    )
    proc = _python("-S", "-c", code, str(DILATION))  # -S: no site, which may load fractions
    witness = emit_witness(lift_collinear_centers(DIAGRAM, F(1, 2), -1))
    assert (proc.stdout.decode(), proc.stderr) == ("0 False\n0 True\n" + witness, b"")


@pytest.mark.parametrize(
    "spelling", ["1_0", " 3", "3\n", "\u0663", "\uff13"],
    ids=["underscore", "space", "newline", "arabic-indic", "fullwidth"],
)
def test_coordinates_spelled_outside_ascii_digits_are_rejected(tmp_path, spelling):
    # Fraction reads "1_0" as 10 only from Python 3.11 on, and takes spaces and
    # non-ASCII digits; a document must be valid on every supported Python or none
    doc = json.loads(DILATION.read_text())
    doc["O"][0] = spelling
    p = tmp_path / "spelled.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"^O\[0\]: not a rational: "):
        parse_diagram(p.read_text())
    code, out, err = run("check", str(p))
    assert (code, out) == (2, "")
    code, out, err = run("lift", str(DILATION), f"--c1={spelling}")
    assert (code, out) == (64, "")
    assert err == f"error: usage: --c1: not a rational: {spelling!r}\n"


def reference_rational(node, path):
    """Every spelling of the allowed ASCII characters through Fraction, as
    the parser read all of them before plain integers took a shortcut to int."""
    if isinstance(node, bool) or isinstance(node, float):
        raise ParseError(f"{path}: coordinates must be rational strings, got {node!r}")
    if not isinstance(node, (int, str)):
        raise ParseError(
            f"{path}: coordinates must be rational strings, got {type(node).__name__}"
        )
    if isinstance(node, str):
        _, sep, tail = node.lower().rpartition("e")
        try:
            exponent = int(tail) if sep else 0
        except ValueError:
            exponent = 0
        if abs(exponent) > 309 + len(node):
            raise ParseError(f"{path}: exponent {exponent} exceeds the 1024-bit bound")
        if not re.fullmatch(r"[-+./0-9eE]+", node):  # spellings every Python reads alike
            raise ParseError(f"{path}: not a rational: {node!r}")
    try:
        value = F(node)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{path}: not a rational: {node!r}") from None
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > 1024:
        raise ParseError(f"{path}: a {bits}-bit rational exceeds the 1024-bit bound")
    return value.numerator if value.denominator == 1 else value


def _read(read, node, path="x"):
    try:
        value = read(node, path)
    except ParseError as e:
        return "ParseError", str(e)
    return type(value), value


_BOUND_INTEGERS = [2**1024 - 1, 2**1024, -(2**1024 - 1), -(2**1024)]  # 1024 and 1025 bits


def _outcome(read, text):
    try:
        return read(text)
    except (ParseError, InvariantViolation) as e:
        return type(e).__name__, str(e)


def _reference(read, doc):
    """The document read as the fraction reader reads it: every coordinate through
    reference_rational, the first failing one named, then built from JSON integers
    and "n/d" strings, which no integer shortcut reads."""
    def value(node, path):
        v = reference_rational(node, path)
        return v if type(v) is int else f"{v.numerator}/{v.denominator}"

    exact = {}
    try:
        for field, node in doc.items():
            if isinstance(node, dict):
                exact[field] = {
                    lab: [value(c, f"{field}.{lab}[{i}]") for i, c in enumerate(array)]
                    for lab, array in node.items()
                }
            elif isinstance(node, list):
                exact[field] = [value(c, f"{field}[{i}]") for i, c in enumerate(node)]
            else:
                exact[field] = node
    except ParseError as e:
        return "ParseError", str(e)
    return _outcome(read, json.dumps(exact))


#: For each reader, where a coordinate is put: the document's first, a middle and its last.
_PLACES = [
    (parse_diagram, DILATION, [("O", None, 0), ("quad1", "R", 1), ("quad2", "S", 2)]),
    (parse_witness, WITNESS, [("O1", None, 0), ("quad", "Qbar", 2), ("drawing_plane", None, 3)]),
    (parse_scene, SCENE, [("quad", "Pbar", 0), ("plane", None, 1), ("viewpoint", None, 3)]),
]


def test_integer_shortcut_matches_the_fraction_reader():
    # _rational takes JSON integers as they are and every string to Fraction; a
    # document in the writer's layout whose coordinates are all plain ASCII integers
    # of at most 308 digits is read against the writer's template and with int:
    # wherever a spelling sits, each reader must give the value, or the error, that
    # the reference gives, for the document as compact JSON and in the writer's layout
    corpus = [
        "+3", " 3", "3 ", "03", "-0", "0", "-12", "3_0", "\u0663", "\uff13", "6/2", "-6/2",
        "1.5", "1e3", "1E3", "", "-", "--3", "3\n", "0x10", "1/0", "1,2", "3,",
        7, -7, 0, True, False, 1.5, None, [3],
        *_BOUND_INTEGERS,
        *(str(n) for n in _BOUND_INTEGERS),
        "9" * 308, "9" * 309, "7" * 4301, "0" * 4300 + "7", "0" * 400 + "7",
    ]
    for node in corpus:
        assert _read(_rational, node) == _read(reference_rational, node), repr(node)[:40]
    for read, golden, places in _PLACES:
        text = golden.read_text()
        assert _outcome(read, text) == _reference(read, json.loads(text))
        for field, label, i in places:
            for node in corpus:
                spelled = json.loads(text)
                (spelled[field] if label is None else spelled[field][label])[i] = node
                expected = _reference(read, spelled)
                for layout in (json.dumps(spelled), json.dumps(spelled, indent=2) + "\n"):
                    assert _outcome(read, layout) == expected, (field, label, i, node, layout)


def _dilation(indent=None, **changes):
    """The dilation with some elements replaced, each named "field" or "field_label", as
    compact JSON or, with an indent of 2, in the writer's layout."""
    doc = json.loads(DILATION.read_text())
    for key, array in changes.items():
        field, _, label = key.partition("_")
        if label:
            doc[field][label] = array
        else:
            doc[field] = array
    return json.dumps(doc, indent=indent) + ("\n" if indent else "")


def test_the_first_error_in_document_order_is_reported():
    # a document the one-match reader cannot take whole is read element by element,
    # each quadrangle built before the next field is read; the texts are those the
    # diagram reader gave when every element was read on its own
    cases = [
        (
            _dilation(O=["0", "0", "0"], quad1_P=["1", "1", "x"]),
            ("InvariantViolation", "O: all homogeneous coordinates are zero"),
        ),
        (
            _dilation(quad1_Q=["1", "1", "1"], quad2_P=["1", "x", "1"]),
            ("InvariantViolation", "quad1: vertices P and Q coincide at Point2(1:1:1)"),
        ),
        (_dilation(O=["1,2", "3", "4"]), ("ParseError", "O[0]: not a rational: '1,2'")),
        (
            _dilation(quad2_S=["1", "2", "-1,1"]),
            ("ParseError", "quad2.S[2]: not a rational: '-1,1'"),
        ),
        (
            _dilation(O=[0, "0", 0], quad1_P=["1", "1", "x"]),
            ("InvariantViolation", "O: all homogeneous coordinates are zero"),
        ),
    ]
    for text, expected in cases:
        assert _outcome(parse_diagram, text) == expected
    # in the writer's layout with plain integers the template step reads the text; where
    # an element does not build, it leaves the text to the element-by-element reader, so a
    # quadrangle before that element still raises first
    assert _dilation(2) == DILATION.read_text()
    zero, repeated = ["0", "0", "0"], ["1", "1", "1"]  # an all-zero vector; quad1.P again
    cases = [
        (_dilation(2, O=zero), "O: all homogeneous coordinates are zero"),
        (_dilation(2, O=zero, quad1_Q=repeated), "O: all homogeneous coordinates are zero"),
        (_dilation(2, quad1_Q=repeated), "quad1: vertices P and Q coincide at Point2(1:1:1)"),
        (
            _dilation(2, quad1_Q=repeated, quad2_P=zero),
            "quad1: vertices P and Q coincide at Point2(1:1:1)",
        ),
        (_dilation(2, quad2_S=zero), "quad2.S: all homogeneous coordinates are zero"),
    ]
    for text, expected in cases:
        assert _outcome(parse_diagram, text) == ("InvariantViolation", expected), text
    # a JSON-integer coordinate reads as its string does
    dilation = parse_diagram(DILATION.read_text())
    assert parse_diagram(_dilation(O=[3, "0", "1"])) == dilation
    assert parse_diagram(_dilation(quad2_S=["1", "2", -1])) == dilation


def test_the_writer_layout_is_read_without_decoding_json(monkeypatch):
    # every diagram golden is read against the writer's template and never reaches json;
    # every witness and scene golden, a scene without its viewpoint, and a diagram one
    # spelling or one byte off the writer's layout go through json once, to the value or
    # error text json gives
    scene = parse_scene(SCENE.read_text())
    diagrams = [(parse_diagram, (DATA / f"{name}.json").read_text())
                for name in ("dilation", "perturbed", "vertex-degenerate", "general-axis")]
    others = [
        *((parse_witness, (DATA / f"{name}.json").read_text())
          for name in ("witness", "general-axis-witness")),
        (parse_scene, SCENE.read_text()),
        (parse_scene, emit_scene(replace(scene, viewpoint=None))),
    ]
    values = [read(text) for read, text in diagrams]
    load = quadshadow.documents._load

    def refuse(text):
        raise AssertionError("json decoded a diagram in the writer's layout")

    monkeypatch.setattr(quadshadow.documents, "_load", refuse)
    assert [read(text) for read, text in diagrams] == values
    loaded = []

    def record(text):
        loaded.append(text)
        return load(text)

    monkeypatch.setattr(quadshadow.documents, "_load", record)
    emit = {parse_witness: emit_witness, parse_scene: emit_scene}
    for read, text in others:
        loaded.clear()
        assert emit[read](read(text)) == text  # the value the golden holds
        assert loaded == [text]
    dilation, O = diagrams[0][1], '"3"'  # O's first coordinate
    near = [
        (parse_diagram, dilation.replace('"P"', '"\\u0050"', 1), values[0]),
        (
            parse_diagram, dilation.replace(O, '"3\\""', 1),
            ("ParseError", "O[0]: not a rational: '3\"'"),
        ),
        (
            parse_diagram, dilation.replace('"version": 1', '"version": 2'),
            ("ParseError", "version: expected 1, got 2"),
        ),
        (parse_diagram, dilation.replace(O, '"+3"', 1), values[0]),
        (
            parse_diagram, dilation.replace(O, f'"{"9" * 309}"', 1),
            ("ParseError", "O[0]: a 1027-bit rational exceeds the 1024-bit bound"),
        ),
        (parse_diagram, dilation.encode(), values[0]),
        *((read, text[:-1], value) for (read, text), value in zip(diagrams, values)),
        *((read, text.replace("\n", "\r\n"), value)
          for (read, text), value in zip(diagrams, values)),
    ]
    for read, text, expected in near:
        loaded.clear()
        assert _outcome(read, text) == expected
        assert loaded == [text]


def test_rationals_at_the_bound_lift_and_emit(tmp_path):
    p = _shrunk_square(tmp_path, f"1/{2**1024 - 1}")
    assert run("check", str(p))[0] == 0
    code, out, _ = run("lift", str(p))
    assert code == 0
    d = parse_diagram(p.read_text())
    assert quadshadow.lift.verify_witness(d, parse_witness(out)).passed


def test_broken_invariant_exits_seventy(monkeypatch):
    monkeypatch.setattr(quadshadow.lift, "_ray_meet", lambda O, O1, O2, X1, X2: None)
    code, out, err = run("lift", str(DILATION))
    assert (code, out) == (70, "")
    assert err == (
        "error: internal: RuntimeError: invariant broken: perspective rays cannot be skew\n"
    )


# --- parse errors, frozen -------------------------------------------------------

#: Coordinate spellings every document reader must reject, with the text after "{path}: ".
_REJECTED = [
    *((s, f"not a rational: {s!r}")
      for s in (" 7", "7 ", "1_0", "٣", "", "-", "--1", "1,2")),
    ("9" * 309, "a 1027-bit rational exceeds the 1024-bit bound"),
    ("1" + "0" * 309, "a 1027-bit rational exceeds the 1024-bit bound"),
    ("-" + "9" * 309, "a 1027-bit rational exceeds the 1024-bit bound"),
    (str(2**1024), "a 1025-bit rational exceeds the 1024-bit bound"),
    (2**1024, "a 1025-bit rational exceeds the 1024-bit bound"),
    (-(2**1024), "a 1025-bit rational exceeds the 1024-bit bound"),
    (True, "coordinates must be rational strings, got True"),
    (False, "coordinates must be rational strings, got False"),
    (1.5, "coordinates must be rational strings, got 1.5"),
    (None, "coordinates must be rational strings, got NoneType"),
    ([7], "coordinates must be rational strings, got list"),
    ({}, "coordinates must be rational strings, got dict"),
]
#: Spellings every reader must accept, each equal to a canonical integer string.
_ACCEPTED = [
    "-0", "0", "007", "+7", "7", "-7", "6/2", "-6/2", "1e3", "3.0",
    "9" * 308, "-" + "9" * 308, "1" + "0" * 308, "-1" + "0" * 308, "0" + "1" + "0" * 308,
    "0" * 310, "0" * 400 + "7",
    str(2**1024 - 1), str(-(2**1024 - 1)), 2**1024 - 1, -(2**1024 - 1), 7, -7, 0,
]
_SLOTS = [("O", None), ("quad1", "R"), ("quad2", "S")]


def _spelled(field, label, i, node):
    """The dilation with one coordinate, or with i None the whole element, replaced."""
    doc = json.loads(DILATION.read_text())
    parent, key = (doc, field) if label is None else (doc[field], label)
    if i is None:
        parent[key] = node
    else:
        parent[key][i] = node
    return json.dumps(doc)


def _check(tmp_path, text):
    p = tmp_path / "spelled.json"
    p.write_text(text)
    return run("check", str(p))


@pytest.mark.parametrize(
    "field, label, i", [(f, lab, i) for (f, lab), i in zip(_SLOTS, (0, 2, 1))]
)
def test_coordinate_spellings_are_frozen(tmp_path, field, label, i):
    # wherever a coordinate sits, a spelling reads as its canonical integer does,
    # or fails with the reader's text and the coordinate's own path
    path = field if label is None else f"{field}.{label}"
    for node, message in _REJECTED:
        assert _check(tmp_path, _spelled(field, label, i, node)) == (
            2, "", f"error: ParseError: {path}[{i}]: {message}\n"
        ), repr(node)[:40]
    for node in _ACCEPTED:
        canonical = _spelled(field, label, i, str(int(F(node))))
        spelled = _spelled(field, label, i, node)
        assert _check(tmp_path, spelled) == _check(tmp_path, canonical), repr(node)[:40]
        try:
            expected = parse_diagram(canonical)
        except InvariantViolation as e:
            with pytest.raises(InvariantViolation, match=re.escape(str(e))):
                parse_diagram(spelled)
        else:
            assert parse_diagram(spelled) == expected, repr(node)[:40]
    for node in (["1", "1"], ["1", "1", "1", "1"], [], "111", None, [["1", "1", "1"]]):
        assert _check(tmp_path, _spelled(field, label, None, node)) == (
            2, "", f"error: ParseError: {path}: expected an array of 3 rationals\n"
        ), repr(node)
