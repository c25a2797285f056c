"""The README runs as written: its python blocks, its diagram document and its command lines.

Each python block runs from the root of the checkout, as the README says.  Each line of
the command block runs in process through run_cli, with its tests/data inputs read from
the checkout and its --out file written to a temporary directory.  Every line's exit code
is checked, its output is compared with the golden file where one holds it, and a witness
that lift writes must verify against its diagram.
"""

import io
import re
import shlex

import pytest

from quadshadow.cli_io import run_cli
from quadshadow.documents import parse_diagram, parse_witness
from quadshadow.lift import verify_witness

from figures import DATA, DIAGRAM

ROOT = DATA.parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
#: Each fenced block as (language, its first line's number in the README, text).
BLOCKS = [(m[1], README.count("\n", 0, m.start(2)) + 1, m[2])
          for m in re.finditer(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)]
#: The command lines, as the words after "quadshadow".
COMMANDS = [shlex.split(line, comments=True)[1:] for lang, _, text in BLOCKS if lang == "sh"
            for line in text.splitlines() if line.startswith("quadshadow ")]

#: Each command line's exit code, and the golden file its output equals where one exists.
EXPECTED = {
    "check tests/data/dilation.json": (0, "dilation-verdict.json"),
    "check tests/data/perturbed.json": (1, "perturbed-verdict.json"),
    "lift tests/data/dilation.json": (0, "witness.json"),
    "lift tests/data/dilation.json --c1 2 --c2=-1/2": (0, None),
    "lift tests/data/general-axis.json --method axis": (0, "general-axis-witness.json"),
    "project tests/data/scene.json": (0, "dilation.json"),
    "axis tests/data/dilation.json": (0, "dilation-axis.json"),
    "qset tests/data/dilation.json 0,0,1": (0, "dilation-qset.json"),
    "fuzz --count 1000 --seed 0 --mode correct": (0, None),
    "fuzz --count 1000 --seed 0 --mode incorrect": (0, None),
    "fuzz --count 1000 --seed 0 --mode desargues": (0, None),
    "render tests/data/dilation.json --out dilation.svg": (0, "dilation.svg"),
}


@pytest.mark.parametrize("start, text", [(start, text) for lang, start, text in BLOCKS
                                         if lang == "python"])
def test_python_block_runs(monkeypatch, start, text):
    monkeypatch.chdir(ROOT)
    # padded so that a traceback names the README's own line
    exec(compile("\n" * (start - 1) + text, "README.md", "exec"), {})


def test_the_diagram_document_is_the_worked_figure():
    [text] = [text for lang, _, text in BLOCKS if lang == "json"]
    assert parse_diagram(text) == DIAGRAM


def test_every_command_line_has_its_expectation():
    assert sorted(" ".join(argv) for argv in COMMANDS) == sorted(EXPECTED)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_runs(monkeypatch, tmp_path, argv):
    inputs = [arg for arg in argv if arg.startswith("tests/data/")]
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    code = run_cli([str(ROOT / arg) if arg in inputs else arg for arg in argv], out, err)
    status, golden = EXPECTED.get(" ".join(argv), (0, None))
    assert (code, err.getvalue()) == (status, "")
    assert inputs or argv[0] == "fuzz"  # fuzz alone reads no document
    out_file = argv[argv.index("--out") + 1] if "--out" in argv else None
    written = (tmp_path / out_file).read_text() if out_file else out.getvalue()
    if golden:
        assert written == (DATA / golden).read_text()
    if argv[0] == "lift":
        witness = parse_witness(written)
        assert verify_witness(parse_diagram((ROOT / inputs[0]).read_text()), witness).passed
