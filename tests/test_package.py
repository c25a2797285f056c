"""The package's public names, and what importing it loads.

Start-up is read in a child process started without the site module, so that what a
machine's site loads is not counted.  import quadshadow loads neither generators nor
cli_io, check and lift never load generators, and none of the three loads dataclasses,
inspect, fractions, decimal, numbers or contextlib; nor does fuzz load the last four.
check and lift through main() leave the collector frozen, and run_cli in process leaves
it alone.
"""

import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import quadshadow

DILATION = Path(__file__).parent / "data" / "dilation.json"

PUBLIC_NAMES = [
    "AXIS_SIDES",
    "CenterIsVertex",
    "CenterOnTarget",
    "ClauseCheck",
    "CoincidentLines",
    "CoincidentPoints",
    "CollinearPoints",
    "CollinearTriple",
    "Collineation",
    "DRAWING_PLANE",
    "DegeneracyClass",
    "DegeneracyKind",
    "DegenerateParameters",
    "DegenerateScene",
    "DiagonalTriangle",
    "GenConfig",
    "GeometryError",
    "HomologousSidesEqual",
    "InvalidPair",
    "InvariantViolation",
    "Line2",
    "LineInPlane",
    "LineThroughVertex",
    "NoCommonAxis",
    "NotCorrectDiagram",
    "NotGeneralPosition",
    "NotPerspective",
    "OPPOSITE_SIDES",
    "ParseError",
    "PlanarDiagram",
    "PlanarityCertificate",
    "Plane3",
    "Point2",
    "Point3",
    "ProjectingCenter",
    "Quadrangle",
    "QuadrangularTrace",
    "Reason",
    "RepeatedVertex",
    "RetriesExhausted",
    "SIDE_LABELS",
    "SideAxes",
    "SideSet",
    "SpatialQuadrangle",
    "SpatialScene",
    "SplitMix64",
    "VERTEX_LABELS",
    "Verdict",
    "Witness",
    "WitnessReport",
    "ZeroVector",
    "__version__",
    "central_project",
    "classify_degeneracy",
    "collinear2",
    "collinear3",
    "common_axis",
    "coplanarity_det",
    "decide_depiction",
    "desargues_axis",
    "diagonal_triangle",
    "displaced_centers",
    "embed_drawing",
    "emit_diagram",
    "emit_scene",
    "emit_verdict",
    "emit_witness",
    "gen_axis_perspective_triangles",
    "gen_correct_diagram",
    "gen_degenerate_diagram",
    "gen_general_position_diagram",
    "gen_incorrect_diagram",
    "gen_point_perspective_triangles",
    "general_position",
    "join2",
    "lift_collinear_centers",
    "lift_via_axis",
    "meet2",
    "normalize",
    "parse_diagram",
    "parse_scene",
    "parse_witness",
    "perspective_center",
    "perspective_collineation",
    "planarity_certificate",
    "plane_through",
    "project_scene",
    "quadrangular_trace",
    "render_svg",
    "run_cli",
    "scene_from_witness",
    "side_axes",
    "sides",
    "triangles_perspective_point",
    "verify_witness",
    "witness_side_traces",
]


def test_public_names_are_frozen():
    assert sorted(quadshadow.__all__) == PUBLIC_NAMES


def test_lazy_names_are_the_lazy_modules_public_names():
    by_module = {}
    for name, module in quadshadow._LAZY.items():
        by_module.setdefault(module, []).append(name)
    assert set(by_module) == {"quadshadow.generators", "quadshadow.cli_io"}
    for module, names in by_module.items():
        assert sorted(names) == sorted(importlib.import_module(module).__all__)


def test_every_public_name_resolves_and_star_import_binds_them_all(monkeypatch):
    for module in ("generators", "cli_io"):  # as after a plain import quadshadow
        monkeypatch.delattr(quadshadow, module, raising=False)
        assert getattr(quadshadow, module) is importlib.import_module(f"quadshadow.{module}")
    for name in quadshadow.__all__:
        getattr(quadshadow, name)
    for name, module in quadshadow._LAZY.items():
        assert getattr(quadshadow, name) is getattr(sys.modules[module], name)
        # never kept in the package, so a later rebinding in the module is seen
        assert name not in vars(quadshadow)
    namespace = {}
    exec("from quadshadow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES and len(namespace) == 96


#: Per step as JSON: the exit code (but for the import), the lazy modules loaded
#: and every module loaded since the child had loaded its own; then, per step, how
#: many objects the step froze out of the collector's reach (Python 3.12 starts
#: with some frozen, so each step's count is a difference).
STARTUP = """
import gc, io, json, runpy, sys
started = set(sys.modules)

def loaded():
    lazy = [m for m in ("quadshadow.generators", "quadshadow.cli_io") if m in sys.modules]
    return [lazy, sorted(set(sys.modules) - started)]

frozen = {}
base = gc.get_freeze_count()
import quadshadow
path = sys.argv[1]
steps = {"import": loaded()}
frozen["import"] = gc.get_freeze_count() - base
for command in ("check", "lift"):
    sys.argv = ["quadshadow", command, path]
    base = gc.get_freeze_count()
    sys.stdout = io.StringIO()
    try:
        runpy.run_module("quadshadow.cli_io", run_name="__main__")
    except SystemExit as e:
        steps[command] = [e.code, *loaded()]
    finally:
        sys.stdout = sys.__stdout__
    frozen[command] = gc.get_freeze_count() - base
    gc.unfreeze()
base = gc.get_freeze_count()
code = quadshadow.run_cli(["fuzz", "--count", "3", "--seed", "0"], out=io.StringIO())
steps["fuzz"] = [code, *loaded()]
frozen["fuzz"] = gc.get_freeze_count() - base
print(json.dumps([steps, frozen]))
"""


@functools.cache
def _startup() -> tuple[dict, dict]:
    # -S: no site module, so what site loads (on some machines contextlib and
    # typing) is not taken for what the package loads
    src = str(Path(quadshadow.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", STARTUP, str(DILATION)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return tuple(json.loads(proc.stdout))


def test_check_and_lift_never_load_the_generators():
    steps, _ = _startup()
    assert {step: values[:-1] for step, values in steps.items()} == {
        "import": [[]],
        "check": [0, []],
        "lift": [0, []],
        "fuzz": [0, ["quadshadow.generators", "quadshadow.cli_io"]],
    }


def test_import_check_and_lift_load_neither_dataclasses_nor_inspect():
    steps, _ = _startup()
    assert "argparse" in steps["check"][-1]  # loaded for the command line, so it is listed
    for step in ("import", "check", "lift"):
        assert not {"dataclasses", "inspect"} & set(steps[step][-1]), step


def test_import_check_and_lift_load_no_number_tower_and_no_contextlib():
    # an integer document, lift's default displacements and the generators' integer
    # draws need no Fraction; run_cli swaps sys.stdout itself, without contextlib
    steps, _ = _startup()
    assert "quadshadow.documents" in steps["import"][-1]  # the package's loads are listed
    for step in ("import", "check", "lift", "fuzz"):
        assert not {"fractions", "decimal", "numbers", "contextlib"} & set(steps[step][-1]), step


def test_only_the_entry_point_freezes_the_collector():
    # main() freezes what the process holds just before it exits, so the
    # interpreter's final collections skip it; run_cli in a process leaves it alone
    _, frozen = _startup()
    assert frozen["import"] == frozen["fuzz"] == 0
    assert frozen["check"] > 0 and frozen["lift"] > 0
