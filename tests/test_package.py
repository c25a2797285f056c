"""The package's public names, and what importing it loads."""

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
    "gen_collineation",
    "gen_correct_diagram",
    "gen_degenerate_diagram",
    "gen_general_position_diagram",
    "gen_incorrect_diagram",
    "gen_point_perspective_triangles",
    "gen_quadrangle",
    "general_position",
    "join2",
    "lift_collinear_centers",
    "lift_via_axis",
    "meet2",
    "normalize",
    "parse_diagram",
    "parse_scene",
    "parse_verdict",
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
    assert sorted(namespace) == PUBLIC_NAMES and len(namespace) == 99


#: Per step as JSON: the exit code (but for the import), the lazy modules loaded
#: and every module loaded since the child started.
STARTUP = """
import sys
started = set(sys.modules)
import io, json, runpy
from contextlib import redirect_stdout

def loaded():
    lazy = [m for m in ("quadshadow.generators", "quadshadow.cli_io") if m in sys.modules]
    return [lazy, sorted(set(sys.modules) - started)]

import quadshadow
path = sys.argv[1]
steps = {"import": loaded()}
for command in ("check", "lift"):
    sys.argv = ["quadshadow", command, path]
    with redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("quadshadow.cli_io", run_name="__main__")
        except SystemExit as e:
            steps[command] = [e.code, *loaded()]
code = quadshadow.run_cli(["fuzz", "--count", "3", "--seed", "0"], out=io.StringIO())
steps["fuzz"] = [code, *loaded()]
print(json.dumps(steps))
"""


@functools.cache
def _startup() -> dict:
    src = str(Path(quadshadow.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", STARTUP, str(DILATION)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return json.loads(proc.stdout)


def test_check_and_lift_never_load_the_generators():
    steps = _startup()
    assert {step: values[:-1] for step, values in steps.items()} == {
        "import": [[]],
        "check": [0, []],
        "lift": [0, []],
        "fuzz": [0, ["quadshadow.generators", "quadshadow.cli_io"]],
    }


def test_import_check_and_lift_load_neither_dataclasses_nor_inspect():
    steps = _startup()
    assert "argparse" in steps["check"][-1]  # loaded for the command line, so it is listed
    for step in ("import", "check", "lift"):
        assert not {"dataclasses", "inspect"} & set(steps[step][-1]), step
