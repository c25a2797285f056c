"""In-memory spans around quadshadow's public functions, recorded from outside.

``Tracer.install`` replaces each traced function wherever a quadshadow
module binds it (``quadshadow.lift.decide_depiction`` as well as
``quadshadow.checker.decide_depiction``), so calls between the package's
own modules are seen too; ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.

A span is (name, start, end, parent span, diagram id).  Spans are kept in
flat arrays while the run lasts and written out once at the end.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

#: Traced callables as (module, attribute); the span name is "module.attribute".
TRACED = (
    ("kernel", "normalize"),
    ("kernel", "join2"),
    ("kernel", "meet2"),
    ("kernel", "central_project"),
    ("quadrangle", "sides"),
    ("quadrangle", "diagonal_triangle"),
    ("quadrangle", "quadrangular_trace"),
    ("checker", "decide_depiction"),
    ("perspectivity", "side_axes"),
    ("perspectivity", "common_axis"),
    ("perspectivity", "perspective_collineation"),
    ("lift", "planarity_certificate"),
    ("lift", "lift_collinear_centers"),
    ("lift", "lift_via_axis"),
    ("lift", "verify_witness"),
    ("lift", "project_scene"),
    ("generators", "gen_correct_diagram"),
    ("generators", "gen_incorrect_diagram"),
    ("generators", "gen_general_position_diagram"),
    ("generators", "gen_degenerate_diagram"),
    ("generators", "SplitMix64.next_u64"),
    ("cli_io", "parse_diagram"),
    ("cli_io", "emit_diagram"),
    ("cli_io", "emit_verdict"),
    ("cli_io", "emit_witness"),
    ("cli_io", "render_svg"),
    ("cli_io", "run_cli"),
)

MODULES = ("kernel", "quadrangle", "perspectivity", "checker", "lift", "generators", "cli_io")

SETUP = -1  # diagram id of spans recorded while building inputs


def _coord_bits(obj) -> int:
    """Largest coordinate bit-length of a diagram or a witness."""
    if hasattr(obj, "coords"):
        return max(abs(c).bit_length() for c in obj.coords)
    if hasattr(obj, "quad1"):
        parts = (obj.O, *obj.quad1.vertices, *obj.quad2.vertices)
    else:
        parts = (obj.O1, obj.O2, obj.drawing_plane, obj.quad.plane, *obj.quad.vertices)
    return max(_coord_bits(p) for p in parts)


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{mod}.{attr}" for mod, attr in TRACED]
        self.name_id = array("i")
        self.parent = array("q")
        self.diagram = array("q")
        self.start = array("q")
        self.end = array("q")
        #: 1 where no enclosing span has the same name, so durations add up.
        self.outermost = array("b")
        #: Diagram id given to spans opened from now on.
        self.diagram_id = SETUP
        self.max_coord_bits = 0
        self.verify_passed = 0
        self._stack: list[int] = []
        self._depth = [0] * len(TRACED)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _observe_bits(self, result) -> None:
        self.max_coord_bits = max(self.max_coord_bits, _coord_bits(result))

    def _observe_verify(self, report) -> None:
        self.verify_passed += report.passed

    def _wrap(self, nid: int, fn, observe):
        stack, depth = self._stack, self._depth
        name_id, parent, diagram = self.name_id, self.parent, self.diagram
        start, end, outermost = self.start, self.end, self.outermost
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            diagram.append(self.diagram_id)
            outermost.append(depth[nid] == 0)
            end.append(0)
            stack.append(sid)
            depth[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                depth[nid] -= 1
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        observers = {
            "cli_io.parse_diagram": self._observe_bits,
            "lift.lift_collinear_centers": self._observe_bits,
            "lift.lift_via_axis": self._observe_bits,
            "lift.verify_witness": self._observe_verify,
        }
        modules = [importlib.import_module("quadshadow")] + [
            importlib.import_module(f"quadshadow.{m}") for m in MODULES
        ]
        for nid, (mod, attr) in enumerate(TRACED):
            owner = importlib.import_module(f"quadshadow.{mod}")
            if "." in attr:  # a method: patch the class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(nid, original, None))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, observers.get(self.names[nid]))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> array:
        """Duration of each span minus the durations of its direct children."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self) -> tuple[dict, dict]:
        """Per span name, for the loop (diagram id >= 0) and for set-up:
        calls, outermost inclusive ns, self ns, and ns of spans with no
        traced parent."""
        own = self.self_times()
        loop, setup = (
            {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "root_ns": 0} for name in self.names}
            for _ in range(2)
        )
        for i, nid in enumerate(self.name_id):
            row = (setup if self.diagram[i] == SETUP else loop)[self.names[nid]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_ns"] += own[i]
            if self.outermost[i]:
                row["total_ns"] += duration
            if self.parent[i] == -1:
                row["root_ns"] += duration
        return loop, setup

    def write(self, path) -> None:
        """Write every span as one tab-separated line, times relative to the first."""
        own = self.self_times()
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tdiagram\tstart_ns\tend_ns\tself_ns\n")
            for i, nid in enumerate(self.name_id):
                fh.write(
                    f"{i}\t{self.names[nid]}\t{self.parent[i]}\t{self.diagram[i]}\t"
                    f"{self.start[i] - t0}\t{self.end[i] - t0}\t{own[i]}\n"
                )
