"""The four benchmark workloads: inputs made from a seed, and one checked run per input.

Every workload is a pool of diagram documents built by ``quadshadow.generators``
and serialised with ``emit_diagram`` before any timing starts.  Item ``i`` of
the pool for seed ``s`` depends only on ``(s, i)``, so a smaller pool is a
prefix of a larger one; the pools of seed 0 are prefixes of the
acceptance-suite pools.  Pools are small so that a run makes many passes.

``run_doc`` is the in-process reference for one input: it takes the
document through the workload's pipeline, checks every result and returns
the emitted text.  The timed loops of the in-process workloads call it
directly; ``cli-oneshot`` compares each subprocess's stdout with it.

All calls into the package go through module attributes (``qs.decide_depiction``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import StringIO
from typing import Callable

import quadshadow as qs

#: Seeds of different benchmark seeds never overlap for pools below this size.
SEED_STRIDE = 10**6


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# inputs: (kind, diagram) for item i of the pool of a seed


def _correct_item(seed: int, i: int):
    return "correct", qs.gen_correct_diagram(seed * SEED_STRIDE + i)[1]


def _rejection_item(seed: int, i: int):
    # Every tenth item is degenerate, alternating triangle and vertex kinds;
    # the rest are incorrect diagrams with consecutive seeds.
    base = seed * SEED_STRIDE
    if i % 10 == 9:
        k = i // 10
        kind = qs.DegeneracyKind.TRIANGLE if k % 2 == 0 else qs.DegeneracyKind.VERTEX
        return kind.value, qs.gen_degenerate_diagram(base + k // 2, kind=kind)
    return "incorrect", qs.gen_incorrect_diagram(base + i - (i + 1) // 10)


def _axis_item(seed: int, i: int):
    # Two correct diagrams, then one incorrect.  With equal shares the
    # median latency would fall in the gap between the cheap incorrect and
    # the dear correct diagrams, where a few outliers of either set it.
    base = seed * SEED_STRIDE
    if i % 3 == 2:
        return "incorrect", qs.gen_general_position_diagram(base + i // 3, correct=False)
    return "correct", qs.gen_general_position_diagram(base + 2 * (i // 3) + i % 3, correct=True)


# ---------------------------------------------------------------------------
# checked pipelines: run_doc(kind, doc, path) -> emitted texts


def _correct_lift(kind: str, doc: str, path: str) -> tuple[str, ...]:
    d = qs.parse_diagram(doc)
    verdict = qs.decide_depiction(d)
    require(verdict.correct, f"verdict {verdict.reason.value} for a correct diagram")
    w = qs.lift_collinear_centers(d)
    report = qs.verify_witness(d, w)
    require(report.passed and len(report.clauses) == 5, "witness failed verification")
    back = qs.project_scene(qs.scene_from_witness(w))
    round_trip = qs.emit_diagram(back)
    require(round_trip == doc and back == d, "round trip is not byte-identical")
    return qs.emit_verdict(verdict), qs.emit_witness(w)


_DEGENERATE_REASONS = {
    "triangle": "triangle_degeneracy",
    "vertex": "vertex_degeneracy",
    "incorrect": None,
}


def _incorrect_check(kind: str, doc: str, path: str) -> tuple[str, ...]:
    d = qs.parse_diagram(doc)
    verdict = qs.decide_depiction(d)
    require(verdict.applicable and not verdict.correct, f"verdict {verdict.reason.value}")
    expected = _DEGENERATE_REASONS[kind]
    require(
        expected is None or verdict.reason.value == expected,
        f"reason {verdict.reason.value} for a {kind} diagram",
    )
    det = qs.planarity_certificate(d).determinant
    require(det != 0, "coplanarity determinant vanished")
    return qs.emit_verdict(verdict), f"{det}\n"


def _axis_render(kind: str, doc: str, path: str) -> tuple[str, ...]:
    d = qs.parse_diagram(doc)
    q1, q2 = d.quad1, d.quad2
    qs.side_axes(q1, q2)
    if kind == "incorrect":
        try:
            qs.common_axis(q1, q2)
        except qs.NoCommonAxis:
            pass
        else:
            raise CheckFailed("incorrect diagram has a common axis")
        return (qs.render_svg(d),)
    axis = qs.common_axis(q1, q2)
    w = qs.lift_via_axis(d)
    require(qs.verify_witness(d, w).passed, "axis-route witness failed verification")
    h = qs.perspective_collineation(d.O, axis, (q1.P, q2.P))
    require(
        all(h.apply(q1.vertex(lab)) == q2.vertex(lab) for lab in "QRS"),
        "collineation does not map quad1 onto quad2",
    )
    t1 = qs.quadrangular_trace(q1, axis)
    t2 = qs.quadrangular_trace(q2, axis)
    require(t1.labeled() == t2.labeled(), "axis traces differ label-wise")
    return qs.emit_witness(w), f"{h.matrix}\n", qs.render_svg(d)


#: The two commands each ``cli-oneshot`` document goes through, in order.
CLI_COMMANDS = ("check", "lift")


def _cli_in_process(kind: str, doc: str, path: str) -> tuple[str, ...]:
    texts = []
    for command in CLI_COMMANDS:
        out, err = StringIO(), StringIO()
        code = qs.run_cli([command, path], out=out, err=err)
        require(code == 0, f"{command} exited {code}: {err.getvalue().strip()}")
        texts.append(out.getvalue())
    return tuple(texts)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Documents in the pool.
    pool: int
    item: Callable[[int, int], tuple]
    run_doc: Callable[[str, str, str], tuple[str, ...]]
    #: Timed as one subprocess per command instead of in process.
    subprocess: bool = False

    def inputs(self, seed: int, n: int) -> list[tuple[str, str]]:
        """Generate and serialise the first n items of the seed's pool."""
        out = []
        for i in range(n):
            kind, d = self.item(seed, i)
            out.append((kind, qs.emit_diagram(d)))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("correct-lift", 50, _correct_item, _correct_lift),
        Workload("incorrect-check", 100, _rejection_item, _incorrect_check),
        Workload("axis-render", 50, _axis_item, _axis_render),
        Workload("cli-oneshot", 2, _correct_item, _cli_in_process, subprocess=True),
    )
}
