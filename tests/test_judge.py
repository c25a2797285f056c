"""An independent judge: each verdict document recomputed, with json and int
only, from its canonical diagram document as seven determinants and notes.

The judge reads the verdict goldens and the generated, special-position and
hand-built pools."""

import json

from quadshadow import (
    DegeneracyKind, PlanarDiagram, Quadrangle, decide_depiction, emit_diagram, emit_verdict,
    Point2, generators as gen,
)
from figures import A, DATA, HAND_BUILT, OFF_RAY, ON_SIDE, SQUARE
from projective_images import IMAGES
from textbook import cross, dot

SIDES = ("QR", "RP", "PQ", "SP", "SQ", "SR")


def judge(diagram_text, verdict_text):
    doc, verdict = json.loads(diagram_text), json.loads(verdict_text)
    o = [int(c) for c in doc["O"]]
    q1, q2 = ({v: [int(c) for c in doc[q][v]] for v in "PQRS"} for q in ("quad1", "quad2"))
    sides = [[cross(q[s[0]], q[s[1]]) for s in SIDES] for q in (q1, q2)]
    notes = [f"center O lies on side {s} of quadrangle {n}" for n, lines in enumerate(sides, 1)
             for s, line in zip(SIDES, lines) if dot(o, line) == 0]
    applicable = all(dot(o, cross(q1[v], q2[v])) == 0 for v in "PQRS")  # det(O, X1, X2)
    d1, d2 = ([cross(lines[i + 3], lines[i]) for i in range(3)] for lines in sides)  # A, B, C
    pairs = [dot(o, cross(x1, x2)) == 0 for x1, x2 in zip(d1, d2)]
    assert verdict["applicable"] == applicable and verdict["notes"] == notes
    assert verdict["diagonal_pairs"] == (dict(zip("ABC", pairs)) if applicable else None)
    assert verdict["correct"] == (applicable and all(pairs) and q1 != q2)
    return applicable, verdict["correct"], bool(notes)


def test_judge_agrees_with_the_goldens_and_every_generated_and_special_verdict():
    for golden in sorted(DATA.glob("*-verdict.json")):
        diagram = golden.with_name(golden.name.replace("-verdict", ""))
        judge(diagram.read_text(), golden.read_text())
    pool = [d for s in range(200) for d in (
        gen.gen_correct_diagram(s)[1], gen.gen_incorrect_diagram(s),
        gen.gen_general_position_diagram(s), gen.gen_general_position_diagram(s, correct=False),
        gen.gen_degenerate_diagram(s), gen.gen_degenerate_diagram(s, kind=DegeneracyKind.VERTEX))]
    # then O on side PQ, in SQUARE dilated by 2 from O (correct) and in a diagram
    # that is not correct, and last O off the rays of quad2
    pool += [*IMAGES, *HAND_BUILT.values(),
             PlanarDiagram(A(0, 1), SQUARE, Quadrangle(A(2, 1), A(-2, 1), A(-2, -3), A(2, -3))),
             ON_SIDE, OFF_RAY]
    for r, d in enumerate(map(gen.gen_degenerate_diagram, range(4))):  # one label alone off O
        q1, q2 = (Quadrangle(*(q.vertices * 2)[r + 1:r + 5]) for q in (d.quad1, d.quad2))
        pool.append(PlanarDiagram(Point2(*d.O.coords[:2], 2 * d.O.coords[2]), q1, q2))
    seen = {judge(emit_diagram(d), emit_verdict(decide_depiction(d))) for d in pool}
    assert len(seen) == 6  # applicable or not, correct or not when applicable, notes or none
