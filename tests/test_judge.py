"""An independent judge: each verdict document recomputed, field by field, with json and int
only, from its canonical diagram document as seven determinants, coordinate lists and notes.

The judge reads the three verdict goldens and the generated, special-position and hand-built
pools, and it must see every degeneracy kind and every reason those pools can reach; the one
reason no pooled diagram reaches, diagonal_pair_c, is held to its string.  tests/test_checker.py
keeps only what a verdict's fields do not show."""

import json

from quadshadow import (
    DegeneracyKind, PlanarDiagram, Quadrangle, Reason, decide_depiction, emit_diagram,
    emit_verdict, Point2, generators as gen,
)
from figures import A, DATA, HAND_BUILT, OFF_RAY, ON_SIDE, SQUARE
from projective_images import IMAGES
from textbook import cross, dot

SIDES = ("QR", "RP", "PQ", "SP", "SQ", "SR")
DEGENERACY_REASONS = {"identical": "identical", "triangle": "triangle_degeneracy",
                      "vertex": "vertex_degeneracy"}


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
    # canonical coordinates are equal exactly when the points are
    coincident = [v for v in "PQRS" if q1[v] == q2[v]]
    kind = {4: "identical", 3: "triangle"}.get(len(coincident), "none")
    if kind == "triangle":  # or the moved vertex slid along a line through a shared one
        [(w1, w2)] = [(q1[v], q2[v]) for v in "PQRS" if v not in coincident]
        if any(dot(q1[v], cross(w1, w2)) == 0 for v in coincident):
            kind = "vertex"
    failed = [f"diagonal_pair_{x}" for x, ok in zip("abc", pairs) if not ok]
    reason = "not_perspective"
    if applicable:  # the degeneracy, else the first failing pair
        reason = DEGENERACY_REASONS.get(kind) or [*failed, "correct"][0]
    assert verdict == {
        "version": 1, "applicable": applicable,
        "correct": applicable and all(pairs) and kind != "identical",
        "degeneracy": {"kind": kind, "coincident": coincident},
        "diagonal_pairs": dict(zip("ABC", pairs)) if applicable else None,
        "reason": reason, "witness": None, "notes": notes,
    }
    return verdict


def test_judge_agrees_with_the_goldens_and_every_generated_and_special_verdict():
    goldens = sorted(DATA.glob("*-verdict.json"))
    assert len(goldens) == 3
    seen = [judge(golden.with_name(golden.name.replace("-verdict", "")).read_text(),
                  golden.read_text()) for golden in goldens]
    pool = [d for s in range(200) for d in (
        gen.gen_correct_diagram(s)[1], gen.gen_incorrect_diagram(s),
        gen.gen_general_position_diagram(s), gen.gen_general_position_diagram(s, correct=False),
        gen.gen_degenerate_diagram(s), gen.gen_degenerate_diagram(s, kind=DegeneracyKind.VERTEX))]
    # then an identical pair, O on side PQ, in SQUARE dilated by 2 from O (correct) and in a
    # diagram that is not correct, and last O off the rays of quad2
    d = pool[0]
    pool += [PlanarDiagram(d.O, d.quad1, d.quad1), *IMAGES, *HAND_BUILT.values(),
             PlanarDiagram(A(0, 1), SQUARE, Quadrangle(A(2, 1), A(-2, 1), A(-2, -3), A(2, -3))),
             ON_SIDE, OFF_RAY]
    for r, d in enumerate(map(gen.gen_degenerate_diagram, range(4))):  # one label alone off O
        q1, q2 = (Quadrangle(*(q.vertices * 2)[r + 1:r + 5]) for q in (d.quad1, d.quad2))
        pool.append(PlanarDiagram(Point2(*d.O.coords[:2], 2 * d.O.coords[2]), q1, q2))
    seen += [judge(emit_diagram(d), emit_verdict(decide_depiction(d))) for d in pool]
    # applicable or not, correct or not when applicable, notes or none
    assert len({(v["applicable"], v["correct"], bool(v["notes"])) for v in seen}) == 6
    assert {v["degeneracy"]["kind"] for v in seen} == {"none", "triangle", "vertex", "identical"}
    # a generated incorrect diagram fails its A pair but once, and none fails only its C pair
    assert {v["reason"] for v in seen} == {
        "correct", "not_perspective", "identical", "triangle_degeneracy", "vertex_degeneracy",
        "diagonal_pair_a", "diagonal_pair_b"}
    assert {r.value for r in Reason} - {v["reason"] for v in seen} == {"diagonal_pair_c"}
