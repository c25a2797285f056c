"""The verdict under collineations, relabellings and the swap of the quadrangles.

The criterion uses incidence only, so a collineation of the drawing plane keeps
every verdict field; relabelling P, Q, R, S alike in both quadrangles permutes
the diagonal pairs and the sides named in the notes; and swapping the quadrangles
keeps the verdict and swaps the quadrangles named in the notes.  The verdict's
integer diagonal pairs are also held to the perspectivity of the normalised
diagonal triangles.  Fixed seeds, so every run checks the same diagrams.
"""

import re
from itertools import permutations

import pytest

from quadshadow.checker import DegeneracyKind, PlanarDiagram, decide_depiction
from quadshadow.generators import (
    SplitMix64,
    _quadrangle,
    _toward,
    gen_correct_diagram,
    gen_degenerate_diagram,
    gen_general_position_diagram,
    gen_incorrect_diagram,
)
from quadshadow.kernel import collinear2
from quadshadow.lift import lift_collinear_centers, verify_witness
from quadshadow.perspectivity import CenterIsVertex, common_axis, triangles_perspective_point
from quadshadow.quadrangle import SIDE_LABELS, Quadrangle, diagonal_triangle

from collineations import apply_line, apply_quadrangle, gen_collineation
from figures import A, SQUARE, correct_pool, gp_pool

SEEDS = range(100)
#: The vertex pairs joined by the two opposite sides through A, B and C.
DIAGONALS = (("SP", "QR"), ("SQ", "RP"), ("SR", "PQ"))
#: Every relabelling but the identity: new label "PQRS"[i] takes old vertex perm[i].
RELABELLINGS = list(permutations("PQRS"))[1:]


#: The notes of a diagram whose center lies on side PQ of both quadrangles.
ON_SIDE_PQ = (
    "center O lies on side PQ of quadrangle 1",
    "center O lies on side PQ of quadrangle 2",
)


def center_on_side(seed):
    """O on side PQ of the seed's random quadrangle, other than P and Q, and each vertex
    moved along its ray from O: by equal ratios (correct) for even seeds, with
    one vertex moved by another ratio (incorrect) for odd ones."""
    q = _quadrangle(SplitMix64(seed), None)
    o = _toward(q.P, q.Q, *((1, 3), (-1, 2), (3, 2))[seed % 3])
    ratios = [2, 2, 2, 2]
    if seed % 2:
        ratios[seed // 2 % 4] = 3
    moved = [_toward(o, v, r, 1) for v, r in zip(q.vertices, ratios)]
    return PlanarDiagram(o, q, Quadrangle(*moved))


def diagrams(seed):
    """One diagram of each of the seven kinds, the two always correct ones first."""
    return (
        gen_correct_diagram(seed)[1],
        gen_general_position_diagram(seed),
        gen_incorrect_diagram(seed),
        gen_general_position_diagram(seed, correct=False),
        gen_degenerate_diagram(seed),
        gen_degenerate_diagram(seed, kind=DegeneracyKind.VERTEX),
        center_on_side(seed),
    )


#: A square doubled from the origin, which is the diagonal point B = SQ.RP of both.
AT_DIAGONAL_B = PlanarDiagram(A(0, 0), SQUARE, Quadrangle(A(2, 2), A(-2, 2), A(-2, -2), A(2, -2)))


def is_correct(seed, n):
    """The verdict diagrams(seed)[n] is built to have."""
    return n < 2 or n == 6 and seed % 2 == 0


NOTE = re.compile(r"center O lies on side (\w\w) of quadrangle ([12])")


def relabelled_notes(notes, perm):
    """The notes of the relabelled diagram, in order: its side ab is old side perm[a] perm[b]."""
    old = {(n, frozenset(side)) for side, n in (NOTE.fullmatch(x).groups() for x in notes)}
    return tuple(
        f"center O lies on side {lab} of quadrangle {n}"
        for n in "12"
        for lab in SIDE_LABELS
        if (n, frozenset(perm[v] for v in lab)) in old
    )


def swapped_notes(notes):
    """The notes of the swapped diagram: quadrangle 2's first, each number swapped."""
    return tuple(x[:-1] + new for old, new in ("21", "12") for x in notes if x[-1] == old)


def diagonal_index(pair_of_sides):
    """Which of A, B, C the two opposite sides spanned by these vertex pairs meet in."""
    key = {frozenset(side) for side in pair_of_sides}
    return next(i for i, sides in enumerate(DIAGONALS) if {frozenset(s) for s in sides} == key)


def test_a_collineation_keeps_every_verdict_field_and_correct_images_verify():
    for seed in SEEDS:
        g = gen_collineation(seed)
        for n, d in enumerate(diagrams(seed)):
            image = PlanarDiagram(
                g.apply(d.O), apply_quadrangle(g, d.quad1), apply_quadrangle(g, d.quad2)
            )
            verdict = decide_depiction(d)
            assert decide_depiction(image) == verdict, (seed, n)
            assert verdict.correct == is_correct(seed, n), (seed, n)
            if n == 6:
                assert verdict.notes == ON_SIDE_PQ, seed
            if verdict.correct:
                assert verify_witness(image, lift_collinear_centers(image)).passed, (seed, n)
            if n == 1:  # a correct diagram in general position has a common axis
                axis = common_axis(d.quad1, d.quad2)
                assert common_axis(image.quad1, image.quad2) == apply_line(g, axis), seed


def test_a_relabelling_permutes_the_diagonal_pairs_and_the_swap_keeps_the_verdict():
    for seed in SEEDS:
        perm = dict(zip("PQRS", RELABELLINGS[seed % len(RELABELLINGS)]))
        for n, d in enumerate(diagrams(seed)):
            quads = [
                Quadrangle(**{new: q.vertex(old) for new, old in perm.items()})
                for q in (d.quad1, d.quad2)
            ]
            verdict = decide_depiction(d)
            relabelled = decide_depiction(PlanarDiagram(d.O, *quads))
            swapped = decide_depiction(PlanarDiagram(d.O, d.quad2, d.quad1))
            for other in (relabelled, swapped):
                assert other.applicable == verdict.applicable, (seed, n)
                assert other.correct == verdict.correct, (seed, n)
                assert other.degeneracy.kind is verdict.degeneracy.kind, (seed, n)
            assert swapped.diagonal_pairs == verdict.diagonal_pairs, (seed, n)
            assert relabelled.notes == relabelled_notes(verdict.notes, perm), (seed, n)
            assert swapped.notes == swapped_notes(verdict.notes), (seed, n)
            if verdict.applicable:
                moved = (
                    diagonal_index([perm[a] + perm[b] for a, b in sides]) for sides in DIAGONALS
                )
                expected = tuple(verdict.diagonal_pairs[i] for i in moved)
                assert relabelled.diagonal_pairs == expected, (seed, n)
            else:
                assert relabelled.diagonal_pairs is None, (seed, n)


def test_the_diagonal_pairs_are_the_perspectivity_of_the_diagonal_triangles():
    # the verdict's raw determinants held to the predicates on normalised diagonal points,
    # over the acceptance and invariance pools and one diagram with O at a diagonal point
    good, bad = gp_pool()
    pools = [d for _, d in correct_pool()] + good + bad + [AT_DIAGONAL_B]
    for d in pools + [d for seed in SEEDS for d in diagrams(seed)]:
        verdict = decide_depiction(d)
        if not verdict.applicable:
            continue
        t1, t2 = diagonal_triangle(d.quad1).points, diagonal_triangle(d.quad2).points
        assert verdict.diagonal_pairs == tuple(map(collinear2, [d.O] * 3, t1, t2))
        if d.O in t1 + t2:
            with pytest.raises(CenterIsVertex):
                triangles_perspective_point(d.O, t1, t2)
        else:
            assert all(verdict.diagonal_pairs) == triangles_perspective_point(d.O, t1, t2)
