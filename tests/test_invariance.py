"""The verdict under collineations, relabellings and the swap of the quadrangles.

The criterion uses incidence only, so a collineation of the drawing plane keeps
every verdict field; relabelling P, Q, R, S alike in both quadrangles permutes
the diagonal pairs; and swapping the quadrangles keeps the verdict.  Fixed seeds,
so every run checks the same diagrams.
"""

from itertools import permutations

from quadshadow.checker import DegeneracyKind, PlanarDiagram, decide_depiction
from quadshadow.generators import (
    gen_collineation,
    gen_correct_diagram,
    gen_degenerate_diagram,
    gen_general_position_diagram,
    gen_incorrect_diagram,
)
from quadshadow.lift import lift_collinear_centers, verify_witness
from quadshadow.perspectivity import common_axis
from quadshadow.quadrangle import Quadrangle

SEEDS = range(100)
#: The vertex pairs joined by the two opposite sides through A, B and C.
DIAGONALS = (("SP", "QR"), ("SQ", "RP"), ("SR", "PQ"))
#: Every relabelling but the identity: new label "PQRS"[i] takes old vertex perm[i].
RELABELLINGS = list(permutations("PQRS"))[1:]


def diagrams(seed):
    """One diagram of each of the six generated kinds, the correct ones first."""
    return (
        gen_correct_diagram(seed)[1],
        gen_general_position_diagram(seed),
        gen_incorrect_diagram(seed),
        gen_general_position_diagram(seed, correct=False),
        gen_degenerate_diagram(seed),
        gen_degenerate_diagram(seed, kind=DegeneracyKind.VERTEX),
    )


def diagonal_index(pair_of_sides):
    """Which of A, B, C the two opposite sides spanned by these vertex pairs meet in."""
    key = {frozenset(side) for side in pair_of_sides}
    return next(i for i, sides in enumerate(DIAGONALS) if {frozenset(s) for s in sides} == key)


def test_a_collineation_keeps_every_verdict_field_and_correct_images_verify():
    for seed in SEEDS:
        g = gen_collineation(seed)
        for n, d in enumerate(diagrams(seed)):
            image = PlanarDiagram(
                g.apply(d.O), g.apply_quadrangle(d.quad1), g.apply_quadrangle(d.quad2)
            )
            verdict = decide_depiction(d)
            assert decide_depiction(image) == verdict, (seed, n)
            assert verdict.correct == (n < 2), (seed, n)
            if verdict.correct:
                assert verify_witness(image, lift_collinear_centers(image)).passed, (seed, n)
            if n == 1:  # a correct diagram in general position has a common axis
                axis = common_axis(d.quad1, d.quad2)
                assert common_axis(image.quad1, image.quad2) == g.apply_line(axis), seed


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
            if verdict.applicable:
                moved = (
                    diagonal_index([perm[a] + perm[b] for a, b in sides]) for sides in DIAGONALS
                )
                expected = tuple(verdict.diagonal_pairs[i] for i in moved)
                assert relabelled.diagonal_pairs == expected, (seed, n)
            else:
                assert relabelled.diagonal_pairs is None, (seed, n)
