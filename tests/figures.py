"""The diagrams that more than one test module reads.

The worked figure is the square drawn with light from O = (3, 0) and its
shadow, the square dilated by 2 from O.  Moving the shadow's Q along its ray
to (-9, 3) makes the diagram incorrect, and moving it off the ray to
(-9, 4) makes it inapplicable.  HAND_BUILT holds diagrams in special
position that no generator draws; the pools are generated from fixed seeds
and built once per run.  ``replace`` copies a package record with some
fields changed.
"""

import functools
from fractions import Fraction as F
from pathlib import Path

from quadshadow.kernel import Point2
from quadshadow.quadrangle import Quadrangle
from quadshadow.checker import DegeneracyKind, PlanarDiagram
from quadshadow.documents import parse_diagram
from quadshadow.generators import (
    gen_correct_diagram,
    gen_degenerate_diagram,
    gen_general_position_diagram,
    gen_incorrect_diagram,
)

DATA = Path(__file__).parent / "data"

A = Point2.affine

O = A(3, 0)
SQUARE = Quadrangle(A(1, 1), A(-1, 1), A(-1, -1), A(1, -1))
DILATED = Quadrangle(A(-1, 2), A(-5, 2), A(-5, -2), A(-1, -2))
PERTURBED = Quadrangle(A(-1, 2), A(-9, 3), A(-5, -2), A(-1, -2))
DIAGRAM = PlanarDiagram(O, SQUARE, DILATED)
INCORRECT = PlanarDiagram(O, SQUARE, PERTURBED)
OFF_RAY = PlanarDiagram(O, SQUARE, Quadrangle(A(-1, 2), A(-9, 4), A(-5, -2), A(-1, -2)))
#: O on side PQ of SQUARE, and a second quadrangle that is not SQUARE's image from it.
ON_SIDE = PlanarDiagram(A(0, 1), SQUARE, Quadrangle(A(2, 3), A(-2, 3), A(-2, -3), A(2, -3)))

#: The standard quadrangle: the three base points and the unit point.
STANDARD = Quadrangle(Point2(1, 0, 0), Point2(0, 1, 0), Point2(0, 0, 1), Point2(1, 1, 1))


def replace(record, **changes):
    """A new record of record's class, with its fields but for the changes."""
    return type(record)(**{**{name: getattr(record, name) for name in record._FIELDS}, **changes})


SUN = Point2(1, 2, 0)
BOX = Quadrangle(A(0, 0), A(3, 0), A(3, 2), A(0, 5))


def _slid(quad, center, ts):
    """Each vertex X of quad moved to X + t (center) along its ray, center ideal."""
    return Quadrangle(
        *(A(*(x + t * c for x, c in zip(v.affine_coords, center.coords[:2])))
          for v, t in zip(quad.vertices, ts))
    )


def _stretched(quad, ts):
    """Each vertex of quad scaled by its own factor about the origin."""
    return Quadrangle(*(A(*(t * x for x in v.affine_coords)) for v, t in zip(quad.vertices, ts)))


HAND_BUILT = {
    "sunlight-incorrect": PlanarDiagram(SUN, BOX, _slid(BOX, SUN, (1, 2, -1, 3))),
    "sunlight-translation": PlanarDiagram(SUN, BOX, _slid(BOX, SUN, (2, 2, 2, 2))),
    "ideal-vertex": PlanarDiagram(
        A(0, 0),
        Quadrangle(Point2(1, 1, 0), A(1, 0), A(0, 1), A(3, 1)),
        Quadrangle(A(2, 2), A(2, 0), A(0, -1), A(9, 3)),
    ),
    "ideal-vertex-shared": PlanarDiagram(
        A(0, 0),
        Quadrangle(Point2(1, 1, 0), A(1, 0), A(0, 1), A(3, 1)),
        Quadrangle(Point2(1, 1, 0), A(2, 0), A(0, -1), A(9, 3)),
    ),
    "center-on-a-side": PlanarDiagram(
        A(0, 0),
        Quadrangle(A(-1, -1), A(1, 1), A(2, -1), A(-1, 3)),
        _stretched(Quadrangle(A(-1, -1), A(1, 1), A(2, -1), A(-1, 3)), (2, -1, 3, F(1, 2))),
    ),
}


def frozen_render_pool():
    """The 402 diagrams whose SVGs test_render_outputs_are_frozen pins."""
    diagrams = [
        gen_general_position_diagram(seed, correct=correct)
        for seed in range(100)
        for correct in (True, False)
    ]
    for seed in range(50):
        diagrams += [
            gen_correct_diagram(seed)[1],
            gen_incorrect_diagram(seed),
            gen_degenerate_diagram(seed, kind=DegeneracyKind.TRIANGLE),
            gen_degenerate_diagram(seed, kind=DegeneracyKind.VERTEX),
        ]
    goldens = [parse_diagram((DATA / f"{name}.json").read_text()) for name in ("dilation", "perturbed")]
    return diagrams + goldens


@functools.cache
def correct_pool():
    """The (scene, diagram) pairs of gen_correct_diagram, seeds 0-999."""
    return [gen_correct_diagram(seed) for seed in range(1000)]


@functools.cache
def gp_pool():
    """The general-position diagrams of seeds 0-499: the correct ones, then the others."""
    good = [gen_general_position_diagram(s, correct=True) for s in range(500)]
    bad = [gen_general_position_diagram(s, correct=False) for s in range(500)]
    return good, bad
