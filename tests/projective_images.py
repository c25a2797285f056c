"""The tests' special-position pool: projective images of generated diagrams
with an ideal center or an ideal vertex, where no generator of the package
draws.

A collineation keeps incidence, so each image is correct exactly when the
diagram it comes from is.  IMAGES holds the 810 images of seeds 0-29:
90 with an ideal center and 720 with an ideal vertex, half of each correct.
"""

from quadshadow.kernel import _cross
from quadshadow.checker import PlanarDiagram
from quadshadow.perspectivity import Collineation
from quadshadow.generators import (
    gen_correct_diagram,
    gen_general_position_diagram,
    gen_incorrect_diagram,
)

from collineations import apply_quadrangle, gen_collineation


def projective_images(seed):
    """Images of three generated diagrams under collineations sending a line through
    O, or through one of the eight vertices, to infinity.

    The line through X is X x (N x X), where N is the meet of the first two rows
    of gen_collineation(seed) read as lines; those rows and the line then make a
    matrix of determinant |N x X|^2, so it is invertible while N is not X.
    """
    rows = gen_collineation(seed).matrix[:2]
    n = _cross(*rows)
    for d in (
        gen_correct_diagram(seed)[1],
        gen_incorrect_diagram(seed),
        gen_general_position_diagram(seed, correct=seed % 2 == 0),
    ):
        for x in (d.O, *d.quad1.vertices, *d.quad2.vertices):
            h = Collineation((*rows, _cross(x.coords, _cross(n, x.coords))))
            quads = apply_quadrangle(h, d.quad1), apply_quadrangle(h, d.quad2)
            yield PlanarDiagram(h.apply(d.O), *quads)


IMAGES = tuple(image for seed in range(30) for image in projective_images(seed))
