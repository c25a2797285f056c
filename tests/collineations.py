"""Collineation algebra for the tests: the identity, products and inverses, the
action on lines and quadrangles, and seeded random collineations.

The package builds a collineation only as a perspective collineation and maps
only points with it (``Collineation.apply``).  The tests also map lines and
quadrangles, compose and invert, and carry generated diagrams to their
projective images by random collineations; those helpers live here.
"""

from quadshadow.kernel import Line2, _cross
from quadshadow.quadrangle import Quadrangle
from quadshadow.perspectivity import Collineation
from quadshadow.generators import GenConfig, SplitMix64, _retry

IDENTITY = Collineation(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _cofactor(g: Collineation) -> tuple[tuple[int, int, int], ...]:
    """Cofactor matrix: row i is the cross product of rows i+1 and i+2 (mod 3)."""
    m0, m1, m2 = g.matrix
    return (_cross(m1, m2), _cross(m2, m0), _cross(m0, m1))


def apply_line(g: Collineation, l: Line2) -> Line2:
    """The image of a line, by the cofactor matrix (inverse-transpose up to scale),
    so incidence is preserved."""
    return Line2(*(sum(r * c for r, c in zip(row, l.coords)) for row in _cofactor(g)))


def apply_quadrangle(g: Collineation, q: Quadrangle) -> Quadrangle:
    return Quadrangle(*map(g.apply, q.vertices))


def compose(g: Collineation, h: Collineation) -> Collineation:
    """Matrix product: g after h."""
    a, b = g.matrix, h.matrix
    return Collineation(
        tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3))
    )


def inverse(g: Collineation) -> Collineation:
    return Collineation(zip(*_cofactor(g)))  # the adjugate


def gen_collineation(seed: int, cfg: GenConfig | None = None) -> Collineation:
    """A random invertible collineation with small integer entries, drawn from the
    package's seeded stream as its generators draw."""

    def draw(rng: SplitMix64, cfg: GenConfig) -> Collineation | None:
        bound = cfg.numerator_bound
        rows = tuple(
            tuple(rng.below(2 * bound + 1) - bound for _ in range(3)) for _ in range(3)
        )
        try:
            return Collineation(rows)
        except ValueError:
            return None

    return _retry(SplitMix64(seed), cfg, draw, "invertible matrix")
