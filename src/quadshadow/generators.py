"""Seeded random instances: scenes, diagrams, triangle pairs, collineations.

Everything here is deterministic in the seed.  The underlying stream is
the splitmix64 recurrence (64-bit state s, output z):

    s = (s + 0x9E3779B97F4A7C15) mod 2^64
    z = s;  z ^= z >> 30;  z = z * 0xBF58476D1CE4E5B9 mod 2^64
            z ^= z >> 27;  z = z * 0x94D049BB133111EB mod 2^64
            z ^= z >> 31

so identical seeds give identical objects on any platform.  Coordinates
are small rationals drawn inside the bounds of a ``GenConfig``; samples
that hit a degenerate configuration are redrawn, up to
``max_retries`` attempts before ``RetriesExhausted``.

The constructions guarantee their advertised property instead of
filtering for it wherever a guarantee is possible: ``gen_correct_diagram``
projects an actual spatial scene (so its diagrams are correct because a
shadow really was cast), ``gen_degenerate_diagram`` moves exactly one
vertex along its projection ray, and the triangle-pair generators build
the perspectivity into the coordinates.  Only ``gen_incorrect_diagram``
rejects on the verdict, since re-drawing each vertex independently along
its ray can, rarely, land back on a correct diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernel import (
    DRAWING_PLANE,
    GeometryError,
    Line2,
    Point2,
    Point3,
    ZeroVector,
    collinear2,
    join2,
    meet2,
    plane_through,
)
from .quadrangle import Quadrangle, _check_vertices
from .perspectivity import (
    Collineation, Triple, _homologous_meets, _triangle_sides, general_position
)
from .checker import DegeneracyKind, PlanarDiagram, classify_degeneracy, decide_depiction
from .lift import SpatialQuadrangle, SpatialScene, _invariant, _triple_planes, project_scene

__all__ = [
    "SplitMix64",
    "GenConfig",
    "RetriesExhausted",
    "gen_quadrangle",
    "gen_correct_diagram",
    "gen_incorrect_diagram",
    "gen_general_position_diagram",
    "gen_degenerate_diagram",
    "gen_point_perspective_triangles",
    "gen_axis_perspective_triangles",
    "gen_collineation",
]

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The splitmix64 stream; tiny, seedable, and identical everywhere."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-enough integer in [0, n); n must be positive."""
        if n <= 0:
            raise ValueError(f"need a positive bound, got {n}")
        return self.next_u64() % n


@dataclass(frozen=True)
class GenConfig:
    numerator_bound: int = 9
    denominator_bound: int = 9
    max_retries: int = 1000


class RetriesExhausted(GeometryError):
    """max_retries redraws did not produce a valid sample."""


def _ratio(rng: SplitMix64, cfg: GenConfig) -> tuple[int, int]:
    """A numerator and a positive denominator inside cfg's bounds."""
    num = rng.below(2 * cfg.numerator_bound + 1) - cfg.numerator_bound
    den = rng.below(cfg.denominator_bound) + 1
    return num, den


def _nonzero_fraction(rng: SplitMix64, cfg: GenConfig) -> Fraction:
    while True:
        num, den = _ratio(rng, cfg)
        if num != 0:
            return Fraction(num, den)


def _point2(rng: SplitMix64, cfg: GenConfig) -> Point2:
    """The affine point (n1/d1, n2/d2) as (n1 d2 : n2 d1 : d1 d2)."""
    (n1, d1), (n2, d2) = _ratio(rng, cfg), _ratio(rng, cfg)
    return Point2(n1 * d2, n2 * d1, d1 * d2)


def _point3(rng: SplitMix64, cfg: GenConfig) -> Point3:
    """The affine point (n1/d1, n2/d2, n3/d3) over the denominator d1 d2 d3."""
    (n1, d1), (n2, d2), (n3, d3) = _ratio(rng, cfg), _ratio(rng, cfg), _ratio(rng, cfg)
    return Point3(n1 * d2 * d3, n2 * d1 * d3, n3 * d1 * d2, d1 * d2 * d3)


def _retry(rng: SplitMix64, cfg: GenConfig | None, draw, what: str):
    """The first of up to max_retries calls draw(rng, cfg) that succeeds.

    A draw fails by raising GeometryError or by returning None.  A missing
    cfg means the default GenConfig.
    """
    cfg = cfg or GenConfig()
    for _ in range(cfg.max_retries):
        try:
            sample = draw(rng, cfg)
        except GeometryError:
            continue
        if sample is not None:
            return sample
    raise RetriesExhausted(f"no {what} within the retry budget")


def _toward(a: Point2, b: Point2, t: Fraction) -> Point2:
    """The affine point a + t (b - a).

    With t = p/q and last coordinates a2, b2 it is (q - p) b2 a + p a2 b,
    all integers.  An ideal a or b has no affine coordinates: ZeroVector.
    """
    a2, b2 = a.coords[2], b.coords[2]
    if a2 == 0 or b2 == 0:
        raise ZeroVector(f"ideal point among {a!r}, {b!r} has no affine coordinates")
    p, q = t.numerator, t.denominator
    u, v = (q - p) * b2, p * a2
    return Point2(*[u * ai + v * bi for ai, bi in zip(a.coords, b.coords)])


def _quadrangle(rng: SplitMix64, cfg: GenConfig | None) -> Quadrangle:
    def draw(rng: SplitMix64, cfg: GenConfig) -> Quadrangle:
        return Quadrangle(*(_point2(rng, cfg) for _ in range(4)))

    return _retry(rng, cfg, draw, "valid quadrangle")


def gen_quadrangle(seed: int, cfg: GenConfig | None = None) -> Quadrangle:
    """A random labeled quadrangle with small rational vertices."""
    return _quadrangle(SplitMix64(seed), cfg)


def _triangle(rng: SplitMix64, cfg: GenConfig) -> Triple:
    def draw(rng: SplitMix64, cfg: GenConfig) -> Triple | None:
        t = tuple(_point2(rng, cfg) for _ in range(3))
        return None if collinear2(*t) else t

    return _retry(rng, cfg, draw, "valid triangle")


def gen_correct_diagram(
    seed: int, cfg: GenConfig | None = None
) -> tuple[SpatialScene, PlanarDiagram]:
    """A random scene together with the diagram it presents.

    The quadrangle lives in a random plane, the light and viewpoint are
    random points, and the diagram is the genuine projection, so it is
    correct by construction, never by filtering.
    """

    def draw(rng: SplitMix64, cfg: GenConfig):
        u, v, w = (_point3(rng, cfg) for _ in range(3))
        plane = plane_through(u, v, w)
        if plane == DRAWING_PLANE:
            return None
        u3, v3, w3 = u.coords[3], v.coords[3], w.coords[3]
        verts = []
        for _ in range(4):
            # u + a (v - u) + b (w - u), a = p/q and b = r/s, times q s u3 v3 w3
            (p, q), (r, s) = _ratio(rng, cfg), _ratio(rng, cfg)
            ku = (q * s - p * s - r * q) * v3 * w3
            kv = p * s * u3 * w3
            kw = r * q * u3 * v3
            coords = zip(u.coords, v.coords, w.coords)
            verts.append(Point3(*[ku * x + kv * y + kw * z for x, y, z in coords]))
        _check_vertices(verts, (not any(t) for t in _triple_planes(*(v.coords for v in verts))))
        light = _point3(rng, cfg)
        if plane.contains(light) or DRAWING_PLANE.contains(light):
            return None
        # project_scene rejects a viewpoint on the drawing plane or at the light
        scene = SpatialScene(
            quad=SpatialQuadrangle(*verts, plane=plane),
            light=light,
            shadow_plane=DRAWING_PLANE,
            viewpoint=_point3(rng, cfg),
        )
        return scene, project_scene(scene)

    return _retry(SplitMix64(seed), cfg, draw, "valid scene")


def gen_incorrect_diagram(seed: int, cfg: GenConfig | None = None) -> PlanarDiagram:
    """A vertex-perspective diagram that fails the diagonal criterion.

    quad2 is quad1 re-drawn with an independent nonzero stretch along
    each projection ray; an all-equal draw (a plain dilation, which stays
    correct) is rejected before use, and the rare remaining correct
    outcomes are redrawn after checking.
    """

    def draw(rng: SplitMix64, cfg: GenConfig) -> PlanarDiagram | None:
        center = _point2(rng, cfg)
        quad1 = _quadrangle(rng, cfg)
        ratios = [_nonzero_fraction(rng, cfg) for _ in range(4)]
        if len(set(ratios)) == 1:
            return None
        moved = (_toward(center, v, t) for v, t in zip(quad1.vertices, ratios))
        quad2 = Quadrangle(*moved)
        diagram = PlanarDiagram(O=center, quad1=quad1, quad2=quad2)
        verdict = decide_depiction(diagram)
        return diagram if verdict.applicable and not verdict.correct else None

    return _retry(SplitMix64(seed), cfg, draw, "incorrect diagram")


def gen_general_position_diagram(
    seed: int, cfg: GenConfig | None = None, correct: bool = True
) -> PlanarDiagram:
    """A correct or incorrect diagram whose twelve sides are in general
    position: the six homologous side pairs distinct, their six
    intersections pairwise distinct."""

    def draw(rng: SplitMix64, cfg: GenConfig) -> PlanarDiagram | None:
        sub = rng.next_u64()
        if correct:
            _, diagram = gen_correct_diagram(sub, cfg)
        else:
            diagram = gen_incorrect_diagram(sub, cfg)
        return diagram if general_position(diagram.quad1, diagram.quad2) else None

    return _retry(SplitMix64(seed), cfg, draw, "general-position diagram")


def gen_degenerate_diagram(
    seed: int, cfg: GenConfig | None = None, kind: DegeneracyKind = DegeneracyKind.TRIANGLE
) -> PlanarDiagram:
    """A vertex-perspective diagram sharing exactly three vertices.

    kind TRIANGLE moves S off every line joining the center to a shared
    vertex; kind VERTEX puts the center on side RS and slides R inside
    that side, so the moved pair is collinear with the shared vertex S.
    """
    if kind not in (DegeneracyKind.TRIANGLE, DegeneracyKind.VERTEX):
        raise ValueError(f"can only generate triangle or vertex kinds, got {kind}")

    def draw(rng: SplitMix64, cfg: GenConfig) -> PlanarDiagram | None:
        quad1 = _quadrangle(rng, cfg)
        p, q, r, s = quad1.vertices
        if kind is DegeneracyKind.TRIANGLE:
            center = _point2(rng, cfg)
            if center in quad1.vertices:
                return None
            ray = join2(center, s)
            if any(ray.contains(x) for x in (p, q, r)):
                return None
            t = _nonzero_fraction(rng, cfg)
            if t == 1:
                return None
            quad2 = Quadrangle(p, q, r, _toward(center, s, t))
        else:
            a = _nonzero_fraction(rng, cfg)
            if a == 1:
                return None
            center = _toward(r, s, a)
            b = _nonzero_fraction(rng, cfg)
            if b == 1:
                return None
            r2 = _toward(r, s, b)
            if r2 == center:
                return None
            quad2 = Quadrangle(p, q, r2, s)
        diagram = PlanarDiagram(O=center, quad1=quad1, quad2=quad2)
        got = classify_degeneracy(diagram.quad1, diagram.quad2)
        _invariant(got.kind is kind, f"built {kind.value} but classified {got.kind.value}")
        return diagram

    return _retry(SplitMix64(seed), cfg, draw, "degenerate diagram")


def gen_point_perspective_triangles(
    seed: int, cfg: GenConfig | None = None
) -> tuple[Point2, Triple, Triple]:
    """A center and two triangles perspective from it, with the six
    homologous sides distinct and their meets pairwise distinct."""

    def draw(rng: SplitMix64, cfg: GenConfig) -> tuple[Point2, Triple, Triple] | None:
        center = _point2(rng, cfg)
        t1 = _triangle(rng, cfg)
        if center in t1:
            return None
        t2 = tuple(_toward(center, v, _nonzero_fraction(rng, cfg)) for v in t1)
        if collinear2(*t2):
            return None
        meets = _homologous_meets(_triangle_sides(t1), _triangle_sides(t2))
        return (center, t1, t2) if len(set(meets.values())) == 3 else None

    return _retry(SplitMix64(seed), cfg, draw, "perspective triangle pair")


def gen_axis_perspective_triangles(
    seed: int, cfg: GenConfig | None = None
) -> tuple[Line2, Triple, Triple]:
    """An axis and two triangles whose homologous sides meet on it.

    The second triangle is built outward from the axis marks, so the
    side correspondence holds by construction; homologous vertices stay
    distinct with distinct joins and homologous sides distinct, ready for
    recovering the center and the axis.
    """

    def draw(rng: SplitMix64, cfg: GenConfig) -> tuple[Line2, Triple, Triple] | None:
        t1 = _triangle(rng, cfg)
        axis = join2(_point2(rng, cfg), _point2(rng, cfg))
        if any(axis.contains(v) for v in t1):
            return None
        m_a, m_b, m_c = (meet2(side, axis) for side in _triangle_sides(t1).values())
        x2 = _point2(rng, cfg)
        if axis.contains(x2) or x2 in t1:
            return None
        # an ideal m_c has no affine coordinates: _toward raises ZeroVector
        y2 = _toward(x2, m_c, _nonzero_fraction(rng, cfg))
        if y2 == m_c:
            return None
        line_b = join2(x2, m_b)
        line_a = join2(y2, m_a)
        # z2 is off the axis and off line x2 y2: else two marks meet at a vertex of t1
        t2 = (x2, y2, meet2(line_b, line_a))
        if any(v1 == v2 for v1, v2 in zip(t1, t2)):
            return None
        if join2(t1[0], x2) == join2(t1[1], y2):
            return None
        _homologous_meets(_triangle_sides(t1), _triangle_sides(t2))  # no shared side
        return axis, t1, t2

    return _retry(SplitMix64(seed), cfg, draw, "axis-perspective triangle pair")


def gen_collineation(seed: int, cfg: GenConfig | None = None) -> Collineation:
    """A random invertible collineation with small integer entries."""

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
