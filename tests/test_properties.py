"""Algebraic invariants checked over randomized inputs."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from quadshadow.kernel import (
    Line2,
    Point2,
    Point3,
    ZeroVector,
    coplanarity_det,
    embed_drawing,
    join2,
    meet2,
    normalize,
)
from quadshadow.render import _clip_to_rect

from pluecker_oracle import line3_through, meet_lines3

coord = st.integers(min_value=-40, max_value=40)
scale = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=12),
)


def nonzero_triple(draw_filter=lambda t: any(t)):
    return st.tuples(coord, coord, coord).filter(draw_filter)


@given(nonzero_triple())
def test_normalize_is_idempotent(t):
    once = normalize(t)
    assert normalize(once) == once


@given(nonzero_triple(), scale)
def test_normalize_kills_scalar_factors(t, k):
    assert Point2(*(k * c for c in t)) == Point2(*t)


def reference_normalize(coords):
    """normalize by way of Fraction: clear denominators, divide, fix the sign."""
    fracs = [Fraction(c) for c in coords]
    mult = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints)
    ints = [n // g for n in ints]
    if next(n for n in ints if n) < 0:
        ints = [-n for n in ints]
    return tuple(ints)


def coord_tuples(element):
    """Tuples of the kernel's arities (3, 4, 6 and 9), not all zero."""
    return st.sampled_from([3, 4, 6, 9]).flatmap(
        lambda n: st.tuples(*[element] * n).filter(any)
    )


int_coord = st.one_of(st.just(0), coord, st.integers())


@given(coord_tuples(int_coord))
def test_normalize_int_branch_matches_fraction_reference(t):
    got = normalize(t)
    assert got == reference_normalize(t)
    assert all(type(c) is int for c in got)


@pytest.mark.parametrize("arity", [3, 4, 6, 9])
def test_normalize_all_zero_ints_raise(arity):
    with pytest.raises(ZeroVector):
        normalize((0,) * arity)


def test_normalize_rejects_a_float_among_ints():
    with pytest.raises(TypeError):
        normalize((1, 2, 3.0))


@given(coord_tuples(st.one_of(int_coord, st.booleans(), st.fractions(max_denominator=60))))
def test_normalize_bool_and_mixed_input_matches_fraction_reference(t):
    got = normalize(t)
    assert got == reference_normalize(t)
    assert all(type(c) is int for c in got)


@given(nonzero_triple(), nonzero_triple())
def test_join_passes_through_both_points(t, u):
    p, q = Point2(*t), Point2(*u)
    if p == q:
        return
    l = join2(p, q)
    assert l.contains(p) and l.contains(q)


@given(nonzero_triple(), nonzero_triple())
def test_meet_lies_on_both_lines(t, u):
    l, m = Line2(*t), Line2(*u)
    if l == m:
        return
    x = meet2(l, m)
    assert l.contains(x) and m.contains(x)


@given(nonzero_triple(), nonzero_triple())
@example(t=(0, 0, 1), u=(0, 1, 0))  # meet2(l, m) == p: joining them would raise
def test_join_meet_duality(t, u):
    p, q = Point2(*t), Point2(*u)
    if p == q:
        return
    l = join2(p, q)
    m = Line2(*u) if Line2(*u) != l else Line2(1, 1, 1)
    if m == l:
        m = Line2(1, 0, 1)
    assert meet2(l, m) == p or join2(meet2(l, m), p) == l


quad_coord = st.tuples(coord, coord, coord, coord).filter(lambda t: any(t))


@given(quad_coord, quad_coord)
def test_pluecker_relation(a, b):
    x, y = Point3(*a), Point3(*b)
    if x == y:
        return
    p = line3_through(x, y).pluecker
    assert p[0] * p[3] + p[1] * p[4] + p[2] * p[5] == 0


@given(quad_coord, quad_coord, quad_coord)
def test_meet_lines3_incidence(a, b, c):
    x, y, z = Point3(*a), Point3(*b), Point3(*c)
    if len({x, y, z}) < 3:
        return
    l1 = line3_through(x, y)
    l2 = line3_through(x, z)
    if l1 == l2:
        return
    m = meet_lines3(l1, l2)
    assert m is not None
    assert l1.contains(m) and l2.contains(m)


@given(nonzero_triple())
def test_embed_chart_round_trip(t):
    # the drawing plane's chart drops x2
    p = Point2(*t)
    x0, x1, x2, x3 = embed_drawing(p).coords
    assert x2 == 0 and Point2(x0, x1, x3) == p


def reference_coplanarity_det(a, b, c, d):
    """The 4x4 determinant of the rows a, b, c, d by Laplace expansion along a."""

    def det3(r0, r1, r2):
        (p, q, r), (s, t, u), (v, w, x) = r0, r1, r2
        return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)

    rest = (b.coords, c.coords, d.coords)
    return sum(
        (-1) ** j * x * det3(*(row[:j] + row[j + 1 :] for row in rest))
        for j, x in enumerate(a.coords)
    )


@given(quad_coord, quad_coord, quad_coord, quad_coord)
@example(a=(1, 0, 0, 1), b=(0, 1, 0, 1), c=(0, 0, 1, 1), d=(1, 1, -1, 1))  # coplanar
@example(a=(1, 0, 0, 0), b=(0, 1, 0, 0), c=(0, 0, 1, 0), d=(0, 0, 0, 1))  # det 1
def test_coplanarity_det_matches_laplace_reference(a, b, c, d):
    points = [Point3(*t) for t in (a, b, c, d)]
    assert coplanarity_det(*points) == reference_coplanarity_det(*points)


def reference_clip(line, rect):
    """The chord of a line across a rectangle of Fractions, found with
    Fraction arithmetic: ends in lexicographic order, or None."""
    a, b, c = line.coords
    if a == 0 and b == 0:
        return None
    xmin, ymin, xmax, ymax = rect
    hits = set()
    for x in (xmin, xmax):
        if b != 0:
            y = Fraction(-(a * x + c), b)
            if ymin <= y <= ymax:
                hits.add((x, y))
    for y in (ymin, ymax):
        if a != 0:
            x = Fraction(-(b * y + c), a)
            if xmin <= x <= xmax:
                hits.add((x, y))
    if len(hits) < 2:
        return None
    ordered = sorted(hits)
    return ordered[0], ordered[-1]


# (X0, Y0, X1, Y1, D): the rectangle [X0/D, X1/D] x [Y0/D, Y1/D]
rects = st.builds(
    lambda x0, y0, w, h, d: (x0, y0, x0 + w, y0 + h, d),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 4),
)
small = st.integers(-8, 8)


@given(st.tuples(small, small, small).filter(any), rects)
@example(line=(1, 1, 0), rect=(0, 0, 2, 2, 1))  # through exactly one corner
@example(line=(1, -1, 0), rect=(0, 0, 2, 2, 1))  # through two opposite corners
@example(line=(0, 1, 0), rect=(0, 0, 2, 2, 1))  # along the bottom edge
@example(line=(1, 0, -2), rect=(0, 0, 2, 2, 1))  # along the right edge
@example(line=(0, 2, -1), rect=(0, 0, 2, 2, 1))  # horizontal, y = 1/2
@example(line=(3, 0, -1), rect=(0, 0, 2, 2, 3))  # vertical, x = 1/3
@example(line=(1, 1, -10), rect=(0, 0, 2, 2, 1))  # misses the rectangle
@example(line=(0, 0, 1), rect=(0, 0, 2, 2, 1))  # the line at infinity
def test_integer_clip_matches_fraction_reference(line, rect):
    line = Line2(*line)
    x0, y0, x1, y1, d = rect
    expected = reference_clip(line, tuple(Fraction(v, d) for v in (x0, y0, x1, y1)))
    chord = _clip_to_rect(line, rect)
    if chord is not None:
        assert all(w > 0 for _, _, w in chord)
        chord = tuple((Fraction(x, w), Fraction(y, w)) for x, y, w in chord)
    assert chord == expected
