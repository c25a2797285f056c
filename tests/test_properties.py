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

from pluecker_oracle import line3_through, meet_lines3
from textbook import det4

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


@given(quad_coord, quad_coord, quad_coord, quad_coord)
@example(a=(1, 0, 0, 1), b=(0, 1, 0, 1), c=(0, 0, 1, 1), d=(1, 1, -1, 1))  # coplanar
@example(a=(1, 0, 0, 0), b=(0, 1, 0, 0), c=(0, 0, 1, 0), d=(0, 0, 0, 1))  # det 1
def test_coplanarity_det_matches_laplace_reference(a, b, c, d):
    points = [Point3(*t) for t in (a, b, c, d)]
    assert coplanarity_det(*points) == det4(*(p.coords for p in points))
