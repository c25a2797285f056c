"""Textbook arithmetic for the tests' oracles: cross and dot products, the
3x3 determinant and the parametric meet of two lines.

These work on tuples of int or Fraction and import nothing from quadshadow,
so a test that holds the package to them holds it to plain arithmetic.
"""

from fractions import Fraction


def cross(a, b):
    """The cross product: the join of two points, or the meet of two lines, of the plane."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det3(r0, r1, r2):
    """The determinant of the rows r0, r1, r2, as the triple product."""
    return dot(r0, cross(r1, r2))


def line_meet(p0, q0, p1, q1):
    """(t, u) with p0 + t (q0 - p0) = p1 + u (q1 - p1), for two affine lines of
    space that meet in one point, from the first two coordinate equations with
    a nonzero 2x2 determinant."""
    d0 = [b - a for a, b in zip(p0, q0)]
    d1 = [b - a for a, b in zip(p1, q1)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        den = d1[i] * d0[j] - d0[i] * d1[j]
        if den:
            bi, bj = p1[i] - p0[i], p1[j] - p0[j]
            return Fraction(d1[i] * bj - bi * d1[j], den), Fraction(d0[i] * bj - bi * d0[j], den)
    raise AssertionError("parallel directions")
