"""Complete quadrangles: sides, diagonal triangles, quadrangular traces."""

import json
from itertools import combinations, permutations

import pytest

from quadshadow.documents import InvariantViolation, parse_diagram
from quadshadow.kernel import Line2, Point2, join2, meet2
from quadshadow.quadrangle import (
    OPPOSITE_SIDES,
    SIDE_LABELS,
    VERTEX_LABELS,
    CollinearTriple,
    LineThroughVertex,
    Quadrangle,
    RepeatedVertex,
    diagonal_triangle,
    quadrangular_trace,
    sides,
)

from figures import DATA, SQUARE, STANDARD


def test_vertex_access_by_label():
    assert STANDARD.vertex("P") == Point2(1, 0, 0)
    assert STANDARD.vertex("S") == Point2(1, 1, 1)
    assert tuple(STANDARD.labeled()) == VERTEX_LABELS
    with pytest.raises(KeyError):
        STANDARD.vertex("T")


def test_repeated_vertex_rejected():
    a = Point2.affine(0, 0)
    with pytest.raises(RepeatedVertex) as err:
        Quadrangle(a, Point2.affine(1, 0), Point2(2, 0, 2), Point2.affine(1, 1))
    assert "P" in str(err.value) and "R" in str(err.value)


def test_collinear_triple_rejected():
    with pytest.raises(CollinearTriple) as err:
        Quadrangle(
            Point2.affine(0, 0),
            Point2.affine(1, 1),
            Point2.affine(2, 2),
            Point2.affine(0, 5),
        )
    assert "Q" in str(err.value) and "R" in str(err.value)


#: Affine (x, y) or homogeneous (x0, x1, x2) vertices P, Q, R, S, and the error they raise.
_INVALID = {
    # each coincident pair of (0, 0), (1, 0), (0, 1), (2, 3), both moved to (-2, 3) and
    # the second spelled as a multiple of the first
    **{
        f"{a}={b}": (
            [(2, -3, -1) if k == i else (-4, 6, 2) if k == j else c
             for k, c in enumerate([(0, 0), (1, 0), (0, 1), (2, 3)])],
            RepeatedVertex, f"vertices {a} and {b} coincide at Point2(2:-3:-1)",
        )
        for (i, a), (j, b) in combinations(enumerate(VERTEX_LABELS), 2)
    },
    "PQR": ([(0, 0), (1, 0), (2, 0), (0, 1)], CollinearTriple, "vertices P, Q, R are collinear"),
    "PQS": ([(0, 0), (1, 0), (0, 1), (2, 0)], CollinearTriple, "vertices P, Q, S are collinear"),
    "PRS": ([(0, 0), (1, 0), (0, 1), (0, 2)], CollinearTriple, "vertices P, R, S are collinear"),
    "QRS": ([(0, 0), (1, 0), (0, 1), (2, -1)], CollinearTriple, "vertices Q, R, S are collinear"),
    "PQRS": ([(0, 0), (1, 0), (2, 0), (3, 0)], CollinearTriple, "vertices P, Q, R are collinear"),
    # R = S on the line PQR: the pair is reported before the triple
    "R=S, PQR": (
        [(0, 0), (1, 0), (2, 0), (2, 0)], RepeatedVertex,
        "vertices R and S coincide at Point2(2:0:1)",
    ),
    "P=Q, PQR": (
        [(5, 5), (5, 5), (0, 1), (3, 2)], RepeatedVertex,
        "vertices P and Q coincide at Point2(5:5:1)",
    ),
    "ideal P=Q": (
        [(1, 0, 0), (-2, 0, 0), (0, 1), (1, 1)], RepeatedVertex,
        "vertices P and Q coincide at Point2(1:0:0)",
    ),
    "ideal PQR": (
        [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0)], CollinearTriple,
        "vertices P, Q, R are collinear",
    ),
    "ideal PRS": (
        [(0, 0), (3, 1), (1, 0, 0), (2, 0)], CollinearTriple, "vertices P, R, S are collinear"
    ),
    "ideal QRS": (
        [(0, 0), (0, 1, 0), (1, 1), (1, 5)], CollinearTriple, "vertices Q, R, S are collinear"
    ),
}


def _points(coords):
    return [Point2.affine(*c) if len(c) == 2 else Point2(*c) for c in coords]


@pytest.mark.parametrize("case", _INVALID)
def test_quadrangle_validation_texts_are_frozen(case):
    # the texts _check_vertices words: the first coincident pair, else the first
    # collinear triple in the order PQR, PQS, PRS, QRS
    coords, error, message = _INVALID[case]
    with pytest.raises(error) as info:
        Quadrangle(*_points(coords))
    assert str(info.value) == message
    doc = json.loads((DATA / "dilation.json").read_text())
    points = zip(VERTEX_LABELS, _points(coords))
    doc["quad1"] = {lab: [str(c) for c in v.coords] for lab, v in points}
    with pytest.raises(InvariantViolation) as info:
        parse_diagram(json.dumps(doc))
    assert str(info.value) == f"quad1: {message}"


# --- sides ---------------------------------------------------------------

def test_standard_sides_frozen_values():
    s = sides(STANDARD)
    assert s.PQ == Line2(0, 0, 1)
    assert s.QR == Line2(1, 0, 0)
    assert s.SP == Line2(0, 1, -1)


def test_sides_match_joins():
    s = sides(SQUARE)
    labeled = SQUARE.labeled()
    for lab in SIDE_LABELS:
        a, b = lab[0], lab[1]
        assert s[lab] == join2(labeled[a], labeled[b])


def test_sides_and_diagonal_triangle_are_built_once():
    q = Quadrangle(*SQUARE.vertices)
    assert sides(q) is sides(q)
    assert diagonal_triangle(q) is diagonal_triangle(q)
    assert Quadrangle._crosses is vars(Quadrangle)["_crosses"]  # the class gets the descriptor


@pytest.mark.parametrize("first", [sides, diagonal_triangle])
def test_built_sides_leave_equality_hash_and_repr_alone(first):
    used = Quadrangle(*SQUARE.vertices)
    first(used)
    fresh = Quadrangle(*SQUARE.vertices)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert sides(used) == sides(fresh)
    assert diagonal_triangle(used) == diagonal_triangle(fresh)


def test_opposite_sides_share_no_vertex():
    for one, other in OPPOSITE_SIDES:
        assert set(one) & set(other) == set()
    assert set(lab for pair in OPPOSITE_SIDES for lab in pair) == set(SIDE_LABELS)


def test_each_side_contains_its_two_vertices():
    s = sides(SQUARE)
    labeled = SQUARE.labeled()
    for lab in SIDE_LABELS:
        assert s[lab].contains(labeled[lab[0]])
        assert s[lab].contains(labeled[lab[1]])


# --- diagonal triangle ---------------------------------------------------

def test_square_diagonal_triangle_two_points_ideal():
    dt = diagonal_triangle(SQUARE)
    assert dt.A == Point2(0, 1, 0)
    assert dt.B == Point2(0, 0, 1)
    assert dt.C == Point2(1, 0, 0)


def test_diagonal_points_match_opposite_side_meets():
    s = sides(SQUARE)
    dt = diagonal_triangle(SQUARE)
    assert dt.A == meet2(s.SP, s.QR)
    assert dt.B == meet2(s.SQ, s.RP)
    assert dt.C == meet2(s.SR, s.PQ)
    assert dt.points == (dt.A, dt.B, dt.C)


def test_diagonal_triangle_label_equivariance():
    """Relabeling the vertices permutes the diagonal points along with the
    induced permutation of the pair partitions; the three points as a set
    are a labeling-free invariant of the four vertices."""
    base = {
        frozenset((frozenset("SP"), frozenset("QR"))): diagonal_triangle(STANDARD).A,
        frozenset((frozenset("SQ"), frozenset("RP"))): diagonal_triangle(STANDARD).B,
        frozenset((frozenset("SR"), frozenset("PQ"))): diagonal_triangle(STANDARD).C,
    }
    originals = {lab: STANDARD.vertex(lab) for lab in VERTEX_LABELS}
    for perm in permutations(VERTEX_LABELS):
        relabeled = Quadrangle(*(originals[lab] for lab in perm))
        to_original = dict(zip(VERTEX_LABELS, perm))
        dt = diagonal_triangle(relabeled)
        for point, pairing in (
            (dt.A, ("SP", "QR")),
            (dt.B, ("SQ", "RP")),
            (dt.C, ("SR", "PQ")),
        ):
            key = frozenset(
                frozenset(to_original[lab] for lab in pair) for pair in pairing
            )
            assert point == base[key]


def test_diagonal_points_never_collinear():
    # over the rationals the diagonal triangle is always a genuine triangle
    from quadshadow.kernel import collinear2

    for quad in (STANDARD, SQUARE):
        dt = diagonal_triangle(quad)
        assert not collinear2(dt.A, dt.B, dt.C)


# --- quadrangular trace --------------------------------------------------

def test_square_trace_on_ideal_line_frozen_values():
    trace = quadrangular_trace(SQUARE, Line2(0, 0, 1))
    assert trace.PQ == Point2(1, 0, 0)
    assert trace.QR == Point2(0, 1, 0)
    assert trace.SR == Point2(1, 0, 0)
    assert trace.SP == Point2(0, 1, 0)
    assert trace.SQ == Point2(1, -1, 0)
    assert trace.RP == Point2(1, 1, 0)
    assert trace.line == Line2(0, 0, 1)


def test_trace_points_lie_on_line_and_sides():
    line = Line2(1, 1, -5)
    trace = quadrangular_trace(SQUARE, line)
    s = sides(SQUARE)
    for lab in SIDE_LABELS:
        p = getattr(trace, lab)
        assert line.contains(p)
        assert s[lab].contains(p)


def test_trace_through_vertex_rejected():
    with pytest.raises(LineThroughVertex) as err:
        quadrangular_trace(SQUARE, join2(SQUARE.P, Point2.affine(0, 5)))
    assert "P" in str(err.value)


def test_trace_opposite_pairs_structure():
    # six trace points fall into the three opposite-side pairs
    line = Line2(2, 3, -7)
    trace = quadrangular_trace(SQUARE, line)
    for one, other in OPPOSITE_SIDES:
        assert getattr(trace, one) != getattr(trace, other)
