"""Deterministic sample generators.

The SplitMix64 reference outputs below were recomputed from the published
recurrence with an independent implementation; the seed-0 sequence agrees
with the widely circulated test vector (first output 0xe220a8397b1dcdaf).
"""

import hashlib
from fractions import Fraction

import pytest

from quadshadow.kernel import Point2, ZeroVector, collinear2, join2, meet2
from quadshadow.quadrangle import VERTEX_LABELS, diagonal_triangle
from quadshadow.perspectivity import (
    Collineation,
    desargues_axis,
    general_position,
    perspective_center,
    triangles_perspective_point,
)
from quadshadow.checker import DegeneracyKind, classify_degeneracy, decide_depiction
from quadshadow.generators import (
    GenConfig,
    RetriesExhausted,
    SplitMix64,
    _toward,
    gen_axis_perspective_triangles,
    gen_collineation,
    gen_correct_diagram,
    gen_degenerate_diagram,
    gen_general_position_diagram,
    gen_incorrect_diagram,
    gen_point_perspective_triangles,
    gen_quadrangle,
)
from quadshadow.lift import project_scene


# --- the stream -------------------------------------------------------------

def test_splitmix64_reference_vector_seed_zero():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]


def test_splitmix64_reference_vector_large_seed():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_seed_is_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_below_range_and_determinism():
    rng = SplitMix64(5)
    draws = [rng.below(10) for _ in range(8)]
    assert draws == [8, 4, 3, 9, 1, 6, 9, 5]
    assert all(0 <= d < 10 for d in draws)


def test_below_rejects_nonpositive():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.below(-3)


# --- generic contracts --------------------------------------------------------

def test_generators_are_deterministic():
    assert gen_quadrangle(42) == gen_quadrangle(42)
    assert gen_correct_diagram(42) == gen_correct_diagram(42)
    assert gen_incorrect_diagram(42) == gen_incorrect_diagram(42)
    assert gen_point_perspective_triangles(42) == gen_point_perspective_triangles(42)
    assert gen_axis_perspective_triangles(42) == gen_axis_perspective_triangles(42)
    assert gen_collineation(42) == gen_collineation(42)


def test_generator_outputs_are_frozen():
    # sha256 of the repr of every public generator's output for seeds
    # 0-149; any change to a draw, its order or a retry test moves it.
    digest = hashlib.sha256()
    for seed in range(150):
        for out in (
            gen_quadrangle(seed),
            gen_correct_diagram(seed),
            gen_incorrect_diagram(seed),
            gen_general_position_diagram(seed, correct=True),
            gen_general_position_diagram(seed, correct=False),
            gen_degenerate_diagram(seed, kind=DegeneracyKind.TRIANGLE),
            gen_degenerate_diagram(seed, kind=DegeneracyKind.VERTEX),
            gen_point_perspective_triangles(seed),
            gen_axis_perspective_triangles(seed),
            gen_collineation(seed),
        ):
            digest.update(repr(out).encode())
    assert digest.hexdigest() == (
        "e2f9c93a49798580a402615ae08aae62e0790aedc6aec6853e22f50468c99d67"
    )


def test_different_seeds_differ_somewhere():
    assert any(gen_quadrangle(s) != gen_quadrangle(s + 1) for s in range(5))


def test_retries_exhausted_with_zero_budget():
    with pytest.raises(RetriesExhausted):
        gen_quadrangle(0, GenConfig(max_retries=0))
    with pytest.raises(RetriesExhausted):
        gen_correct_diagram(0, GenConfig(max_retries=0))


def test_bounds_are_respected():
    cfg = GenConfig(numerator_bound=2, denominator_bound=1)
    for seed in range(20):
        q = gen_quadrangle(seed, cfg)
        for lab in VERTEX_LABELS:
            x, y = q.vertex(lab).affine_coords
            assert x.denominator == 1 and y.denominator == 1
            assert abs(x) <= 2 and abs(y) <= 2


# --- quadrangles ----------------------------------------------------------------

def test_gen_quadrangle_valid_across_seeds():
    for seed in range(50):
        q = gen_quadrangle(seed)
        diag = diagonal_triangle(q)  # would raise on a degenerate sample
        assert len({q.P, q.Q, q.R, q.S}) == 4
        assert len({diag.A, diag.B, diag.C}) == 3


# --- correct diagrams ------------------------------------------------------------

def test_gen_correct_diagram_is_correct_and_projected():
    for seed in range(30):
        scene, d = gen_correct_diagram(seed)
        assert decide_depiction(d).correct
        assert project_scene(scene) == d


def test_gen_incorrect_diagram_is_applicable_but_wrong():
    for seed in range(30):
        d = gen_incorrect_diagram(seed)
        v = decide_depiction(d)
        assert v.applicable
        assert not v.correct


def test_gen_general_position_diagram_flags():
    for seed in range(15):
        good = gen_general_position_diagram(seed, correct=True)
        v = decide_depiction(good)
        assert v.correct
        assert general_position(good.quad1, good.quad2)
        bad = gen_general_position_diagram(seed, correct=False)
        w = decide_depiction(bad)
        assert w.applicable and not w.correct
        assert general_position(bad.quad1, bad.quad2)


# --- degenerate diagrams -----------------------------------------------------------

def test_gen_degenerate_triangle_case():
    for seed in range(20):
        d = gen_degenerate_diagram(seed, kind=DegeneracyKind.TRIANGLE)
        c = classify_degeneracy(d.quad1, d.quad2)
        assert c.kind is DegeneracyKind.TRIANGLE
        v = decide_depiction(d)
        assert v.applicable and not v.correct


def test_gen_degenerate_vertex_case():
    for seed in range(20):
        d = gen_degenerate_diagram(seed, kind=DegeneracyKind.VERTEX)
        c = classify_degeneracy(d.quad1, d.quad2)
        assert c.kind is DegeneracyKind.VERTEX
        v = decide_depiction(d)
        assert v.applicable and not v.correct


# --- perspective triangle pairs -----------------------------------------------------

#: The default bounds, and bounds so tight that coincidences are common.
CONTRACT_CONFIGS = (GenConfig(), GenConfig(numerator_bound=2, denominator_bound=1))


def test_gen_point_perspective_triangles_contract():
    for cfg in CONTRACT_CONFIGS:
        for seed in range(500):
            center, t1, t2 = gen_point_perspective_triangles(seed, cfg)
            assert center not in t2
            assert triangles_perspective_point(center, t1, t2)
            assert perspective_center(t1, t2) is not None
            axis = desargues_axis(t1, t2)
            for l1, l2 in zip(_side_lines(t1), _side_lines(t2)):
                assert axis.contains(meet2(l1, l2))


def test_gen_axis_perspective_triangles_contract():
    # 217 and the three further seeds once drew a pair sharing a side, with no
    # Desargues axis
    for cfg in CONTRACT_CONFIGS:
        for seed in [*range(500), 1278, 1535, 1622]:
            axis, t1, t2 = gen_axis_perspective_triangles(seed, cfg)
            assert len(set(t2)) == 3
            assert not collinear2(*t2)
            assert not axis.contains(t2[2])
            assert desargues_axis(t1, t2) == axis
            for l1, l2 in zip(_side_lines(t1), _side_lines(t2)):
                assert axis.contains(meet2(l1, l2))
            center = perspective_center(t1, t2)
            assert center is not None
            for v1, v2 in zip(t1, t2):
                assert collinear2(center, v1, v2)


def test_axis_perspective_triangles_at_small_bounds_are_frozen():
    # with coordinates of at most 2 in numerator and denominator, x2 often falls on
    # the axis or on a vertex of t1; such a draw is refused before its ratio is
    # drawn, and the samples pin that: a later refusal would draw other samples
    digest = hashlib.sha256()
    for bound in (1, 2):
        cfg = GenConfig(numerator_bound=bound, denominator_bound=bound)
        for seed in range(40):
            digest.update(repr(gen_axis_perspective_triangles(seed, cfg)).encode())
    assert digest.hexdigest() == (
        "187c7918fa7fb42bda8c80dea6b01481a1eb670b7c25f2e9a4c9a53f66cac94c"
    )


def test_toward_refuses_an_ideal_end_in_either_order():
    ideal, affine = Point2(1, 2, 0), Point2(3, 4, 1)
    for a, b in ((ideal, affine), (affine, ideal)):
        with pytest.raises(ZeroVector, match="^ideal point among Point2"):
            _toward(a, b, Fraction(1, 2))


def _side_lines(t):
    a, b, c = t
    return join2(b, c), join2(c, a), join2(a, b)


# --- collineations ------------------------------------------------------------------

def test_gen_collineation_is_invertible():
    for seed in range(15):
        m = gen_collineation(seed)
        inv = m.inverse()
        q = gen_quadrangle(seed)
        assert inv.apply_quadrangle(m.apply_quadrangle(q)) == q


def test_gen_collineation_inverse_composes_to_identity():
    identity = Collineation.identity()
    for seed in range(50):
        m = gen_collineation(seed)
        assert m.inverse().compose(m) == identity
        assert m.compose(m.inverse()) == identity
