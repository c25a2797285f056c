"""Acceptance gate: eleven numbered end-to-end criteria.

Every criterion prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s``) and enforces a wall-clock cap.  All comparisons are exact;
there are no tolerances anywhere in this module.

Expensive sample pools are built once and shared, from tests/figures.py:
criterion 3 builds the 1000-diagram correct pool that criterion 4
consumes, and criterion 6 builds the general-position pool reused by
criteria 7, 9, and 11.  The pools are built on demand if a criterion is
run in isolation.
"""

import functools
import time

import pytest

from quadshadow.kernel import (
    DRAWING_PLANE, Line2, Point2, collinear2, collinear3, embed_drawing, join2, meet2
)
from quadshadow.quadrangle import SIDE_LABELS, diagonal_triangle, quadrangular_trace
from quadshadow.perspectivity import (
    NoCommonAxis,
    common_axis,
    perspective_center,
    perspective_collineation,
    side_axes,
)
from quadshadow.checker import DegeneracyKind, classify_degeneracy, decide_depiction
from quadshadow.lift import (
    lift_collinear_centers,
    lift_via_axis,
    planarity_certificate,
    project_scene,
    scene_from_witness,
    verify_witness,
    witness_side_traces,
)
from quadshadow.generators import (
    gen_axis_perspective_triangles,
    gen_degenerate_diagram,
    gen_incorrect_diagram,
    gen_point_perspective_triangles,
)
from quadshadow.cli_io import emit_diagram

from figures import DIAGRAM, INCORRECT, O, PERTURBED, SQUARE, STANDARD, correct_pool, gp_pool


def criterion(num: int, cap: float, label: str):
    """Time the body, enforce the cap, and print the per-criterion line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                detail = fn()
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL — {label}")
                raise
            elapsed = time.monotonic() - start
            if elapsed >= cap:
                print(
                    f"ACCEPTANCE {num}: FAIL — {label} "
                    f"({elapsed:.2f}s exceeds {cap:g}s cap)"
                )
                raise AssertionError(f"criterion {num} took {elapsed:.2f}s (cap {cap:g}s)")
            extra = f"{detail}, " if detail else ""
            print(f"ACCEPTANCE {num}: PASS — {label} ({extra}{elapsed:.2f}s)")

        return wrapper

    return deco


@criterion(1, 1.0, "standard quadrangle diagonal triangle")
def test_criterion_01():
    dt = diagonal_triangle(STANDARD)
    # hand cross-product oracle: SP x QR etc., reduced
    assert dt.A == Point2(0, 1, 1)
    assert dt.B == Point2(1, 0, 1)
    assert dt.C == Point2(1, 1, 0)


@criterion(2, 1.0, "dilation correct, perturbed-Q fails the A-pair on x = -1")
def test_criterion_02():
    good = decide_depiction(DIAGRAM)
    assert good.correct and good.diagonal_pairs == (True, True, True)

    bad = decide_depiction(INCORRECT)
    assert not bad.correct and bad.applicable
    assert bad.diagonal_pairs[0] is False
    a_line = join2(diagonal_triangle(SQUARE).A, diagonal_triangle(PERTURBED).A)
    assert a_line == Line2(1, 0, 1)  # the affine line x = -1
    assert not a_line.contains(O)


@criterion(3, 10.0, "necessity: 1000 constructed scenes all check correct")
def test_criterion_03():
    correct_pool.cache_clear()
    pool = correct_pool()
    assert len(pool) == 1000
    assert all(decide_depiction(d).correct for _, d in pool)
    return "1000/1000"


@criterion(4, 30.0, "sufficiency: witnesses verify and round-trip byte-exactly")
def test_criterion_04():
    for _, d in correct_pool():
        w = lift_collinear_centers(d)
        report = verify_witness(d, w)
        assert report.passed and len(report.clauses) == 5
        back = project_scene(scene_from_witness(w))
        assert emit_diagram(back) == emit_diagram(d)
        assert back == d
    return "1000/1000"


@criterion(5, 30.0, "failure certificates: nonzero coplanarity determinants")
def test_criterion_05():
    for seed in range(1000):
        d = gen_incorrect_diagram(seed)
        v = decide_depiction(d)
        assert v.applicable and not v.correct
        assert planarity_certificate(d).determinant != 0
    return "1000/1000"


@criterion(6, 10.0, "one pair suffices: diagonal booleans always all-equal")
def test_criterion_06():
    gp_pool.cache_clear()
    good, bad = gp_pool()
    trues = {0: 0, 3: 0}
    for d in good + bad:
        pairs = decide_depiction(d).diagonal_pairs
        count = sum(pairs)
        assert count in (0, 3), pairs
        trues[count] += 1
    assert trues[3] == 500 and trues[0] == 500
    return "500 correct + 500 incorrect"


@criterion(7, 30.0, "axis: four side-axes agree and traces match label-wise")
def test_criterion_07():
    good, bad = gp_pool()
    for d in good:
        axes = side_axes(d.quad1, d.quad2)
        assert axes.s == axes.r == axes.q == axes.p
        o = axes.s
        t1 = quadrangular_trace(d.quad1, o)
        t2 = quadrangular_trace(d.quad2, o)
        spatial = witness_side_traces(lift_collinear_centers(d))
        for lab in SIDE_LABELS:
            assert t1[lab] == t2[lab] == spatial[lab]
    for d in bad:
        with pytest.raises(NoCommonAxis):
            common_axis(d.quad1, d.quad2)
    return "500 + 500"


@criterion(8, 10.0, "Desargues and its converse on 1000 + 1000 triangle pairs")
def test_criterion_08():
    for seed in range(1000):
        _, t1, t2 = gen_point_perspective_triangles(seed)
        meets = [
            meet2(join2(t1[i], t1[j]), join2(t2[i], t2[j]))
            for i, j in ((1, 2), (2, 0), (0, 1))
        ]
        assert collinear2(*meets)
    for seed in range(1000):
        _, u1, u2 = gen_axis_perspective_triangles(seed)
        center = perspective_center(u1, u2)
        for v1, v2 in zip(u1, u2):
            assert collinear2(center, v1, v2)
    return "1000 + 1000"


@criterion(9, 10.0, "homology from one vertex pair maps the other three")
def test_criterion_09():
    good, _ = gp_pool()
    for d in good:
        o = common_axis(d.quad1, d.quad2)
        h = perspective_collineation(d.O, o, (d.quad1.P, d.quad2.P))
        for lab in ("Q", "R", "S"):
            assert h.apply(d.quad1.vertex(lab)) == d.quad2.vertex(lab)
    return "500/500"


@criterion(10, 5.0, "degenerate perspective diagrams classified and refused")
def test_criterion_10():
    for kind in (DegeneracyKind.TRIANGLE, DegeneracyKind.VERTEX):
        for seed in range(100):
            d = gen_degenerate_diagram(seed, kind=kind)
            assert classify_degeneracy(d.quad1, d.quad2).kind is kind
            v = decide_depiction(d)
            assert v.applicable and not v.correct
    return "100 + 100"


@criterion(11, 20.0, "axis-route witnesses verify with collinear centers")
def test_criterion_11():
    good, _ = gp_pool()
    for d in good[:200]:
        w = lift_via_axis(d)
        assert verify_witness(d, w).passed
        assert collinear3(w.O1, w.O2, embed_drawing(d.O))
        assert w.drawing_plane == DRAWING_PLANE
    return "200/200"
