"""Witness construction, scene projection, and witness verification.

The worked example lifts the square-dilation diagram with displacements
(1, -1); expected spatial vertices are recomputed here with the parametric
line meet of tests/textbook.py, independent of the library's meet machinery.
"""

import hashlib
from fractions import Fraction as F
from math import gcd

import pytest

import quadshadow.checker
import quadshadow.perspectivity
from quadshadow.kernel import (
    DRAWING_PLANE,
    CoincidentPoints,
    GeometryError,
    Line2,
    LineInPlane,
    Plane3,
    Point2,
    Point3,
    central_project,
    collinear3,
    embed_drawing,
    meet2,
)
from quadshadow.quadrangle import OPPOSITE_SIDES, SIDE_LABELS, VERTEX_LABELS, Quadrangle
from quadshadow.perspectivity import (
    HomologousSidesEqual,
    NotPerspective,
    general_position,
    perspective_collineation,
    side_axes,
)
from quadshadow.checker import (
    DegeneracyKind,
    PlanarDiagram,
    classify_degeneracy,
    decide_depiction,
)
from quadshadow.generators import SplitMix64, gen_correct_diagram, gen_general_position_diagram
from quadshadow.lift import (
    ClauseCheck,
    DegenerateParameters,
    DegenerateScene,
    NotCorrectDiagram,
    NotGeneralPosition,
    SpatialQuadrangle,
    SpatialScene,
    Witness,
    displaced_centers,
    lift_collinear_centers,
    lift_via_axis,
    planarity_certificate,
    project_scene,
    scene_from_witness,
    verify_witness,
    witness_side_traces,
    _spatial_diagonals,
    _triple_planes,
)

from collineations import apply_quadrangle
from figures import A, DIAGRAM, DILATED, INCORRECT, O, OFF_RAY, SQUARE, replace
from pluecker_oracle import line3_through, meet_line_plane, meet_lines3
from textbook import line_meet


# --- displaced centers ----------------------------------------------------

def test_displaced_centers_frozen_values():
    o1, o2 = displaced_centers(O, 1, -1)
    assert o1 == Point3(3, 0, 1, 1)
    assert o2 == Point3(3, 0, -1, 1)


def test_displaced_centers_work_for_ideal_center():
    o1, o2 = displaced_centers(Point2(1, -2, 0), 1, -1)
    assert o1 == Point3(1, -2, 1, 0)
    assert collinear3(o1, o2, embed_drawing(Point2(1, -2, 0)))


def test_displaced_centers_parameter_gates():
    with pytest.raises(DegenerateParameters):
        displaced_centers(O, 1, 1)
    with pytest.raises(DegenerateParameters):
        displaced_centers(O, 0, 1)
    with pytest.raises(DegenerateParameters):
        displaced_centers(O, 1, 0)


# --- the worked example ----------------------------------------------------

EXPECTED_BARRED = {
    "P": Point3(1, 4, -1, 3),
    "Q": Point3(-7, 4, -1, 3),
    "R": Point3(-7, -4, -1, 3),
    "S": Point3(1, -4, -1, 3),
}


def test_lift_collinear_centers_frozen_values():
    w = lift_collinear_centers(DIAGRAM)
    assert w.O1 == Point3(3, 0, 1, 1)
    assert w.O2 == Point3(3, 0, -1, 1)
    for lab in VERTEX_LABELS:
        assert w.quad.labeled()[lab] == EXPECTED_BARRED[lab]
    assert w.quad.plane == Plane3(0, 0, 3, 1)
    assert w.drawing_plane == DRAWING_PLANE


def test_lifted_vertices_match_two_ray_oracle():
    c1, c2 = (3, 0, 1), (3, 0, -1)
    for lab in VERTEX_LABELS:
        x1 = (*SQUARE.vertex(lab).affine_coords, 0)
        t, _ = line_meet(c1, x1, c2, (*DILATED.vertex(lab).affine_coords, 0))
        oracle = (c + t * (x - c) for c, x in zip(c1, x1))
        assert EXPECTED_BARRED[lab] == Point3.affine(*oracle)


def test_lift_rejects_incorrect_diagram():
    with pytest.raises(NotCorrectDiagram):
        lift_collinear_centers(INCORRECT)


def test_lift_parameter_gates():
    with pytest.raises(DegenerateParameters):
        lift_collinear_centers(DIAGRAM, 2, 2)


def test_lift_custom_displacements():
    w = lift_collinear_centers(DIAGRAM, 2, F(-1, 2))
    assert w.O1 == Point3(3, 0, 2, 1)
    assert w.O2 == Point3(6, 0, -1, 2)
    assert verify_witness(DIAGRAM, w).passed


# --- planarity certificate --------------------------------------------------

def test_certificate_zero_for_correct_diagram():
    cert = planarity_certificate(DIAGRAM)
    assert cert.determinant == 0
    assert set(cert.points) == set(VERTEX_LABELS)


def test_certificate_nonzero_for_incorrect_diagram():
    cert = planarity_certificate(INCORRECT)
    assert cert.determinant != 0
    assert isinstance(cert.determinant, int)


def test_lift_and_certificate_read_the_diagram_verdict(monkeypatch):
    d = gen_correct_diagram(0)[1]
    decide_depiction(d)
    calls = []

    def counting_classify(q1, q2):
        calls.append((q1, q2))
        return classify_degeneracy(q1, q2)

    monkeypatch.setattr(quadshadow.checker, "classify_degeneracy", counting_classify)
    lift_collinear_centers(d)
    planarity_certificate(d)
    assert calls == []


def test_certificate_requires_vertex_perspective():
    with pytest.raises(NotCorrectDiagram):
        planarity_certificate(OFF_RAY)


# --- witness verification ----------------------------------------------------

def test_verify_witness_passes_for_genuine_lift():
    w = lift_collinear_centers(DIAGRAM)
    report = verify_witness(DIAGRAM, w)
    assert report.passed
    assert len(report.clauses) == 5
    assert all(c.ok for c in report.clauses)


def test_verify_witness_detects_vertex_off_plane():
    w = lift_collinear_centers(DIAGRAM)
    tampered = Witness(
        quad=SpatialQuadrangle(
            Pbar=w.quad.Pbar,
            Qbar=w.quad.Qbar,
            Rbar=w.quad.Rbar,
            Sbar=Point3(1, -4, 1, 3),  # pushed off the witness plane
            plane=w.quad.plane,
        ),
        O1=w.O1,
        O2=w.O2,
        drawing_plane=w.drawing_plane,
    )
    report = verify_witness(DIAGRAM, tampered)
    assert not report.passed
    assert not report.clauses[0].ok
    assert "S" in report.clauses[0].detail


def test_verify_witness_detects_wrong_center():
    w = lift_collinear_centers(DIAGRAM)
    tampered = Witness(
        quad=w.quad, O1=w.O1, O2=Point3(4, 0, -1, 1), drawing_plane=w.drawing_plane
    )
    report = verify_witness(DIAGRAM, tampered)
    assert not report.passed
    assert report.clauses[2] == ClauseCheck(
        "second projection reproduces quad2", False, "vertex P projects to Point3(3:-4:0:-2)"
    )


def test_verify_witness_detects_coincident_centers():
    w = lift_collinear_centers(DIAGRAM)
    report = verify_witness(DIAGRAM, Witness(w.quad, w.O1, w.O1, w.drawing_plane))
    expected = ClauseCheck("centers collinear with embedded O", False, "centers coincide")
    assert report.clauses[3] == expected


def test_verify_witness_detects_plane_equal_to_drawing_plane():
    flat = Witness(
        quad=SpatialQuadrangle(
            Pbar=embed_drawing(SQUARE.P),
            Qbar=embed_drawing(SQUARE.Q),
            Rbar=embed_drawing(SQUARE.R),
            Sbar=embed_drawing(SQUARE.S),
            plane=DRAWING_PLANE,
        ),
        O1=Point3(3, 0, 1, 1),
        O2=Point3(3, 0, -1, 1),
        drawing_plane=DRAWING_PLANE,
    )
    report = verify_witness(DIAGRAM, flat)
    assert not report.passed
    assert not report.clauses[0].ok


def test_verify_witness_judges_against_the_drawing_plane_x2_zero():
    # a flat square declaring x0 = 0 as its drawing plane: every projection
    # lands on x2 = 0, where the quadrangle itself lies
    identical = PlanarDiagram(O=O, quad1=SQUARE, quad2=SQUARE)
    assert decide_depiction(identical).degeneracy.kind is DegeneracyKind.IDENTICAL
    flat = Witness(
        quad=SpatialQuadrangle(*(embed_drawing(v) for v in SQUARE.vertices), plane=DRAWING_PLANE),
        O1=Point3(3, 0, 1, 1),
        O2=Point3(3, 0, -1, 1),
        drawing_plane=Plane3(1, 0, 0, 0),
    )
    report = verify_witness(identical, flat)
    assert not report.passed
    assert report.clauses[0].detail == "declared drawing plane Plane3(1:0:0:0) is not x2 = 0"


def test_verify_witness_reports_instead_of_raising_on_garbage():
    degenerate = Witness(
        quad=SpatialQuadrangle(
            Pbar=Point3(1, 1, 1, 1),
            Qbar=Point3(1, 1, 1, 1),
            Rbar=Point3(2, 1, 1, 1),
            Sbar=Point3(3, 7, 1, 1),
            plane=Plane3(0, 0, 1, -1),
        ),
        O1=Point3(0, 0, 2, 1),
        O2=Point3(0, 1, 2, 1),
        drawing_plane=DRAWING_PLANE,
    )
    report = verify_witness(DIAGRAM, degenerate)
    assert not report.passed
    assert not report.clauses[0].ok
    assert report.clauses[0].detail == (
        "RepeatedVertex: vertices P and Q coincide at Point3(1:1:1:1)"
    )


def test_verify_witness_names_a_collinear_spatial_triple():
    # Clause 1 names every repeated pair and every collinear triple by its labels,
    # in the order pairs PQ, PR, PS, QR, QS, RS, then triples PQR, PQS, PRS, QRS.
    w = lift_collinear_centers(DIAGRAM)
    vertices = dict(zip(VERTEX_LABELS, w.quad.vertices))

    def clause_quad(**moved):
        quad = SpatialQuadrangle(*{**vertices, **moved}.values(), plane=w.quad.plane)
        return verify_witness(DIAGRAM, Witness(quad, w.O1, w.O2, w.drawing_plane)).clauses[0]

    def on_line(a, b):
        # a point of the line ab other than a and b
        (a, a3), (b, b3) = ((vertices[x].coords, vertices[x].coords[3]) for x in (a, b))
        return Point3(*(x * b3 + y * a3 for x, y in zip(a, b)))

    at = {"P": "Point3(1:4:-1:3)", "Q": "Point3(7:-4:1:-3)", "R": "Point3(7:4:1:-3)"}
    for a, b in ("PQ", "PR", "PS", "QR", "QS", "RS"):
        assert clause_quad(**{b: vertices[a]}) == ClauseCheck(
            "spatial quadrangle valid and planar",
            False,
            f"RepeatedVertex: vertices {a} and {b} coincide at {at[a]}",
        )
    for a, b, c in ("PQR", "PQS", "PRS", "QRS"):
        assert clause_quad(**{c: on_line(a, b)}).detail == (
            f"CollinearTriple: vertices {a}, {b}, {c} are collinear"
        )


def _aimed(d, w, lab, j):
    """w with vertex lab moved onto the O1 ray through quad1's lab vertex
    plus the j-th planar basis point: its O1 image differs from that vertex
    by one step in coordinate j only."""
    q = list(d.quad1.vertex(lab).coords)
    q[j] += 1
    x = Point3(*(c + e for c, e in zip(w.O1.coords, embed_drawing(Point2(*q)).coords)))
    return replace(w, quad=replace(w.quad, **{lab + "bar": x}))


def _broken(seed, d, w):
    """Six seeded breakages of the witness w of d."""
    rng = SplitMix64(seed)

    def point():
        return Point3(*(rng.below(19) - 9 for _ in range(3)), rng.below(9) + 1)

    lab = VERTEX_LABELS[rng.below(4)]
    k = rng.below(9) + 1
    # still on its O1 ray, so only the second projection moves
    slid = Point3(*(a + k * c for a, c in zip(w.quad.labeled()[lab].coords, w.O1.coords)))
    return (
        replace(w, quad=replace(w.quad, **{lab + "bar": point()})),
        replace(w, O1=point()),
        replace(w, O2=point()),
        replace(w, O1=w.O2, O2=w.O1),
        replace(w, quad=replace(w.quad, **{lab + "bar": slid})),
        _aimed(d, w, lab, rng.below(3)),
    )


def test_verify_witness_reports_are_frozen():
    # sha256 of the reports on six breakages of the lifted and of the
    # scene's own witness of correct seeds 0-99, recorded before the judge
    # compared projections by cross-multiplication.  In the last scene quad1
    # has a zero in each coordinate (P at infinity), so moving each image
    # one step in each coordinate is in places seen by one cross component only.
    digest = hashlib.sha256()
    for seed in range(100):
        scene, d = gen_correct_diagram(seed)
        seen = Witness(scene.quad, scene.light, scene.viewpoint, DRAWING_PLANE)
        for w in (lift_collinear_centers(d), seen):
            for claim in _broken(seed, d, w):
                digest.update(repr(verify_witness(d, claim)).encode())
    quad = SpatialQuadrangle(
        Point3(1, 0, 1, 1), Point3(0, 1, 2, 1), Point3(-1, 1, 2, 1), Point3(1, -2, -1, 1),
        plane=Plane3(0, 1, -1, 1),
    )
    scene = SpatialScene(quad, Point3(0, 2, 1, 1), DRAWING_PLANE, Point3(2, 3, 5, 1))
    d = project_scene(scene)
    assert [v.coords for v in d.quad1.vertices] == [(1, -2, 0), (0, 3, 1), (1, 3, 1), (1, 0, 2)]
    w = Witness(quad, scene.light, scene.viewpoint, DRAWING_PLANE)
    assert verify_witness(d, w).passed
    aimed = (_aimed(d, w, lab, j) for lab in VERTEX_LABELS for j in range(3))
    for claim in (*_broken(0, d, w), *aimed):
        digest.update(repr(verify_witness(d, claim)).encode())
    assert digest.hexdigest() == (
        "29e200b2074bf55a2f195c9dfb4aec80a8aeb8282f47bc1c7402996dd248183e"
    )


def _oracle_diagonals(quad):
    """The spatial diagonal points A, B, C as meets of Pluecker sides."""
    v = quad.labeled()
    side = {lab: line3_through(v[lab[0]], v[lab[1]]) for lab in SIDE_LABELS}
    return tuple(meet_lines3(side[s1], side[s2]) for s2, s1 in OPPOSITE_SIDES)


def _degenerate(seed, w):
    """Eight seeded breakages aimed at the diagonal clause: a random vertex,
    a repeated vertex, a collinear triple, four collinear vertices, coplanar
    vertices off the declared plane, O1 at a spatial diagonal point, four
    random vertices, and a random O2."""
    rng = SplitMix64(seed)

    def point():
        return Point3(*(rng.below(19) - 9 for _ in range(3)), rng.below(9) + 1)

    def mix(*terms):
        """The point sum of k x over (k, x) pairs of raw coordinates."""
        return Point3(*(sum(k * x[n] for k, x in terms) for n in range(4)))

    def quad(*vertices):
        return replace(w, quad=SpatialQuadrangle(*vertices, plane=w.quad.plane))

    verts = list(w.quad.vertices)
    i, j, m = rng.below(4), rng.below(3), rng.below(2)
    others = [n for n in range(4) if n != i]
    a, b = verts[i].coords, verts[others[j]].coords
    repeated, triple = list(verts), list(verts)
    repeated[others[j]] = verts[i]
    triple[others[(j + 1 + m) % 3]] = mix((1, a), (rng.below(5) + 1, b))
    u, x, y = point(), point(), point()
    return (
        replace(w, quad=replace(w.quad, **{VERTEX_LABELS[i] + "bar": point()})),
        quad(*repeated),
        quad(*triple),
        quad(verts[i], verts[others[j]], mix((1, a), (2, b)), mix((3, a), (-1, b))),
        quad(u, x, y, mix((rng.below(3) + 1, u.coords), (-1, x.coords), (2, y.coords))),
        replace(w, O1=_oracle_diagonals(w.quad)[rng.below(3)]),
        quad(point(), point(), point(), point()),
        replace(w, O2=point()),
    )


def test_verify_witness_diagonal_clause_is_frozen_on_degenerate_witnesses():
    # sha256 of the reports on eight breakages of the lifted, the scene's
    # and (in general position) the axis witness of correct seeds 0-39,
    # recorded while clause 5 still met Pluecker sides
    digest = hashlib.sha256()
    kinds = set()
    for seed in range(40):
        scene, d = gen_correct_diagram(seed)
        seen = Witness(scene.quad, scene.light, scene.viewpoint, DRAWING_PLANE)
        witnesses = [lift_collinear_centers(d), seen]
        if general_position(d.quad1, d.quad2):
            witnesses.append(lift_via_axis(d))
        for w in witnesses:
            for claim in _degenerate(seed, w):
                report = verify_witness(d, claim)
                digest.update(repr(report).encode())
                kinds.add(report.clauses[4].detail.split(" ")[0])
    assert kinds >= {
        "CoincidentPoints:", "CoincidentLines:", "opposite", "ProjectingCenter:", "diagonal"
    }
    assert digest.hexdigest() == (
        "c5bd4aeabfef5e93468feb34faf91ddeed0fd002e8dbc56f5475e9c336cb0f43"
    )


def _seeded_witnesses():
    """(seed, diagram, witness, route) for the scene's, the lifted and, in
    general position, the axis witnesses of correct diagrams, seeds 0-299."""
    for seed in range(300):
        scene, d = gen_correct_diagram(seed)
        seen = Witness(scene.quad, scene.light, scene.viewpoint, DRAWING_PLANE)
        yield seed, d, seen, "scene"
        for d in (d, gen_general_position_diagram(seed)):
            yield seed, d, lift_collinear_centers(d), "lift"
            if general_position(d.quad1, d.quad2):
                yield seed, d, lift_via_axis(d), "axis"


def test_raw_diagonal_points_are_the_meets_of_the_opposite_sides():
    # Cramer's relation on the four vertices against the Pluecker meets
    for seed, _, w, _ in _seeded_witnesses():
        raw = _spatial_diagonals(
            {lab: x.coords for lab, x in w.quad.labeled().items()},
            _triple_planes(*(x.coords for x in w.quad.vertices)),
        )
        assert tuple(Point3(*x) for x in raw) == _oracle_diagonals(w.quad), seed


# --- scene projection ---------------------------------------------------------

def test_scene_round_trip_reproduces_diagram():
    w = lift_collinear_centers(DIAGRAM)
    scene = scene_from_witness(w)
    assert scene.light == w.O1
    assert scene.viewpoint == w.O2
    assert project_scene(scene) == DIAGRAM


def test_project_scene_without_viewpoint_drops_the_chart_coordinate():
    w = lift_collinear_centers(DIAGRAM)
    scene = SpatialScene(
        quad=w.quad, light=w.O1, shadow_plane=DRAWING_PLANE, viewpoint=None
    )
    d = project_scene(scene)
    # quad1 is still the shadow cast by the light
    assert d.quad1 == SQUARE
    # quad2 is the plain vertical flattening of the barred quadrangle
    for lab in VERTEX_LABELS:
        x0, x1, _, x3 = w.quad.labeled()[lab].coords
        assert d.quad2.vertex(lab) == Point2(x0, x1, x3)
    # the flattened light is the center
    assert d.O == O
    assert decide_depiction(d).correct


def test_project_scene_invariant_gates():
    w = lift_collinear_centers(DIAGRAM)
    with pytest.raises(DegenerateScene, match="^light lies in the plane of the quadrangle$"):
        project_scene(
            SpatialScene(
                quad=w.quad,
                light=Point3(1, 4, -1, 3),  # a vertex of the quadrangle's plane
                shadow_plane=DRAWING_PLANE,
            )
        )
    with pytest.raises(DegenerateScene, match="^light lies in the shadow plane$"):
        project_scene(
            SpatialScene(quad=w.quad, light=Point3(1, 1, 0, 1), shadow_plane=DRAWING_PLANE)
        )
    with pytest.raises(DegenerateScene, match="^viewpoint lies in the shadow plane$"):
        project_scene(
            SpatialScene(
                quad=w.quad,
                light=w.O1,
                shadow_plane=DRAWING_PLANE,
                viewpoint=Point3(5, 5, 0, 1),
            )
        )
    # seen from its own vertex Q, the quadrangle has no image there
    assert w.quad.Qbar == Point3(7, -4, 1, -3)
    with pytest.raises(DegenerateScene) as seen_from_q:
        project_scene(replace(scene_from_witness(w), viewpoint=w.quad.Qbar))
    assert str(seen_from_q.value) == (
        "scene is not depictable from this viewpoint: "
        "cannot project the center Point3(7:-4:1:-3) itself"
    )
    flat = SpatialQuadrangle(
        Pbar=embed_drawing(SQUARE.P),
        Qbar=embed_drawing(SQUARE.Q),
        Rbar=embed_drawing(SQUARE.R),
        Sbar=embed_drawing(SQUARE.S),
        plane=DRAWING_PLANE,
    )
    with pytest.raises(DegenerateScene, match="^spatial quadrangle lies in the shadow plane$"):
        project_scene(
            SpatialScene(quad=flat, light=Point3(0, 0, 1, 1), shadow_plane=DRAWING_PLANE)
        )
    off_plane = SpatialQuadrangle(
        Pbar=Point3(1, 4, -1, 3),
        Qbar=Point3(-7, 4, -1, 3),
        Rbar=Point3(-7, -4, -1, 3),
        Sbar=Point3(1, -4, 1, 3),  # not on the declared plane
        plane=Plane3(0, 0, 3, 1),
    )
    with pytest.raises(DegenerateScene, match="^vertex S is off the declared plane$"):
        project_scene(
            SpatialScene(quad=off_plane, light=Point3(3, 0, 1, 1), shadow_plane=DRAWING_PLANE)
        )


def test_project_scene_onto_other_shadow_planes_frozen():
    # recorded before the chart read the raw projections; the chart drops
    # coordinate 0, 1 and 0 of these planes
    w = lift_collinear_centers(DIAGRAM)
    scene = scene_from_witness(w)
    expected = {
        (Plane3(1, 0, 0, 0), w.O2): (
            "PlanarDiagram(O=Point2(0:1:0), quad1=Quadrangle(P=Point2(3:-1:2), "
            "Q=Point2(3:1:4), R=Point2(3:-1:-4), S=Point2(3:1:-2)), quad2=Quadrangle("
            "P=Point2(6:-1:4), Q=Point2(6:-5:8), R=Point2(6:5:-8), S=Point2(6:1:-4)))"
        ),
        (Plane3(1, 0, 0, 0), Point3(1, 2, 5, 1)): (
            "PlanarDiagram(O=Point2(3:7:1), quad1=Quadrangle(P=Point2(3:-1:2), "
            "Q=Point2(3:1:4), R=Point2(3:-1:-4), S=Point2(3:1:-2)), quad2=Quadrangle("
            "P=Point2(1:-3:1), Q=Point2(9:17:5), R=Point2(5:17:5), S=Point2(3:3:-1)))"
        ),
        (Plane3(0, 2, 3, -1), w.O2): (
            "PlanarDiagram(O=Point2(9:1:3), quad1=Quadrangle(P=Point2(1:1:-1), "
            "Q=Point2(5:1:-1), R=Point2(7:3:5), S=Point2(11:3:5)), quad2=Quadrangle("
            "P=Point2(5:-3:7), Q=Point2(11:3:-7), R=Point2(35:-5:1), S=Point2(19:-5:1)))"
        ),
        (Plane3(0, 2, 3, -1), Point3(1, 2, 5, 1)): (
            "PlanarDiagram(O=Point2(13:2:4), quad1=Quadrangle(P=Point2(1:1:-1), "
            "Q=Point2(5:1:-1), R=Point2(7:3:5), S=Point2(11:3:5)), quad2=Quadrangle("
            "P=Point2(4:-7:13), Q=Point2(32:7:-13), R=Point2(28:-13:-17), S=Point2(8:13:17)))"
        ),
        (Plane3(3, 0, 1, -2), w.O2): (
            "PlanarDiagram(O=Point2(0:7:-1), quad1=Quadrangle(P=Point2(8:-1:7), "
            "Q=Point2(8:5:13), R=Point2(8:-5:-13), S=Point2(8:1:-7)), quad2=Quadrangle("
            "P=Point2(12:-5:11), Q=Point2(12:-17:23), R=Point2(12:17:-23), S=Point2(12:5:-11)))"
        ),
        (Plane3(3, 0, 1, -2), Point3(1, 2, 5, 1)): (
            "PlanarDiagram(O=Point2(8:17:1), quad1=Quadrangle(P=Point2(8:-1:7), "
            "Q=Point2(8:5:13), R=Point2(8:-5:-13), S=Point2(8:1:-7)), quad2=Quadrangle("
            "P=Point2(16:7:11), Q=Point2(40:67:23), R=Point2(16:67:23), S=Point2(8:-7:-11)))"
        ),
    }
    for (plane, viewpoint), diagram in expected.items():
        assert repr(project_scene(replace(scene, shadow_plane=plane, viewpoint=viewpoint))) == (
            diagram
        )
    # without a viewpoint the chart direction flattens two vertices together
    collapsed = {
        Plane3(1, 0, 0, 0): "vertices P and Q coincide at Point2(4:-1:3)",
        Plane3(0, 2, 3, -1): "vertices P and S coincide at Point2(1:-1:3)",
        Plane3(3, 0, 1, -2): "vertices P and Q coincide at Point2(4:-1:3)",
    }
    for plane, text in collapsed.items():
        with pytest.raises(DegenerateScene) as e:
            project_scene(replace(scene, shadow_plane=plane, viewpoint=None))
        assert str(e.value) == f"scene is not depictable from this viewpoint: {text}"


def test_project_scene_normalises_a_chart_that_shares_a_factor():
    # correct seed 5 cast on the seeded plane 2 x1 - x2 - x3 = 0: the
    # canonical image of Pbar from the viewpoint keeps a factor 2 once its
    # x1 is dropped
    rng = SplitMix64(5)
    scene, _ = gen_correct_diagram(5)
    scene = replace(scene, shadow_plane=Plane3(*(rng.below(7) - 3 for _ in range(4))))
    assert scene.shadow_plane == Plane3(0, 2, -1, -1)
    x0, _, x2, x3 = central_project(scene.viewpoint, scene.shadow_plane, scene.quad.Pbar).coords
    assert gcd(x0, x2, x3) == 2
    assert repr(project_scene(scene)) == (
        "PlanarDiagram(O=Point2(703:-5928:5592), quad1=Quadrangle("
        "P=Point2(5541:-1736:-38136), Q=Point2(2193:-5992:28392), R=Point2(435:-1208:696), "
        "S=Point2(16481:-58856:21224)), quad2=Quadrangle(P=Point2(74813:-290633:-26628), "
        "Q=Point2(18170:-247751:61740), R=Point2(1664:4573:-7668), "
        "S=Point2(65278:55447:-311668)))"
    )


# --- side traces ---------------------------------------------------------------

def test_witness_side_traces_frozen_values():
    # for the dilation the homologous sides are parallel, so all six
    # spatial sides pierce the drawing plane at ideal points
    w = lift_collinear_centers(DIAGRAM)
    traces = witness_side_traces(w)
    assert traces["QR"] == Point2(0, 1, 0)
    assert traces["SP"] == Point2(0, 1, 0)
    assert traces["PQ"] == Point2(1, 0, 0)
    assert traces["SR"] == Point2(1, 0, 0)
    assert traces["SQ"] == Point2(1, -1, 0)
    assert traces["RP"] == Point2(1, 1, 0)
    assert set(traces) == set(SIDE_LABELS)


def test_witness_side_traces_name_a_side_in_the_drawing_plane_and_a_repeated_vertex():
    # quad2 keeps P and Q and doubles R and S from O, so the lifted P and Q
    # stay in the drawing plane and so does their side
    square = Quadrangle(A(0, 0), A(4, 0), A(4, 4), A(0, 4))
    image = Quadrangle(A(0, 0), A(4, 0), A(6, 11), A(-2, 11))
    d = PlanarDiagram(O=A(2, -3), quad1=square, quad2=image)
    w = lift_collinear_centers(d)
    assert verify_witness(d, w).passed
    with pytest.raises(GeometryError) as inside:
        witness_side_traces(w)
    assert type(inside.value) is LineInPlane
    assert str(inside.value) == "Line3(0:0:1:0:0:0) lies inside Plane3(0:0:1:0)"
    repeated = replace(w, quad=replace(w.quad, Rbar=w.quad.Qbar))
    with pytest.raises(GeometryError) as same:
        witness_side_traces(repeated)
    assert type(same.value) is CoincidentPoints
    assert str(same.value) == "cannot join Point3(4:0:0:1) with itself"


def _oracle_traces(w):
    """Each side of the witness as a Pluecker line, pierced with x2 = 0."""
    v = w.quad.labeled()
    traces = {}
    for lab in SIDE_LABELS:
        x0, x1, _, x3 = meet_line_plane(line3_through(v[lab[0]], v[lab[1]]), DRAWING_PLANE).coords
        traces[lab] = Point2(x0, x1, x3)
    return traces


def test_side_traces_and_second_centers_match_the_pluecker_route():
    # the dilation's traces are all ideal; the axis route's O2 is where the
    # rays from the lifted P and Q through their quad2 images meet
    dilation = lift_collinear_centers(DIAGRAM)
    assert all(trace.coords[2] == 0 for trace in witness_side_traces(dilation).values())
    for seed, d, w, route in [(None, DIAGRAM, dilation, "lift"), *_seeded_witnesses()]:
        assert witness_side_traces(w) == _oracle_traces(w), seed
        if route == "axis":
            drawn = [embed_drawing(x) for x in d.quad2.vertices]
            rays = [line3_through(b, x) for b, x in zip(w.quad.vertices, drawn)]
            assert w.O2 == meet_lines3(rays[0], rays[1]), seed


# --- the axis route --------------------------------------------------------------

def gp_diagram():
    axis = Line2(1, 1, 1)
    h = perspective_collineation(O, axis, (A(1, 1), A(-1, 2)))
    return PlanarDiagram(O=O, quad1=SQUARE, quad2=apply_quadrangle(h, SQUARE)), axis


def test_lift_via_axis_needs_general_position():
    with pytest.raises(NotGeneralPosition):
        lift_via_axis(DIAGRAM)


def test_lift_via_axis_rejects_incorrect_diagram():
    with pytest.raises(NotCorrectDiagram):
        lift_via_axis(INCORRECT)


def test_lift_via_axis_produces_verified_witness():
    diagram, axis = gp_diagram()
    w = lift_via_axis(diagram)
    report = verify_witness(diagram, w)
    assert report.passed, [c for c in report.clauses if not c.ok]
    assert collinear3(w.O1, w.O2, embed_drawing(O))
    assert w.quad.plane != DRAWING_PLANE
    # the vertical plane over the axis (1 : 1 : 1) meets the drawing plane exactly there
    assert w.quad.plane == Plane3(1, 1, 0, 1)
    meets = side_axes(diagram.quad1, diagram.quad2).meets.values()
    assert len(set(meets)) > 1 and all(axis.contains(m) for m in meets)
    for embedded in map(embed_drawing, meets):
        assert w.quad.plane.contains(embedded)


def test_lift_via_axis_meets_the_sides_once(monkeypatch):
    diagram, _ = gp_diagram()
    calls = []

    def counting_meet2(l, m):
        calls.append((l, m))
        return meet2(l, m)

    monkeypatch.setattr(quadshadow.perspectivity, "meet2", counting_meet2)
    lift_via_axis(diagram)
    assert len(calls) == 6


def test_lift_via_axis_refuses_exactly_outside_general_position():
    diagrams = [gen_correct_diagram(seed)[1] for seed in range(600)] + [DIAGRAM]
    refused = 0
    for d in diagrams:
        if general_position(d.quad1, d.quad2):
            assert verify_witness(d, lift_via_axis(d)).passed
        else:
            refused += 1
            with pytest.raises(NotGeneralPosition):
                lift_via_axis(d)
    assert refused == 8


def test_lift_via_axis_refuses_a_center_on_a_side():
    # a dilation about O, which lies on side PQ, so PQ is its own image
    quad1 = Quadrangle(A(-1, -1), A(1, 1), A(2, -1), A(-1, 3))
    quad2 = Quadrangle(A(-2, -2), A(2, 2), A(4, -2), A(-2, 6))
    d = PlanarDiagram(O=A(0, 0), quad1=quad1, quad2=quad2)
    assert decide_depiction(d).correct
    with pytest.raises(HomologousSidesEqual):
        side_axes(d.quad1, d.quad2)
    with pytest.raises(NotGeneralPosition) as refused:
        lift_via_axis(d)
    assert str(refused.value) == "need six distinct homologous side pairs with six distinct meets"


def test_side_axes_that_fail_are_not_kept():
    # O on side PQ, so PQ is its own image; then a diagram not even vertex-perspective
    centered = PlanarDiagram(
        O=A(0, 0),
        quad1=Quadrangle(A(-1, -1), A(1, 1), A(2, -1), A(-1, 3)),
        quad2=Quadrangle(A(-2, -2), A(2, 2), A(4, -2), A(-2, 6)),
    )
    for d, error in ((centered, HomologousSidesEqual), (OFF_RAY, NotPerspective)):
        with pytest.raises(error) as first:
            side_axes(d.quad1, d.quad2)
        for _ in range(2):
            with pytest.raises(error) as again:
                side_axes(d.quad1, d.quad2)
            assert str(again.value) == str(first.value)


def test_axis_route_traces_lie_on_the_axis():
    diagram, axis = gp_diagram()
    w = lift_via_axis(diagram)
    traces = witness_side_traces(w)
    for lab in SIDE_LABELS:
        assert axis.contains(traces[lab])


def test_collinear_centers_witness_traces_also_lie_on_the_axis():
    # any valid witness pins its side piercings to the common axis
    diagram, axis = gp_diagram()
    w = lift_collinear_centers(diagram)
    traces = witness_side_traces(w)
    for lab in SIDE_LABELS:
        assert axis.contains(traces[lab])
