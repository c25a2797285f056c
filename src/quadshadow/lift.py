"""Spatial witnesses: lift a correct diagram off the drawing plane.

A *witness* for a diagram (O, quad1, quad2) is a spatial quadrangle in a
plane other than the drawing plane together with two centers O1, O2 such
that projecting the spatial quadrangle from O1 yields quad1, projecting it
from O2 yields quad2, and O1, O2 are collinear with the embedded O.  Such
a witness exists exactly when the diagram is correct, and this module
constructs one in two independent ways:

* ``lift_collinear_centers`` places O1 and O2 on the vertical line through
  the embedded O by displacing O along the x2 direction by two distinct
  nonzero amounts c1, c2 (defaults 1 and -1).  Each spatial vertex is the
  intersection of the two projection rays O1-X1 and O2-X2, which meet
  because O, X1, X2 are collinear in the drawing plane.  The four
  intersection points are coplanar precisely for correct diagrams; for
  merely vertex-perspective diagrams the 4x4 coplanarity determinant is a
  nonzero integer certificate (``planarity_certificate``).

* ``lift_via_axis`` starts from the common Desargues axis
  o = (l0 : l1 : l2) of the two quadrangles: the witness plane is the
  vertical plane (l0 : l1 : 0 : l2) over the embedded axis, O1 is a fixed
  point off both planes, quad1 is projected from O1 onto the witness
  plane, and O2 is recovered as the common point of the rays through the
  lifted vertices and quad2: a diagonal point of the lifted P and Q and
  their images in quad2.  Requires the six homologous side pairs and
  their intersections to be in general position.

``project_scene`` goes the other way: from a spatial quadrangle, a light
and a shadow plane (plus an optional viewpoint) it produces the planar
diagram the scene presents, with quad1 the image of the shadow and quad2
the image of the spatial quadrangle.  ``verify_witness`` re-checks a
claimed witness from scratch and reports per-clause results instead of
raising, so broken witnesses can be described, not just rejected.
"""

from __future__ import annotations

from operator import attrgetter

from .kernel import (
    DRAWING_PLANE,
    CenterOnTarget,
    CoincidentLines,
    CoincidentPoints,
    GeometryError,
    LineInPlane,
    Plane3,
    Point2,
    Point3,
    ProjectingCenter,
    Scalar,
    _fmt,
    _pluecker,
    _Record,
    _span,
    central_project,
    collinear3,
    coplanarity_det,
    embed_drawing,
    normalize,
    plane_through,
)
from .quadrangle import (
    SIDE_LABELS,
    VERTEX_LABELS,
    DiagonalTriangle,
    Quadrangle,
    _check_vertices,
)
from .perspectivity import HomologousSidesEqual, NotPerspective, _common_axis, side_axes
from .checker import PlanarDiagram, decide_depiction

__all__ = [
    "NotCorrectDiagram",
    "DegenerateParameters",
    "NotGeneralPosition",
    "DegenerateScene",
    "SpatialQuadrangle",
    "Witness",
    "SpatialScene",
    "PlanarityCertificate",
    "ClauseCheck",
    "WitnessReport",
    "displaced_centers",
    "planarity_certificate",
    "lift_collinear_centers",
    "lift_via_axis",
    "scene_from_witness",
    "project_scene",
    "verify_witness",
    "witness_side_traces",
]

class NotCorrectDiagram(GeometryError):
    """Witness construction demands a diagram that passes the checker."""


class DegenerateParameters(GeometryError):
    """Displacement parameters c1, c2 must be distinct and nonzero."""


class NotGeneralPosition(GeometryError):
    """The axis route needs six distinct side pairs with distinct meets."""


class DegenerateScene(GeometryError):
    """The scene violates its invariants or cannot be drawn from this viewpoint."""


def _invariant(ok: bool, what: str) -> None:
    """Raise when an internal invariant fails.

    Deliberately not a GeometryError: a broken invariant is a defect of
    this package, not a property of the input.
    """
    if not ok:
        raise RuntimeError(f"invariant broken: {what}")


class SpatialQuadrangle(_Record):
    """Four spatial points with the plane they are claimed to span.

    Construction does not validate: witnesses are claims, and
    ``verify_witness`` is the judge.  The lift constructors only ever
    produce genuinely valid instances.
    """

    Pbar: Point3
    Qbar: Point3
    Rbar: Point3
    Sbar: Point3
    plane: Plane3

    vertices = property(attrgetter("Pbar", "Qbar", "Rbar", "Sbar"))

    def labeled(self) -> dict[str, Point3]:
        return dict(zip(VERTEX_LABELS, self.vertices))


class Witness(_Record):
    """Claimed spatial explanation of a planar diagram."""

    quad: SpatialQuadrangle
    O1: Point3
    O2: Point3
    drawing_plane: Plane3


class SpatialScene(_Record):
    """A quadrangle in space, a light, a shadow plane, an optional viewpoint.

    Without a viewpoint the scene is reported in the shadow plane's own
    chart (the flattening drops the coordinate of the plane's first
    nonzero coefficient, which for the drawing plane is x2).
    """

    quad: SpatialQuadrangle
    light: Point3
    shadow_plane: Plane3
    viewpoint: Point3 | None = None


class PlanarityCertificate(_Record):
    """Attempted two-ray lift of a vertex-perspective diagram.

    ``determinant`` is the 4x4 coplanarity determinant of the four ray
    intersections in canonical form: zero exactly for correct diagrams.
    """

    O1: Point3
    O2: Point3
    points: dict[str, Point3]
    determinant: int


class ClauseCheck(_Record):
    name: str
    ok: bool
    detail: str = ""


class WitnessReport(_Record):
    """Outcome of verify_witness; one entry per clause, never an exception."""

    clauses: tuple[ClauseCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.clauses)


def displaced_centers(O: Point2, c1: Scalar, c2: Scalar) -> tuple[Point3, Point3]:
    """Two points off the drawing plane, collinear with the embedded O.

    Adds c_i times the x2 basis direction to the canonical embedded
    coordinates of O, which works uniformly for affine and ideal O.
    """
    if c1 == c2 or c1 == 0 or c2 == 0:
        raise DegenerateParameters(
            f"displacements must be distinct and nonzero, got {c1} and {c2}"
        )
    e0, e1, e3 = O.coords
    return Point3(e0, e1, c1, e3), Point3(e0, e1, c2, e3)


def _ray_meet(O: Point2, O1: Point3, O2: Point3, X1: Point2, X2: Point2) -> Point3 | None:
    """Common point of the rays O1-X1 and O2-X2, or None when they are skew.

    O1 = k1 O + m1 e2 and O2 = k2 O + m2 e2 in canonical coordinates, where
    e2 = (0 : 0 : 1 : 0) and m_i / k_i is the displacement c_i.  The 2x2
    minors of O, X1, X2 on two rows give a relation a O + b X1 + c X2 = 0,
    which holds on the third row exactly when the three are collinear.  Then

        a m2 O1 + b (k1 m2 - k2 m1) X1  =  a m1 O2 - c (k1 m2 - k2 m1) X2

    (planar points read embedded) lies on both rays; a = 0 when X1 = X2.
    The k_i are never formed: where the embedded O has o_j != 0, the minor
    O1[j] m2 - m1 O2[j] is o_j (k1 m2 - k2 m1), and the point comes o_j times over.
    """
    o, u, v = O.coords, X1.coords, X2.coords
    for i, j, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        a = u[i] * v[j] - u[j] * v[i]
        b = v[i] * o[j] - v[j] * o[i]
        c = o[i] * u[j] - o[j] * u[i]
        if a or b or c:
            break
    else:
        _invariant(False, "center O is a vertex")
    if a * o[r] + b * u[r] + c * v[r]:
        return None
    p, q = O1.coords, O2.coords
    m1, m2 = p[2], q[2]
    j, oj = (0, o[0]) if o[0] else (1, o[1]) if o[1] else (3, o[2])
    s = a * m2 * oj
    t = b * (p[j] * m2 - m1 * q[j])
    return Point3(s * p[0] + t * u[0], s * p[1] + t * u[1], s * m1, s * p[3] + t * u[2])


def planarity_certificate(
    d: PlanarDiagram, c1: Scalar = 1, c2: Scalar = -1
) -> PlanarityCertificate:
    """Intersect homologous projection rays and measure their coplanarity.

    Requires the diagram to be vertex-perspective (the rays O1-X1 and
    O2-X2 are coplanar exactly because O, X1, X2 are collinear).
    """
    verdict = decide_depiction(d)
    if not verdict.applicable:
        raise NotCorrectDiagram("diagram is not vertex-perspective; rays would be skew")
    O1, O2 = displaced_centers(d.O, c1, c2)
    points: dict[str, Point3] = {}
    for lab, x1, x2 in zip(VERTEX_LABELS, d.quad1.vertices, d.quad2.vertices):
        x = _ray_meet(d.O, O1, O2, x1, x2)
        _invariant(x is not None, "perspective rays cannot be skew")
        points[lab] = x
    det = coplanarity_det(*(points[lab] for lab in VERTEX_LABELS))
    return PlanarityCertificate(O1, O2, points, det)


def lift_collinear_centers(
    d: PlanarDiagram, c1: Scalar = 1, c2: Scalar = -1
) -> Witness:
    """Build a witness with both centers on the vertical through O."""
    verdict = decide_depiction(d)
    if not verdict.correct:
        raise NotCorrectDiagram(f"diagram is not correct ({verdict.reason.value})")
    cert = planarity_certificate(d, c1, c2)
    _invariant(cert.determinant == 0, "correct diagram lifted to non-coplanar points")
    plane = plane_through(cert.points["P"], cert.points["Q"], cert.points["R"])
    _invariant(plane != DRAWING_PLANE, "witness plane is the drawing plane")
    quad = SpatialQuadrangle(*(cert.points[lab] for lab in VERTEX_LABELS), plane)
    return Witness(quad, cert.O1, cert.O2, DRAWING_PLANE)


#: Candidate first centers: against the witness plane (l0 : l1 : 0 : l2)
#: they give l2, l0 + l2 and l1 + l2, not all zero for a line, and their
#: x2 = 1 keeps them off the drawing plane.
_CENTER_CANDIDATES = (Point3(0, 0, 1, 1), Point3(1, 0, 1, 1), Point3(0, 1, 1, 1))


def lift_via_axis(d: PlanarDiagram) -> Witness:
    """Build a witness whose plane passes through the common axis."""
    verdict = decide_depiction(d)
    if not verdict.correct:
        raise NotCorrectDiagram(f"diagram is not correct ({verdict.reason.value})")
    # A correct diagram's side axes exist whenever it is in general position.
    try:
        axes = side_axes(d.quad1, d.quad2)
    except (HomologousSidesEqual, NotPerspective):
        axes = None
    if axes is None or len(set(axes.meets.values())) < len(axes.meets):
        raise NotGeneralPosition(
            "need six distinct homologous side pairs with six distinct meets"
        )
    l0, l1, l2 = _common_axis(axes).coords
    plane = Plane3(l0, l1, 0, l2)  # meets x2 = 0 in the embedded axis, and is never x2 = 0
    O1 = next(c for c in _CENTER_CANDIDATES if not plane.contains(c))
    barred = [central_project(O1, plane, embed_drawing(v)) for v in d.quad1.vertices]
    quad = SpatialQuadrangle(*barred, plane)

    drawn = [embed_drawing(v) for v in d.quad2.vertices]
    # The rays from the first two lifted vertices are the sides RP and SQ of
    # (Pbar, Qbar, P2, Q2), so they meet in its diagonal point B.
    corners = [x.coords for x in (barred[0], barred[1], drawn[0], drawn[1])]
    meets = _spatial_diagonals(dict(zip(VERTEX_LABELS, corners)), _triple_planes(*corners))
    _invariant(meets is not None, "lifted rays to quad2 do not meet")
    O2 = Point3(*meets[1])
    _invariant(
        all(collinear3(b, x, O2) for b, x in zip(barred, drawn)),
        "second center is not common to all four rays",
    )
    _invariant(collinear3(O1, O2, embed_drawing(d.O)), "centers not collinear with O")
    return Witness(quad, O1, O2, DRAWING_PLANE)


def scene_from_witness(w: Witness) -> SpatialScene:
    """Read a witness as a scene: O1 is the light, O2 the viewpoint."""
    return SpatialScene(w.quad, w.O1, w.drawing_plane, w.O2)


def project_scene(s: SpatialScene) -> PlanarDiagram:
    """Flatten a scene into the diagram it presents.

    All images land on the shadow plane and are then read in that plane's
    chart: quad1 is the shadow (cast by the light), quad2 is the spatial
    quadrangle as seen from the viewpoint, and O is the seen light.  With
    no viewpoint the chart direction itself does the flattening.  Raises
    DegenerateScene when the scene breaks its invariants or when images
    collapse so that no valid diagram exists.
    """
    quad = s.quad
    for lab, x in quad.labeled().items():
        if not quad.plane.contains(x):
            raise DegenerateScene(f"vertex {lab} is off the declared plane")
    if quad.plane == s.shadow_plane:
        raise DegenerateScene("spatial quadrangle lies in the shadow plane")
    if quad.plane.contains(s.light):
        raise DegenerateScene("light lies in the plane of the quadrangle")
    if s.shadow_plane.contains(s.light):
        raise DegenerateScene("light lies in the shadow plane")
    if s.viewpoint is not None and s.shadow_plane.contains(s.viewpoint):
        raise DegenerateScene("viewpoint lies in the shadow plane")

    a = a0, a1, a2, a3 = s.shadow_plane.coords
    k = next(i for i, c in enumerate(a) if c)
    viewpoint = s.viewpoint or Point3(*(int(i == k) for i in range(4)))
    i, j, m = (n for n in range(4) if n != k)

    def chart(center: Point3, points):
        """Yield images (a.c) x - (a.x) c without coordinate k, zero only at c as a_k != 0."""
        c = center.coords
        ac = a0 * c[0] + a1 * c[1] + a2 * c[2] + a3 * c[3]  # nonzero: the gates above
        for x in (p.coords for p in points):
            ax = a0 * x[0] + a1 * x[1] + a2 * x[2] + a3 * x[3]
            u, v, w = ac * x[i] - ax * c[i], ac * x[j] - ax * c[j], ac * x[m] - ax * c[m]
            if not (u or v or w):
                raise ProjectingCenter(f"cannot project the center {center!r} itself")
            yield Point2(u, v, w)

    try:  # every image is formed before a quadrangle is built: the first failing one is named
        shadow = [*chart(s.light, quad.vertices)]
        *seen_quad, seen_light = chart(viewpoint, (*quad.vertices, s.light))
        return PlanarDiagram(seen_light, Quadrangle(*shadow), Quadrangle(*seen_quad))
    except GeometryError as e:
        raise DegenerateScene(f"scene is not depictable from this viewpoint: {e}") from e


def witness_side_traces(w: Witness) -> dict[str, Point2]:
    """Where the six sides of the witness quadrangle pierce the drawing plane
    x2 = 0, whatever drawing plane the witness declares.

    For a valid witness of a general-position diagram these are the six
    homologous side intersections, labeled compatibly with the planar
    traces.  Side ab pierces x2 = 0 at b2 a - a2 b, which is zero exactly
    when a and b both lie in it: LineInPlane, as for a correct diagram whose
    quadrangles share two vertices.
    """
    v = w.quad.labeled()
    traces = {}
    for lab in SIDE_LABELS:
        a, b = v[lab[0]], v[lab[1]]
        if a == b:
            raise CoincidentPoints(f"cannot join {a!r} with itself")
        (a0, a1, a2, a3), (b0, b1, b2, b3) = a.coords, b.coords
        trace = (b2 * a0 - a2 * b0, b2 * a1 - a2 * b1, b2 * a3 - a2 * b3)
        if not any(trace):
            raise LineInPlane(f"{_line_text(a, b)} lies inside {DRAWING_PLANE!r}")
        traces[lab] = Point2(*trace)
    return traces


def _line_text(a: Point3, b: Point3) -> str:
    """The line through a and b as failure texts name it, by its Pluecker coordinates."""
    return f"Line3({_fmt(normalize(_pluecker(a.coords, b.coords)))})"


def _triple_planes(P, Q, R, S) -> tuple[tuple[int, ...], ...]:
    """Raw planes of PQR, PQS, PRS, QRS: entry k is (-1)^k times the minor without column k."""
    pq, rs = _pluecker(P, Q), _pluecker(R, S)
    return _span(pq, R), _span(pq, S), _span(rs, P), _span(rs, Q)


def _spatial_diagonals(v: dict[str, tuple[int, ...]], planes) -> tuple[list[int], ...] | None:
    """Raw diagonal points A, B, C of four raw vertices with their triple planes, or None
    when they span space.

    The 3x3 minors off a row k where the triple planes are not all zero (their entries k, all
    signed alike) give cP P - cQ Q + cR R - cS S = 0 there, and on row k the 4x4 determinant.
    So for coplanar vertices cQ Q - cR R is on QR and SP, cP P + cR R on RP and SQ, and so on.
    """
    for a, b in SIDE_LABELS:
        if v[a] == v[b]:
            raise CoincidentPoints(f"cannot join {Point3(*v[a])!r} with itself")
    P, Q, R, S = v.values()
    for k in range(4):
        cS, cR, cQ, cP = (x[k] for x in planes)
        if cP or cQ or cR or cS:
            break
    else:
        raise CoincidentLines(f"cannot intersect {_line_text(Point3(*S), Point3(*P))} with itself")
    if P[k] * cP - Q[k] * cQ + R[k] * cR - S[k] * cS:
        return None
    return (
        [cQ * y - cR * z for y, z in zip(Q, R)],
        [cP * x + cR * z for x, z in zip(P, R)],
        [cP * x - cQ * y for x, y in zip(P, Q)],
    )


def _clause(name: str, fn) -> ClauseCheck:
    try:
        detail = fn()
    except GeometryError as e:
        detail = f"{type(e).__name__}: {e}"
    return ClauseCheck(name, not detail, detail)


def verify_witness(d: PlanarDiagram, w: Witness) -> WitnessReport:
    """Re-check a claimed witness from scratch, clause by clause.

    1. the spatial quadrangle is valid (distinct vertices, no collinear
       triple) and lies in its declared plane, which differs from the
       drawing plane x2 = 0; the witness must declare that drawing plane,
       which every projection below targets;
    2. projecting it from O1 reproduces quad1 label by label;
    3. projecting it from O2 reproduces quad2 label by label;
    4. O1, O2 and the embedded O are collinear;
    5. the spatial diagonal points project onto the planar diagonal points
       from both centers.

    Failures are reported, never raised.
    """
    quad = w.quad
    vertices = {lab: x.coords for lab, x in quad.labeled().items()}
    planes = _triple_planes(*vertices.values())
    drawn1, drawn2 = ([x.coords for x in q.vertices] for q in (d.quad1, d.quad2))

    def projects(center: Point3, spatial: dict, planar, what: str = "vertex") -> str:
        """Failure text for the first spatial point whose x2 = 0 image misses its planar one."""
        c0, c1, c2, c3 = center.coords
        if not c2:
            raise CenterOnTarget(f"projection center {center!r} lies on {DRAWING_PLANE!r}")
        for (lab, (x0, x1, x2, x3)), (y0, y1, y2) in zip(spatial.items(), planar):
            r0, r1, r3 = c2 * x0 - x2 * c0, c2 * x1 - x2 * c1, c2 * x3 - x2 * c3
            if not (r0 or r1 or r3):
                raise ProjectingCenter(f"cannot project the center {center!r} itself")
            if r1 * y2 - r3 * y1 or r3 * y0 - r0 * y2 or r0 * y1 - r1 * y0:  # (r0, r1, r3) x y
                return f"{what} {lab} projects to {Point3(r0, r1, 0, r3)!r}"
        return ""

    def clause_quad() -> str:
        _check_vertices(quad.vertices, (not any(t) for t in planes))
        for la, a in quad.labeled().items():
            if not quad.plane.contains(a):
                return f"vertex {la} is off the declared plane"
        if w.drawing_plane != DRAWING_PLANE:
            return f"declared drawing plane {w.drawing_plane!r} is not x2 = 0"
        if quad.plane == DRAWING_PLANE:
            return "declared plane equals the drawing plane"
        return ""

    def clause_centers() -> str:
        if w.O1 == w.O2:
            return "centers coincide"
        ok = collinear3(w.O1, w.O2, embed_drawing(d.O))
        return "" if ok else "centers are not collinear with the embedded O"

    def clause_diagonals() -> str:
        points = _spatial_diagonals(vertices, planes)
        if points is None:
            return "opposite sides SP, QR are skew"
        spatial = dict(zip(DiagonalTriangle._FIELDS, points))
        first = projects(w.O1, spatial, d.quad1._crosses[1], "diagonal point")
        return first or projects(w.O2, spatial, d.quad2._crosses[1], "diagonal point")

    clauses = (
        _clause("spatial quadrangle valid and planar", clause_quad),
        _clause("first projection reproduces quad1", lambda: projects(w.O1, vertices, drawn1)),
        _clause("second projection reproduces quad2", lambda: projects(w.O2, vertices, drawn2)),
        _clause("centers collinear with embedded O", clause_centers),
        _clause("diagonal points correspond", clause_diagonals),
    )
    return WitnessReport(clauses)
