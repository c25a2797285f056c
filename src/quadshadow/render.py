"""SVG figures of planar diagrams, placed in exact integers.

The padded bounding box is one rectangle over a common denominator, found
in one pass, and each line is clipped to it in one pass, as the interval of
x (of y when vertical) it runs inside, its ends homogeneous integer points.
A coordinate becomes a float only when written, as one correctly rounded
integer quotient times the canvas scale, so it is the float of the exact
rational; each element is written through one %-template.  Every figure
is first rescaled exactly by a power of 2 to span between 1/2 and 2: that
keeps the floats in range, and as a power of 2 commutes with correct
rounding, it changes no written coordinate.  A quad2 vertex on the ray of
its quad1 vertex adds no ray, so a vertex-perspective figure joins four rays.
"""

from __future__ import annotations

from math import isfinite

from .kernel import GeometryError, Line2, _det3, join2
from .quadrangle import VERTEX_LABELS, DiagonalTriangle, diagonal_triangle, sides
from .perspectivity import common_axis
from .checker import PlanarDiagram

__all__ = ["render_svg"]

_CANVAS = 640.0

#: An affine point (x/w, y/w) as integers (x, y, w) with w > 0.
Homogeneous = tuple[int, int, int]
#: Labels of the 15 labeled points (vertices, O, diagonal points), and each label's role.
_LABELS = (*[v + n for n in "12" for v in VERTEX_LABELS], "O",
           *[d + n for n in "12" for d in DiagonalTriangle._FIELDS])
_ROLES = dict(zip(_LABELS, ("vertex",) * 8 + ("center",) + ("diagonal",) * 6))
#: Marker circle and label by role; a shared marker takes its first member's role.
_MARKERS = {
    role: f'<circle class="{role}" cx="%.4f" cy="%.4f" r="{radius}" fill="{color}"/>\n'
    f'<text x="%.4f" y="%.4f" fill="{color}">%s</text>'
    for role, color, radius in (
        ("center", "#000000", 4.5), ("vertex", "#1f77b4", 3.5), ("diagonal", "#2ca02c", 3.0)
    )
}
_LINE = '<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f"/>'

#: A canvas side shorter than this prints as 0.0000: the figure is flat at float precision.
_COLLAPSED = 0.5e-4


def _clamp(v: float, extent: float) -> float:
    return min(max(v, 0.0), extent)


def _padded(lo: Homogeneous, hi: Homogeneous, i: int) -> tuple[int, int, int]:
    """Coordinate i's range [lo, hi] padded by a tenth of its length: (low, high, denominator)."""
    a, p, b, q = lo[i], lo[2], hi[i], hi[2]
    return 11 * a * q - b * p, 11 * b * p - a * q, 10 * p * q


def _rectangle(points: list[Homogeneous]) -> tuple[int, int, int, int, int]:
    """Padded bounding box of points spanning both axes, as (X0, Y0, X1, Y1, D):
    the rectangle [X0/D, X1/D] x [Y0/D, Y1/D], D > 0."""
    left = right = bottom = top = points[0]
    for p in points:  # strict, so the first of equal extremes wins, as with min and max
        x, y, w = p
        if x * left[2] < left[0] * w:
            left = p
        elif x * right[2] > right[0] * w:
            right = p
        if y * bottom[2] < bottom[1] * w:
            bottom = p
        elif y * top[2] > top[1] * w:
            top = p
    x0, x1, dx = _padded(left, right, 0)
    y0, y1, dy = _padded(bottom, top, 1)
    return x0 * dy, y0 * dx, x1 * dy, y1 * dx, dx * dy


def _clip_to_rect(line: Line2, rect: tuple) -> tuple[Homogeneous, Homogeneous] | None:
    """Chord of a line across a rectangle of `_rectangle`, its ends in
    lexicographic order, or None if the line meets it in fewer than two points."""
    a, b, c = line.coords
    x0, y0, x1, y1, d = rect
    cd = c * d
    if not b:  # x = -c/a, a > 0 as the line is canonical; the ideal line fails the test
        return ((-cd, y0 * a, a * d), (-cd, y1 * a, a * d)) if x0 * a <= -cd <= x1 * a else None
    if b < 0:  # so the ends on x = x0 and x = x1 are over b d > 0
        a, b, cd = -a, -b, -cd
    lo, hi = (x0 * b, -(a * x0 + cd), b * d), (x1 * b, -(a * x1 + cd), b * d)
    if a:  # move each end in to where the line crosses y = Y at x = u/(m d), if further in
        m, s, y_lo, y_hi = (a, -1, y1, y0) if a > 0 else (-a, 1, y0, y1)
        u = s * (b * y_lo + cd)
        if u > x0 * m:
            lo = (u, y_lo * m, m * d)
        u = s * (b * y_hi + cd)
        if u < x1 * m:
            hi = (u, y_hi * m, m * d)
    elif not y0 * b <= -cd <= y1 * b:
        return None
    return (lo, hi) if lo[0] * hi[2] < hi[0] * lo[2] else None


def render_svg(d: PlanarDiagram) -> str:
    """Deterministic SVG of the diagram in the affine chart.

    Layered groups: quad1 sides, quad2 sides, rays through O, diagonal
    triangles, the common axis when one exists, then labeled markers.
    Ideal labeled points become labeled boundary arrows; an ideal common
    axis becomes one more arrow.  Coincident labeled points share a
    marker (or arrow) with their labels joined by '='.
    """
    o, vertices1, vertices2 = d.O, d.quad1.vertices, d.quad2.vertices
    triangles = (diagonal_triangle(d.quad1), diagonal_triangle(d.quad2))
    labeled = (*vertices1, *vertices2, o, *triangles[0].points, *triangles[1].points)
    # points and lines are keyed by their canonical coordinates, which hash in C
    affine_groups: dict[tuple[int, int, int], list[str]] = {}
    ideal_groups: dict[tuple[int, int, int], list[str]] = {}
    for label, point in zip(_LABELS, labeled):
        coords = point.coords
        target = ideal_groups if coords[2] == 0 else affine_groups
        target.setdefault(coords, []).append(label)

    # three of each quadrangle's affine vertices, or two and a diagonal point, span both axes
    affine = [(x, y, w) if w > 0 else (-x, -y, -w) for x, y, w in affine_groups]
    left, bottom, right, top, den = rect = _rectangle(affine)
    world_w, world_h, num = right - left, top - bottom, den
    # rescaled exactly by 2**k, the world spans between 1/2 and 2
    k = den.bit_length() - max(world_w, world_h).bit_length()
    up, den = 1 << max(k, 0), den << max(-k, 0)
    world_w, world_h, num, left, top = (v * up for v in (world_w, world_h, num, left, top))
    scale = _CANVAS / (max(world_w, world_h) / den)
    width, height = world_w / den * scale, world_h / den * scale
    flat_x, flat_y = width < _COLLAPSED, height < _COLLAPSED

    def pixel(p: tuple[int, int, int]) -> tuple[float, float]:
        x, y, w = p
        wd = w * den
        return (x * num - left * w) / wd * scale, (top * w - y * num) / wd * scale

    def beside(p: tuple[float, float], offset: int) -> tuple[float, float]:
        """A label's place, offset right and up from its point p.  It may overhang
        the canvas edge by the offset, except on a collapsed side, where no
        offset fits and the label is clamped onto the canvas."""
        x, y = p[0] + offset, p[1] - offset
        return _clamp(x, width) if flat_x else x, _clamp(y, height) if flat_y else y

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.4f} {height:.4f}" '
        f'font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{width:.4f}" height="{height:.4f}" fill="white"/>')

    seen: set[tuple[int, int, int]] = set()  # the two quadrangles draw a shared side once
    # O is no vertex, so a quad2 vertex on the ray of its quad1 vertex adds no ray
    rays = [join2(o, v) for v in vertices1]
    for u, v in zip(vertices1, vertices2):
        if _det3(o.coords, u.coords, v.coords):
            rays.append(join2(o, v))
    # diagonal points never coincide, so each triangle has three sides
    diag_lines = (
        join2(u, v)
        for dt in triangles
        for u, v in ((dt.A, dt.B), (dt.B, dt.C), (dt.C, dt.A))
    )
    layers = (
        ('class="quad1-sides" stroke="#1f77b4" stroke-width="1.5"',
         sides(d.quad1).labeled().values(), seen),
        ('class="quad2-sides" stroke="#d62728" stroke-width="1.5"',
         sides(d.quad2).labeled().values(), seen),
        ('class="rays" stroke="#999999" stroke-width="0.75" stroke-dasharray="6 4"', rays, set()),
        ('class="diagonal-triangles" stroke="#2ca02c" stroke-width="1" stroke-dasharray="3 3"',
         diag_lines, set()),
    )
    for attributes, lines, dedupe in layers:
        parts.append(f"<g {attributes}>")
        for line in lines:
            n = len(dedupe)
            dedupe.add(line.coords)  # a line already drawn leaves the set as it was
            if len(dedupe) != n and (chord := _clip_to_rect(line, rect)) is not None:
                parts.append(_LINE % (pixel(chord[0]) + pixel(chord[1])))
        parts.append("</g>")

    try:
        axis = common_axis(d.quad1, d.quad2)
    except GeometryError:
        axis = None
    if axis is not None and not axis.is_ideal:
        parts.append('<g class="axis" stroke="#000000" stroke-width="2">')
        chord = _clip_to_rect(axis, rect)
        if chord is not None:
            start = pixel(chord[0])
            parts.append(_LINE % (start + pixel(chord[1])))
            parts.append('<text x="%.4f" y="%.4f" stroke="none" fill="#000000">o</text>'
                         % beside(start, 4))
        parts.append("</g>")

    parts.append('<g class="markers">')
    for point, members in affine_groups.items():
        at = pixel(point)
        # the first member's role: vertices, then O, then diagonal points; O is no vertex
        parts.append(_MARKERS[_ROLES[members[0]]] % (*at, *beside(at, 6), "=".join(members)))
    parts.append("</g>")

    arrows: list[tuple[tuple[float, float], str]] = []
    for point, members in ideal_groups.items():
        dx, dy = point[0], -point[1]
        # a component past 2**511 would overflow the squared norm: divide both by 2**k
        unit = 1 << max(max(abs(dx), abs(dy)).bit_length() - 511, 0)
        arrows.append(((dx / unit, dy / unit), "=".join(members)))
    if axis is not None and axis.is_ideal:
        arrows.append(((0.7071, -0.7071), "o"))

    parts.append('<g class="ideal" stroke="#555555" stroke-width="1.5">')
    for (dx, dy), label in arrows:
        norm = (dx * dx + dy * dy) ** 0.5
        ux, uy = dx / norm, dy / norm
        cx, cy = width / 2.0, height / 2.0
        # run to 10 short of each edge the arrow heads for; a component so
        # small that its run is not a finite float sets no bound
        runs = [
            ((extent - 10.0 if u > 0 else 10.0) - c) / u
            for u, c, extent in ((ux, cx, width), (uy, cy, height))
            if u
        ]
        t = min((run for run in runs if isfinite(run)), default=0.0)
        tip = (_clamp(cx + t * ux, width), _clamp(cy + t * uy, height))
        tail = (tip[0] - 26.0 * ux, tip[1] - 26.0 * uy)
        px, py = -uy, ux
        head1 = (tip[0] - 8.0 * ux + 4.0 * px, tip[1] - 8.0 * uy + 4.0 * py)
        head2 = (tip[0] - 8.0 * ux - 4.0 * px, tip[1] - 8.0 * uy - 4.0 * py)
        parts.append('<g class="arrow">')
        parts.extend(_LINE % (start + tip) for start in (tail, head1, head2))
        lx = _clamp(min(max(tail[0] - 10.0 * ux, 14.0), width - 14.0), width)
        ly = _clamp(min(max(tail[1] - 10.0 * uy, 14.0), height - 14.0), height)
        parts.append(
            f'<text x="{lx:.4f}" y="{ly:.4f}" stroke="none" fill="#555555">'
            f"{label}</text>"
        )
        parts.append("</g>")
    parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
