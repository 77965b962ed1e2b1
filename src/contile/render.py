"""SVG renderings of factorizations: circular and linear node layouts with
one filled ribbon (edge bundle) per factor, and a permuted-matrix heatmap.

Output is plain SVG 1.1 text built deterministically: fixed coordinate
precision, fixed attribute order, no timestamps, so identical inputs give
identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmat import BinaryMatrix, positions, reconstruct, run_under

# fixed qualitative palette, cycled by factor index
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")
RADIUS = 240.0  # circle radius (circular layout)
LENGTH = 720.0  # baseline length (linear layout)
MARGIN = 60.0
NODE_RADIUS = 2.5
LABEL_MIN_SPACING_DEG = 3.0  # circular labels are dropped below this spacing
CELL_PX = 6.0  # heatmap cell size


@dataclass(frozen=True)
class RenderSpec:
    labels: tuple[str, ...] | None = None
    opacity: float = 0.35

    def __post_init__(self):
        if not 0.0 <= self.opacity <= 1.0:  # also refuses nan
            raise ValueError(f"opacity must lie in [0, 1], got {self.opacity}")


def _f(x: float) -> str:
    return f"{x:.2f}"


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">'
    )
    return "\n".join([head, *body, "</svg>", ""])


def _runs(members, pos: dict[int, int], allow_wrap: bool):
    """Positions of a set under `pos = positions(order)` as one contiguous run.

    Returns (start_position, length); a wrapped run starts after the gap.
    Raises when the positions are not a (cyclically) contiguous block, which
    re-checks factorization validity at render time.
    """
    run = run_under(members, pos, allow_wrap)
    if run == (0, 0):
        raise ValueError("empty factor side cannot be drawn")
    if run is None:
        how = "cyclically contiguous" if allow_wrap else "contiguous"
        raise ValueError(f"set {tuple(members)} is not {how} under the stored order")
    return run


def _pieces(members, pos: dict[int, int], allow_wrap: bool) -> list[tuple[int, int]]:
    """The run of `_runs` as (start, length) pieces inside 0..n-1: one piece,
    or two when it wraps (the tail from its start, then the head from 0)."""
    start, k = _runs(members, pos, allow_wrap)
    head = len(pos) - start
    return [(start, k)] if k <= head else [(start, head), (0, k - head)]


# -- circular layout --------------------------------------------------------


def render_circular(f, spec: RenderSpec = RenderSpec()) -> str:
    """Nodes on a circle in factorization order, one ribbon per factor.

    A ribbon is the row-span arc and the column-span arc joined by two cubic
    curves whose control points are pulled radially toward the centre, so
    bundles bulge through the middle of the disc.  Wrapping spans (cyclic
    variants) continue across the 0-angle seam.
    """
    order = f.node_order
    n = len(order)
    if spec.labels is not None and len(spec.labels) != n:
        raise ValueError(f"{len(spec.labels)} labels for {n} nodes")
    size = 2 * (RADIUS + MARGIN)
    cx = cy = size / 2
    step = 360.0 / n
    theta0 = -90.0  # first node at the top, clockwise

    def pt(angle_deg: float, r: float) -> tuple[float, float]:
        a = math.radians(angle_deg)
        return cx + r * math.cos(a), cy + r * math.sin(a)

    def arc_span(start_pos: int, length: int) -> tuple[float, float]:
        pad = 0.4 * step
        return theta0 + start_pos * step - pad, theta0 + (start_pos + length - 1) * step + pad

    body = [f'<g id="ribbons" fill-opacity="{spec.opacity:.2f}">']
    pos, allow_wrap = positions(order), f.cyclic
    for t, (rows, cols) in enumerate(f.factors):
        color = PALETTE[t % len(PALETTE)]
        ra0, ra1 = arc_span(*_runs(rows, pos, allow_wrap))
        ca0, ca1 = arc_span(*_runs(cols, pos, allow_wrap))
        p1, p2 = pt(ra0, RADIUS), pt(ra1, RADIUS)
        p3, p4 = pt(ca0, RADIUS), pt(ca1, RADIUS)
        k = 0.45  # control points at 45% radius: tangents lean toward the centre
        c2, c3 = pt(ra1, RADIUS * k), pt(ca0, RADIUS * k)
        c4, c1 = pt(ca1, RADIUS * k), pt(ra0, RADIUS * k)
        large_r = 1 if (ra1 - ra0) > 180.0 else 0
        large_c = 1 if (ca1 - ca0) > 180.0 else 0
        r = _f(RADIUS)
        d = (
            f"M {_f(p1[0])} {_f(p1[1])} "
            f"A {r} {r} 0 {large_r} 1 {_f(p2[0])} {_f(p2[1])} "
            f"C {_f(c2[0])} {_f(c2[1])} {_f(c3[0])} {_f(c3[1])} {_f(p3[0])} {_f(p3[1])} "
            f"A {r} {r} 0 {large_c} 1 {_f(p4[0])} {_f(p4[1])} "
            f"C {_f(c4[0])} {_f(c4[1])} {_f(c1[0])} {_f(c1[1])} {_f(p1[0])} {_f(p1[1])} Z"
        )
        body.append(f'<path d="{d}" fill="{color}" stroke="{color}" stroke-width="1"/>')
    body.append("</g>")

    body.append('<g id="nodes" fill="#222222">')
    for p in range(n):
        x, y = pt(theta0 + p * step, RADIUS)
        body.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(NODE_RADIUS)}"/>')
    body.append("</g>")

    if spec.labels is not None and step >= LABEL_MIN_SPACING_DEG:
        from html import escape  # imported where labels are drawn: `html` loads a 0.4 MB entity table
        body.append('<g id="labels" font-family="sans-serif" font-size="9" fill="#222222">')
        for p, v in enumerate(order):
            ang = theta0 + p * step
            x, y = pt(ang, RADIUS + 3 * NODE_RADIUS)
            flip = 90.0 < (ang % 360.0 + 360.0) % 360.0 < 270.0
            rot = ang + 180.0 if flip else ang
            anchor = "end" if flip else "start"
            body.append(
                f'<text x="{_f(x)}" y="{_f(y)}" text-anchor="{anchor}" '
                f'transform="rotate({_f(rot)} {_f(x)} {_f(y)})">{escape(spec.labels[v], quote=False)}</text>'
            )
        body.append("</g>")
    return _svg(size, size, body)


# -- linear layout ------------------------------------------------------------


def render_linear(f, spec: RenderSpec = RenderSpec()) -> str:
    """Nodes on a horizontal line, ribbons drawn as arcs above the line.

    Wrapping spans are split at the plot edges into two half-ribbons, each
    finished with a dashed continuation marker.
    """
    order = f.node_order
    n = len(order)
    if spec.labels is not None and len(spec.labels) != n:
        raise ValueError(f"{len(spec.labels)} labels for {n} nodes")
    width = LENGTH + 2 * MARGIN
    height = LENGTH / 2 + 2 * MARGIN
    y0 = height - MARGIN
    step = LENGTH / max(n - 1, 1)
    pos = positions(order)

    def x_at(p: float) -> float:
        return MARGIN + p * step

    def pieces(members) -> list[tuple[float, float]]:
        pad = 0.4
        return [(s - pad, s + k - 1 + pad) for s, k in _pieces(members, pos, f.cyclic)]

    body = [f'<g id="ribbons" fill-opacity="{spec.opacity:.2f}">']
    for t, (rows, cols) in enumerate(f.factors):
        color = PALETTE[t % len(PALETTE)]
        rp, cp = pieces(rows), pieces(cols)
        wrapped = len(rp) > 1 or len(cp) > 1
        for a0, a1 in rp:
            for b0, b1 in cp:
                lo0, lo1 = min(a0, b0), min(a1, b1)
                hi0, hi1 = max(a0, b0), max(a1, b1)
                xa, xb = x_at(lo0), x_at(lo1)
                xc, xd = x_at(hi0), x_at(hi1)
                h = min(LENGTH / 2, 0.45 * max(xd - xa, step)) + 8.0
                d = (
                    f"M {_f(xa)} {_f(y0)} "
                    f"C {_f(xa)} {_f(y0 - h)} {_f(xd)} {_f(y0 - h)} {_f(xd)} {_f(y0)} "
                    f"L {_f(xc)} {_f(y0)} "
                    f"C {_f(xc)} {_f(y0 - 0.8 * h)} {_f(xb)} {_f(y0 - 0.8 * h)} {_f(xb)} {_f(y0)} Z"
                )
                body.append(f'<path d="{d}" fill="{color}" stroke="{color}" stroke-width="1"/>')
        if wrapped:
            for edge_x in (x_at(-0.4), x_at(n - 1 + 0.4)):
                body.append(
                    f'<line x1="{_f(edge_x)}" y1="{_f(y0)}" x2="{_f(edge_x)}" y2="{_f(y0 - 24)}" '
                    f'stroke="{color}" stroke-width="1.5" stroke-dasharray="3 3"/>'
                )
    body.append("</g>")

    body.append(f'<line x1="{_f(x_at(0))}" y1="{_f(y0)}" x2="{_f(x_at(n - 1))}" y2="{_f(y0)}" stroke="#888888" stroke-width="1"/>')
    body.append('<g id="nodes" fill="#222222">')
    for p in range(n):
        body.append(f'<circle cx="{_f(x_at(p))}" cy="{_f(y0)}" r="{_f(NODE_RADIUS)}"/>')
    body.append("</g>")
    if spec.labels is not None:
        from html import escape
        body.append('<g id="labels" font-family="sans-serif" font-size="9" fill="#222222">')
        for p, v in enumerate(order):
            x = x_at(p)
            body.append(
                f'<text x="{_f(x)}" y="{_f(y0 + 12)}" text-anchor="end" '
                f'transform="rotate(-45 {_f(x)} {_f(y0 + 12)})">{escape(spec.labels[v], quote=False)}</text>'
            )
        body.append("</g>")
    return _svg(width, height, body)


# -- heatmap ------------------------------------------------------------------


def render_heatmap(d: BinaryMatrix, f) -> str:
    """The matrix permuted by the factorization's orders, with factor tiles
    outlined and disagreement cells tinted."""
    z = reconstruct(f)
    if z.shape != d.shape:
        raise ValueError(f"factorization shape {z.shape} does not match matrix {d.shape}")
    rorder, corder = f.row_order, f.col_order
    cell = CELL_PX
    width = len(corder) * cell + 2 * MARGIN
    height = len(rorder) * cell + 2 * MARGIN
    x0 = y0 = MARGIN
    dd = d.dense()[np.ix_(rorder, corder)]
    zz = z.dense()[np.ix_(rorder, corder)]
    xs = [f'<rect x="{_f(x0 + j * cell)}" y="' for j in range(len(corder))]
    ys = [f'{_f(y0 + i * cell)}" width="{_f(cell)}" height="{_f(cell)}"/>' for i in range(len(rorder))]

    def cells(mask) -> list[str]:  # a <rect> line per nonzero, row-major: x prefix + y suffix, a string per row
        return [(ys[i] + "\n").join(map(xs.__getitem__, np.flatnonzero(mask[i]).tolist())) + ys[i]
                for i in np.flatnonzero(mask.any(axis=1)).tolist()]

    body = [
        f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(len(corder) * cell)}" '
        f'height="{_f(len(rorder) * cell)}" fill="#ffffff" stroke="#888888" stroke-width="1"/>',
        '<g id="cells" fill="#333333">',
        *cells(dd),
        "</g>",
        '<g id="disagreements" fill="#d62728" fill-opacity="0.55">',
        *cells(dd != zz),
        "</g>",
        '<g id="tiles" fill="none" stroke-width="1.5">',
    ]
    rpos, cpos, allow_wrap = positions(rorder), positions(corder), f.cyclic
    for t, (rows, cols) in enumerate(f.factors):
        color = PALETTE[t % len(PALETTE)]
        rpieces, cpieces = _pieces(rows, rpos, allow_wrap), _pieces(cols, cpos, allow_wrap)
        for r0, rl in rpieces:
            for c0, cl in cpieces:
                body.append(
                    f'<rect x="{_f(x0 + c0 * cell)}" y="{_f(y0 + r0 * cell)}" '
                    f'width="{_f(cl * cell)}" height="{_f(rl * cell)}" stroke="{color}"/>'
                )
    body.append("</g>")
    return _svg(width, height, body)
