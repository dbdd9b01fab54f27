"""SVG rendering of layered drawings.

One group per instance layer, in order, with distinct stroke colors;
vertices as labeled circles.  The y axis is flipped so larger y draws
upward.  Output is a deterministic function of the drawing and instance.
"""

from __future__ import annotations

from .errors import InvalidInstanceError
from .graphs import LayeredInstance, SimultaneousEmbedding

LAYER_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_svg(emb: SimultaneousEmbedding, inst: LayeredInstance) -> str:
    xs, ys = emb.xs, emb.ys
    min_x = min(xs, default=0)
    max_x = max(xs, default=0)
    min_y = min(ys, default=0)
    max_y = max(ys, default=0)
    span = max(max_x - min_x, max_y - min_y, 1)
    unit = max(span / 40.0, 1.0)

    def sx(x: int) -> float:
        return float(x - min_x + unit)

    def sy(y: int) -> float:
        return float(max_y - y + unit)

    view_w = max_x - min_x + 2 * unit
    view_h = max_y - min_y + 2 * unit
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {view_w:.6g} {view_h:.6g}">',
    ]
    for li, layer in enumerate(inst.layers):
        color = LAYER_COLORS[li % len(LAYER_COLORS)]
        phi = emb.assignments[li] if emb.assignments is not None else None
        out.append(
            f'  <g id="layer-{li}" stroke="{color}" stroke-width="{unit / 8:.6g}" fill="none">'
        )
        slot = range(len(xs)) if phi is None else phi
        for u, v in layer.edges:
            ends = [slot[w] if 0 <= w < len(slot) else -1 for w in (u, v)]
            if min(ends) < 0 or max(ends) >= len(xs):
                raise InvalidInstanceError(f"layer {li} edge ({u},{v}) maps to no point")
            a, b = ends
            out.append(
                f'    <line x1="{sx(xs[a]):.6g}" y1="{sy(ys[a]):.6g}" '
                f'x2="{sx(xs[b]):.6g}" y2="{sy(ys[b]):.6g}"/>'
            )
        out.append("  </g>")
    out.append(f'  <g id="vertices" font-size="{unit / 2:.6g}">')
    for i, (x, y) in enumerate(zip(xs, ys)):
        out.append(
            f'    <circle cx="{sx(x):.6g}" cy="{sy(y):.6g}" r="{unit / 6:.6g}" fill="#333"/>'
        )
        out.append(
            f'    <text x="{sx(x) + unit / 5:.6g}" y="{sy(y) - unit / 5:.6g}">v{i + 1}</text>'
        )
    out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
