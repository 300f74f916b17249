"""Small self-contained SVG renderer for boundary estimates.

Produces a standalone scatter plot: interior points in blue, exterior in
red, optional reference polylines in grey.  No plotting dependency; the
markup is assembled directly so the CLI stays light.
"""

from __future__ import annotations

from .geometry import Domain

_INNER_COLOR = "#2a6fb0"
_OUTER_COLOR = "#c23f38"
_REF_COLOR = "#999999"
_MARGIN = 34.0
_WIDTH = 720


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def render_boundary_svg(
    domain: Domain,
    inner,
    outer,
    polylines=(),
    title: str = "",
) -> str:
    """Return SVG text for one estimate over its domain."""
    plot_w = _WIDTH - 2.0 * _MARGIN
    plot_h = plot_w * domain.height / domain.width
    height = plot_h + 2.0 * _MARGIN

    def sx(x: float) -> float:
        return _MARGIN + (x - domain.x_min) / domain.width * plot_w

    def sy(y: float) -> float:
        # SVG grows downward
        return _MARGIN + (domain.y_max - y) / domain.height * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {_WIDTH:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{sx(domain.x_min):.2f}" y="{sy(domain.y_max):.2f}" '
        f'width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN * 0.6:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="13">{title}</text>'
        )
    for poly in polylines:
        pts = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in poly)
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{_REF_COLOR}" stroke-width="1"/>'
        )
    for cloud, color in ((inner, _INNER_COLOR), (outer, _OUTER_COLOR)):
        for p in cloud:
            parts.append(
                f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" '
                f'r="1.6" fill="{color}"/>'
            )
    for x, anchor in ((domain.x_min, "start"), (domain.x_max, "end")):
        parts.append(
            f'<text x="{sx(x):.1f}" y="{height - _MARGIN * 0.35:.1f}" '
            f'text-anchor="{anchor}" font-family="sans-serif" font-size="11">'
            f"{_fmt(x)}</text>"
        )
    for y in (domain.y_min, domain.y_max):
        parts.append(
            f'<text x="{_MARGIN * 0.85:.1f}" y="{sy(y) + 4:.1f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{_fmt(y)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
