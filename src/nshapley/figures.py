"""Figure data and static SVG rendering for explanation output.

The stacked-bar layout splits every interaction evenly onto its member
features: a coalition S of size k contributes a signed segment of
Phi_S / k, tagged with order k, to each of its k features. Per-feature
segment sums therefore reconstruct the order-1 attributions, and the
grand total across features equals v(full) - v(empty).

SVG output is static and self-contained, one file per figure, with one
color per interaction order and a legend. Every figure file, SVG or CSV,
goes through ``serialize.results_file``: it is written whole or not at
all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import DependenceSeries
from .core import InteractionIndex
from .lattice import indices_from_mask, popcount, subset_key
from .serialize import results_file

__all__ = [
    "BarSegment",
    "StackedBarFigure",
    "stacked_bar_figure",
    "stacked_bars_svg",
    "emit_stacked_bars",
    "dependence_csv",
    "dependence_svg",
    "emit_dependence",
]

# One fill per interaction order, cycled if the order exceeds the palette.
_ORDER_COLORS = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc949",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def _order_color(order: int) -> str:
    return _ORDER_COLORS[(order - 1) % len(_ORDER_COLORS)]


@dataclass(frozen=True)
class BarSegment:
    """One signed bar piece: subset's even share assigned to one feature."""

    feature: int
    order: int
    subset: int
    value: float


@dataclass(frozen=True)
class StackedBarFigure:
    dim: int
    order: int
    baseline: float
    segments: tuple[tuple[BarSegment, ...], ...]  # per feature, sorted by (order, subset)

    def feature_totals(self) -> np.ndarray:
        return np.array([sum(seg.value for seg in per) for per in self.segments])


def stacked_bar_figure(index: InteractionIndex) -> StackedBarFigure:
    """Fold an index into per-feature stacks of order-tagged segments.

    Every feature keeps its own order-1 segment (even when zero) as the
    bar anchor; interaction segments that carry exactly zero draw
    nothing and are omitted.
    """
    per_feature: list[list[BarSegment]] = [[] for _ in range(index.dim)]
    for mask in sorted(index.masks().tolist(), key=lambda m: (popcount(m), m)):
        value = float(index.values[mask])
        members = indices_from_mask(mask)
        k = len(members)
        if k > 1 and value == 0.0:
            continue
        share = value / k
        for feat in members:
            per_feature[feat].append(
                BarSegment(feature=feat, order=k, subset=mask, value=share)
            )
    return StackedBarFigure(
        dim=index.dim,
        order=index.order,
        baseline=index.baseline,
        segments=tuple(tuple(per) for per in per_feature),
    )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """``text`` as XML character data (``xml.sax.saxutils`` would import ``urllib``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_document(width: float, height: float, body: list[str]) -> str:
    """A standalone SVG of the given size: white background, then ``body``'s elements."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def stacked_bars_svg(figure: StackedBarFigure, feature_names: Sequence[str]) -> str:
    """Self-contained SVG: one stacked signed bar per feature, legend by order."""
    d = figure.dim
    bar_w, gap, left, top = 42.0, 18.0, 64.0, 24.0
    plot_h = 280.0
    legend_w = 110.0
    width = left + d * (bar_w + gap) + legend_w
    height = top + plot_h + 56.0

    pos_extent = 0.0
    neg_extent = 0.0
    for per in figure.segments:
        pos_extent = max(pos_extent, sum(s.value for s in per if s.value > 0))
        neg_extent = max(neg_extent, -sum(s.value for s in per if s.value < 0))
    span = pos_extent + neg_extent
    if span <= 0.0:
        pos_extent, span = 1.0, 2.0
    scale = plot_h / span
    zero_y = top + pos_extent * scale

    parts = [
        f'<line x1="{_fmt(left - 10)}" y1="{_fmt(zero_y)}" '
        f'x2="{_fmt(left + d * (bar_w + gap))}" y2="{_fmt(zero_y)}" '
        'stroke="#333333" stroke-width="1"/>',
    ]
    for feat, per in enumerate(figure.segments):
        x = left + feat * (bar_w + gap)
        up = zero_y
        down = zero_y
        for seg in per:
            h = abs(seg.value) * scale
            if h == 0.0:
                continue
            if seg.value > 0:
                up -= h
                y = up
            else:
                y = down
                down += h
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(h)}" fill="{_order_color(seg.order)}" '
                f'stroke="#ffffff" stroke-width="0.5">'
                f"<title>{{{subset_key(seg.subset)}}}: {seg.value!r}</title></rect>"
            )
        parts.append(
            f'<text x="{_fmt(x + bar_w / 2)}" y="{_fmt(top + plot_h + 34)}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle">'
            f"{_escape(feature_names[feat])}</text>"
        )
    legend_x = left + d * (bar_w + gap) + 18.0
    parts.append(
        f'<text x="{_fmt(legend_x)}" y="{_fmt(top + 4)}" font-family="sans-serif" '
        'font-size="12" font-weight="bold">order</text>'
    )
    for k in range(1, figure.order + 1):
        y = top + 14.0 + (k - 1) * 20.0
        parts.append(
            f'<rect x="{_fmt(legend_x)}" y="{_fmt(y)}" width="14" height="14" '
            f'fill="{_order_color(k)}"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 20)}" y="{_fmt(y + 12)}" '
            f'font-family="sans-serif" font-size="12">{k}</text>'
        )
    return _svg_document(width, height, parts)


def emit_stacked_bars(
    index: InteractionIndex, svg_path, feature_names: Sequence[str]
) -> StackedBarFigure:
    """Build the figure data for an index and write its SVG rendering."""
    figure = stacked_bar_figure(index)
    with results_file(svg_path) as fh:
        fh.write(stacked_bars_svg(figure, feature_names))
    return figure


def dependence_csv(series: DependenceSeries) -> str:
    """Two-column CSV (x, phi), floats in round-trip decimal form."""
    lines = ["x,phi"]
    lines.extend(
        f"{xv!r},{pv!r}" for xv, pv in zip(series.x.tolist(), series.phi.tolist())
    )
    return "\n".join(lines) + "\n"


def dependence_svg(series: DependenceSeries) -> str:
    """Scatter of the attribution against the feature value."""
    left, top, plot_w, plot_h = 56.0, 20.0, 420.0, 280.0
    width = left + plot_w + 24.0
    height = top + plot_h + 52.0
    parts = [
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_fmt(left + plot_w / 2)}" y="{_fmt(top + plot_h + 36)}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">'
        f"x{series.feature + 1}</text>",
        f'<text x="14" y="{_fmt(top + plot_h / 2)}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(top + plot_h / 2)})">'
        f"attribution (order {series.order})</text>",
    ]
    if len(series) > 0:
        x_lo, x_hi = float(series.x.min()), float(series.x.max())
        y_lo, y_hi = float(series.phi.min()), float(series.phi.max())
        x_pad = (x_hi - x_lo) * 0.05 or 0.5
        y_pad = (y_hi - y_lo) * 0.05 or 0.5
        x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
        y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
        for xv, pv in zip(series.x, series.phi):
            cx = left + (xv - x_lo) / (x_hi - x_lo) * plot_w
            cy = top + plot_h - (pv - y_lo) / (y_hi - y_lo) * plot_h
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" '
                'fill="#e15759" fill-opacity="0.75"/>'
            )
        for label, x_pos, anchor in (
            (x_lo + x_pad, left, "start"),
            (x_hi - x_pad, left + plot_w, "end"),
        ):
            parts.append(
                f'<text x="{_fmt(x_pos)}" y="{_fmt(top + plot_h + 18)}" '
                f'font-family="sans-serif" font-size="10" text-anchor="{anchor}">'
                f"{label:.4g}</text>"
            )
    return _svg_document(width, height, parts)


def emit_dependence(series: DependenceSeries, csv_path, svg_path) -> None:
    """Write the series as a CSV table and a scatter SVG, each whole or not at all."""
    with results_file(csv_path) as fh:
        fh.write(dependence_csv(series))
    with results_file(svg_path) as fh:
        fh.write(dependence_svg(series))
