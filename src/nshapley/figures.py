"""Figure data and static SVG rendering for explanation output.

The stacked-bar layout splits every interaction evenly onto its member
features: a coalition S of size k contributes a signed share of
Phi_S / k, tagged with order k, to each of its k features. Per-feature
share sums therefore reconstruct the order-1 attributions, and the
grand total across features equals v(full) - v(empty). ``bar_stacks``
gives each feature's shares as arrays cut from the index, and each
bar segment's ``<title>`` names its coalition by the key the results
file uses (``serialize.subset_keys``).

A bar chart holds one ``<rect>`` per nonzero (feature, coalition)
pair, up to sum_{k<=n} k * C(d, k) at order n: at d=16 and order 16
that is 524,288 rects, an SVG of about 90 MB, and ``order: all``
writes 16 files, 771 MB for one point of the d=16 benchmark workload.

SVG output is static and self-contained, one file per figure, with one
color per interaction order and a legend. Every figure file, SVG or CSV,
goes through ``serialize.results_file``: it is written whole or not at
all.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels
from .analysis import DependenceSeries
from .core import InteractionIndex
from .serialize import results_file, subset_keys

__all__ = [
    "bar_stacks",
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


def bar_stacks(index: InteractionIndex) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per feature, the ``(orders, masks, shares)`` of its bar, sorted by (order, mask).

    A coalition S of k members gives each member the share Phi_S / k.
    Every feature keeps its own order-1 share (even when zero) as the
    bar anchor; interactions that carry exactly zero draw nothing and
    are omitted.
    """
    masks = index.masks()
    orders = _kernels.popcount_table(index.dim)[masks]
    values = index.values[masks]
    keep = np.flatnonzero((orders == 1) | (values != 0.0))
    keep = keep[np.lexsort((masks[keep], orders[keep]))]
    masks, orders = masks[keep], orders[keep]
    shares = values[keep] / orders
    stacks = []
    for feat in range(index.dim):
        member = np.flatnonzero(masks >> feat & 1)
        stacks.append((orders[member], masks[member], shares[member]))
    return stacks


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


def stacked_bars_svg(index: InteractionIndex, feature_names: Sequence[str]) -> str:
    """Self-contained SVG: one stacked signed bar per feature, legend by order."""
    d = index.dim
    stacks = bar_stacks(index)
    key_masks, keys = subset_keys(d, index.order)
    bar_w, gap, left, top = 42.0, 18.0, 64.0, 24.0
    plot_h = 280.0
    legend_w = 110.0
    width = left + d * (bar_w + gap) + legend_w
    height = top + plot_h + 56.0

    pos_extent = 0.0
    neg_extent = 0.0
    for _, _, shares in stacks:
        pos_extent = max(pos_extent, sum(shares[shares > 0].tolist()))
        neg_extent = max(neg_extent, -sum(shares[shares < 0].tolist()))
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
    for feat, (orders, masks, shares) in enumerate(stacks):
        x = left + feat * (bar_w + gap)
        up = zero_y
        down = zero_y
        titles = keys[np.searchsorted(key_masks, masks)].astype(str).tolist()
        for k, key, share in zip(orders.tolist(), titles, shares.tolist()):
            h = abs(share) * scale
            if h == 0.0:
                continue
            if share > 0:
                up -= h
                y = up
            else:
                y = down
                down += h
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(h)}" fill="{_order_color(k)}" '
                f'stroke="#ffffff" stroke-width="0.5">'
                f"<title>{{{key}}}: {share!r}</title></rect>"
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
    for k in range(1, index.order + 1):
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


def emit_stacked_bars(index: InteractionIndex, svg_path, feature_names: Sequence[str]) -> None:
    """Write the stacked-bar SVG of an index, whole or not at all."""
    with results_file(svg_path) as fh:
        fh.write(stacked_bars_svg(index, feature_names))


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
