"""Stacked-bar layout, reconstruction invariants and SVG/CSV emission."""

import numpy as np
import pytest

from _exact_oracle import reconstruction_gap, scatter
from nshapley.analysis import DependenceSeries
from nshapley.core import InteractionIndex, reduce_order, shapley_gam
from nshapley.figures import (
    dependence_csv,
    dependence_svg,
    emit_dependence,
    emit_stacked_bars,
    stacked_bar_figure,
    stacked_bars_svg,
)
from nshapley.lattice import SubsetTable, mask_from_indices
from nshapley.valuefn import ValueTable


def index_with(dim, order, singles, extras):
    values = {}
    for mask in range(1, 1 << dim):
        if bin(mask).count("1") <= order:
            values[mask] = 0.0
    for i, v in enumerate(singles):
        values[1 << i] = v
    for feats, v in extras.items():
        values[mask_from_indices(feats)] = v
    return InteractionIndex(dim=dim, order=order, baseline=0.0, values=scatter(dim, values))


# the running worked example: mains (0, 0, 0.2, -0.1) on four features
MAINS = (0.0, 0.0, 0.2, -0.1)


def test_worked_example_order_two_splits():
    # one pairwise interaction of 0.1 between the 2nd and 3rd features
    index = index_with(4, 2, MAINS, {(1, 2): 0.1})
    figure = stacked_bar_figure(index)
    segs_f1 = figure.segments[1]
    segs_f2 = figure.segments[2]
    # each member feature gains a +0.05 order-2 segment
    assert [s.value for s in segs_f1] == [0.0, pytest.approx(0.05)]
    assert [s.order for s in segs_f1] == [1, 2]
    assert [s.value for s in segs_f2] == [0.2, pytest.approx(0.05)]
    assert figure.segments[0] == figure.segments[0]  # stable tuples
    assert reconstruction_gap(figure, index) <= 1e-12


def test_worked_example_adding_a_negative_pair():
    index = index_with(4, 2, MAINS, {(1, 2): 0.1, (2, 3): -0.1})
    figure = stacked_bar_figure(index)
    assert [s.value for s in figure.segments[3]] == [-0.1, pytest.approx(-0.05)]
    assert [s.value for s in figure.segments[2]] == [
        0.2,
        pytest.approx(0.05),
        pytest.approx(-0.05),
    ]
    assert reconstruction_gap(figure, index) <= 1e-12


def test_worked_example_triple_interaction():
    index = index_with(
        4, 3, MAINS, {(1, 2): 0.1, (2, 3): -0.1, (1, 2, 3): 0.1}
    )
    figure = stacked_bar_figure(index)
    third = 0.1 / 3
    for feat in (1, 2, 3):
        order3 = [s for s in figure.segments[feat] if s.order == 3]
        assert len(order3) == 1
        assert order3[0].value == pytest.approx(third)
    assert reconstruction_gap(figure, index) <= 1e-12


def test_worked_example_full_interaction():
    index = index_with(
        4,
        4,
        MAINS,
        {(1, 2): 0.1, (2, 3): -0.1, (1, 2, 3): 0.1, (0, 1, 2, 3): -0.1},
    )
    figure = stacked_bar_figure(index)
    quarter = -0.1 / 4
    for feat in range(4):
        order4 = [s for s in figure.segments[feat] if s.order == 4]
        assert [s.value for s in order4] == [pytest.approx(quarter)]
    assert reconstruction_gap(figure, index) <= 1e-12
    # every segment lands on the attributions of exactly its members
    assert figure.feature_totals().sum() == pytest.approx(
        sum(MAINS) + 0.1 - 0.1 + 0.1 - 0.1
    )


def test_segment_ordering_within_a_feature():
    index = index_with(
        3, 3, (1.0, 0.0, 0.0), {(0, 1): 0.5, (0, 2): 0.25, (0, 1, 2): 0.125}
    )
    segs = stacked_bar_figure(index).segments[0]
    assert [(s.order, s.subset) for s in segs] == [
        (1, 0b001),
        (2, 0b011),
        (2, 0b101),
        (3, 0b111),
    ]


def test_grand_total_matches_value_gap_for_real_tables():
    rng = np.random.default_rng(5)
    values = rng.uniform(-1, 1, size=32)
    table = ValueTable(SubsetTable(5, values), np.zeros(5))
    gam = shapley_gam(table)
    figure = stacked_bar_figure(gam)
    assert figure.feature_totals().sum() == pytest.approx(
        float(values[-1] - values[0]), abs=1e-9
    )
    assert reconstruction_gap(figure, gam) <= 1e-9


def test_feature_totals_reconstruct_order_one_for_random_indices():
    rng = np.random.default_rng(6)
    values = rng.uniform(-1, 1, size=16)
    table = ValueTable(SubsetTable(4, values), np.zeros(4))
    gam = shapley_gam(table)
    for order in (2, 3, 4):
        from nshapley.core import n_shapley_from_gam

        index = n_shapley_from_gam(gam, order)
        figure = stacked_bar_figure(index)
        ones = reduce_order(index, 1)
        for i in range(4):
            assert figure.feature_totals()[i] == pytest.approx(
                ones.value(1 << i), abs=1e-9
            )


def test_svg_rendering_smoke(tmp_path):
    index = index_with(4, 2, MAINS, {(1, 2): 0.1})
    svg = stacked_bars_svg(stacked_bar_figure(index), ("a", "b", "c", "d"))
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= 3
    assert "order" in svg  # legend header
    out = tmp_path / "bars.svg"
    figure = emit_stacked_bars(index, out, feature_names=("a", "b", "c", "d"))
    text = out.read_text()
    assert ">a<" in text and ">d<" in text
    assert figure.dim == 4
    # deterministic bytes
    emit_stacked_bars(index, tmp_path / "bars2.svg", feature_names=("a", "b", "c", "d"))
    assert (tmp_path / "bars2.svg").read_bytes() == out.read_bytes()


def test_all_zero_figure_still_renders():
    index = index_with(2, 1, (0.0, 0.0), {})
    svg = stacked_bars_svg(stacked_bar_figure(index), ("a", "b"))
    assert "</svg>" in svg


def test_dependence_csv_and_svg(tmp_path):
    series = DependenceSeries(
        feature=1, order=2, x=np.array([0.5, 1.5]), phi=np.array([0.25, -0.125])
    )
    csv_text = dependence_csv(series)
    assert csv_text == "x,phi\n0.5,0.25\n1.5,-0.125\n"
    svg = dependence_svg(series)
    assert svg.count("<circle") == 2
    emit_dependence(series, tmp_path / "dep.csv", tmp_path / "dep.svg")
    assert (tmp_path / "dep.csv").read_text() == csv_text
    assert "<svg" in (tmp_path / "dep.svg").read_text()


def test_a_figure_that_fails_to_render_leaves_no_file(tmp_path, monkeypatch):
    from nshapley import figures

    def fail(*_):
        raise RuntimeError("render failed")

    series = DependenceSeries(feature=0, order=1, x=np.array([0.5]), phi=np.array([0.25]))
    monkeypatch.setattr(figures, "dependence_svg", fail)
    with pytest.raises(RuntimeError):
        emit_dependence(series, tmp_path / "dep.csv", tmp_path / "dep.svg")
    monkeypatch.setattr(figures, "stacked_bars_svg", fail)
    with pytest.raises(RuntimeError):
        emit_stacked_bars(index_with(2, 1, (0.5, 0.0), {}), tmp_path / "bars.svg", ("a", "b"))
    # the CSV was written before the SVG failed; no partial SVG or temporary file is left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dep.csv"]


def test_empty_dependence_series():
    series = DependenceSeries(feature=0, order=1, x=np.empty(0), phi=np.empty(0))
    assert dependence_csv(series) == "x,phi\n"
    svg = dependence_svg(series)
    assert "<circle" not in svg
    assert "</svg>" in svg
