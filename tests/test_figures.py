"""Stacked-bar layout, reconstruction invariants and SVG/CSV emission."""

import re

import numpy as np
import pytest

from _exact_oracle import bar_totals, entries, indices_from_mask, reconstruction_gap, scatter
from nshapley.analysis import DependenceSeries
from nshapley.core import InteractionIndex, reduce_order, shapley_gam
from nshapley.figures import (
    dependence_csv,
    dependence_svg,
    emit_dependence,
    bar_stacks,
    emit_stacked_bars,
    stacked_bars_svg,
)
from nshapley.lattice import SubsetTable, mask_from_indices, subset_key
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


def shares_of(index, feat):
    return bar_stacks(index)[feat][2].tolist()


def test_worked_example_order_two_splits():
    # one pairwise interaction of 0.1 between the 2nd and 3rd features
    index = index_with(4, 2, MAINS, {(1, 2): 0.1})
    stacks = bar_stacks(index)
    orders_f1, masks_f1, shares_f1 = stacks[1]
    # each member feature gains a +0.05 order-2 share
    assert shares_f1.tolist() == [0.0, pytest.approx(0.05)]
    assert orders_f1.tolist() == [1, 2]
    assert masks_f1.tolist() == [0b0010, 0b0110]
    assert shares_of(index, 2) == [0.2, pytest.approx(0.05)]
    assert stacks[0][1].tolist() == [0b0001]  # a zero anchor alone
    assert reconstruction_gap(index) <= 1e-12


def test_worked_example_adding_a_negative_pair():
    index = index_with(4, 2, MAINS, {(1, 2): 0.1, (2, 3): -0.1})
    assert shares_of(index, 3) == [-0.1, pytest.approx(-0.05)]
    assert shares_of(index, 2) == [0.2, pytest.approx(0.05), pytest.approx(-0.05)]
    assert reconstruction_gap(index) <= 1e-12


def test_worked_example_triple_interaction():
    index = index_with(
        4, 3, MAINS, {(1, 2): 0.1, (2, 3): -0.1, (1, 2, 3): 0.1}
    )
    stacks = bar_stacks(index)
    third = 0.1 / 3
    for feat in (1, 2, 3):
        orders, _, shares = stacks[feat]
        assert shares[orders == 3].tolist() == [pytest.approx(third)]
    assert reconstruction_gap(index) <= 1e-12


def test_worked_example_full_interaction():
    index = index_with(
        4,
        4,
        MAINS,
        {(1, 2): 0.1, (2, 3): -0.1, (1, 2, 3): 0.1, (0, 1, 2, 3): -0.1},
    )
    quarter = -0.1 / 4
    for orders, _, shares in bar_stacks(index):
        assert shares[orders == 4].tolist() == [pytest.approx(quarter)]
    assert reconstruction_gap(index) <= 1e-12
    # every share lands on the attributions of exactly its members
    assert bar_totals(index).sum() == pytest.approx(sum(MAINS) + 0.1 - 0.1 + 0.1 - 0.1)


def test_segment_ordering_within_a_feature():
    index = index_with(
        3, 3, (1.0, 0.0, 0.0), {(0, 1): 0.5, (0, 2): 0.25, (0, 1, 2): 0.125}
    )
    orders, masks, _ = bar_stacks(index)[0]
    assert list(zip(orders.tolist(), masks.tolist())) == [
        (1, 0b001),
        (2, 0b011),
        (2, 0b101),
        (3, 0b111),
    ]


def test_bar_stacks_match_a_per_coalition_split():
    # the reference walks the coalitions in (order, mask) order and hands
    # value / k to each member, skipping zero interactions but no anchor
    rng = np.random.default_rng(7)
    for dim in range(1, 7):
        for order in range(1, dim + 1):
            values = np.round(rng.normal(size=1 << dim), 1)
            values[rng.uniform(size=values.size) < 0.3] = 0.0
            values[rng.uniform(size=values.size) < 0.1] = -0.0
            keep = np.array([1 <= bin(m).count("1") <= order for m in range(1 << dim)])
            index = InteractionIndex(dim, order, 0.0, np.where(keep, values, 0.0))
            expected = [[] for _ in range(dim)]
            for mask in sorted(entries(index), key=lambda m: (bin(m).count("1"), m)):
                value = float(index.values[mask])
                members = indices_from_mask(mask)
                k = len(members)
                if k > 1 and value == 0.0:
                    continue
                for feat in members:
                    expected[feat].append((k, mask, repr(value / k)))
            for (orders, masks, shares), ref in zip(bar_stacks(index), expected):
                # shares compared by repr, so a -0.0 anchor stays -0.0
                got = zip(orders.tolist(), masks.tolist(), map(repr, shares.tolist()))
                assert list(got) == ref


def test_bar_titles_use_the_results_file_keys():
    index = index_with(
        12, 3, (0.5,) * 12, {(0, 11): 0.25, (3, 10, 11): -0.5, (2, 5): 0.0}
    )
    svg = stacked_bars_svg(index, [f"f{i}" for i in range(12)])
    titles = re.findall(r"<title>\{([0-9,]*)\}: ([^<]*)</title>", svg)
    expected = []
    for orders, masks, shares in bar_stacks(index):
        expected.extend((subset_key(m), repr(v)) for m, v in zip(masks.tolist(), shares.tolist()))
    assert titles == expected
    assert ("0,11", "0.125") in titles and ("3,10,11", repr(-0.5 / 3)) in titles
    assert "{2,5}" not in svg  # a zero interaction draws nothing


def test_grand_total_matches_value_gap_for_real_tables():
    rng = np.random.default_rng(5)
    values = rng.uniform(-1, 1, size=32)
    table = ValueTable(SubsetTable(5, values), np.zeros(5))
    gam = shapley_gam(table)
    assert bar_totals(gam).sum() == pytest.approx(float(values[-1] - values[0]), abs=1e-9)
    assert reconstruction_gap(gam) <= 1e-9


def test_feature_totals_reconstruct_order_one_for_random_indices():
    rng = np.random.default_rng(6)
    values = rng.uniform(-1, 1, size=16)
    table = ValueTable(SubsetTable(4, values), np.zeros(4))
    gam = shapley_gam(table)
    for order in (2, 3, 4):
        from nshapley.core import n_shapley_from_gam

        index = n_shapley_from_gam(gam, order)
        totals = bar_totals(index)
        ones = reduce_order(index, 1)
        for i in range(4):
            assert totals[i] == pytest.approx(ones.value(1 << i), abs=1e-9)


def test_svg_rendering_smoke(tmp_path):
    index = index_with(4, 2, MAINS, {(1, 2): 0.1})
    svg = stacked_bars_svg(index, ("a", "b", "c", "d"))
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= 3
    assert "order" in svg  # legend header
    out = tmp_path / "bars.svg"
    assert emit_stacked_bars(index, out, feature_names=("a", "b", "c", "d")) is None
    text = out.read_text()
    assert text == svg
    assert ">a<" in text and ">d<" in text
    # deterministic bytes
    emit_stacked_bars(index, tmp_path / "bars2.svg", feature_names=("a", "b", "c", "d"))
    assert (tmp_path / "bars2.svg").read_bytes() == out.read_bytes()


def test_all_zero_figure_still_renders():
    index = index_with(2, 1, (0.0, 0.0), {})
    svg = stacked_bars_svg(index, ("a", "b"))
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
