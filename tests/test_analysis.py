"""Interaction-degree reports and partial dependence series."""

import numpy as np
import pytest

from _exact_oracle import cell_center_grid, entries, scatter
from nshapley import _kernels
from nshapley.analysis import DegreeReport, interaction_degree, partial_dependence
from nshapley.core import ShapleyGam, n_shapley_from_gam, shapley_gam
from nshapley.lattice import SubsetTable
from nshapley.models import (
    CheckerboardModel,
    ComponentMap,
    PolyFactor,
    ProductComponent,
)
from nshapley.valuefn import (
    GamInducedValueFunction,
    InterventionalValueFunction,
    ValueTable,
    build_value_table,
)


def gam_from_components(dim, component_values, baseline=0.0, point=None):
    values = {}
    for mask in range(1, 1 << dim):
        values[mask] = float(component_values.get(mask, 0.0))
    return ShapleyGam(
        dim=dim,
        order=dim,
        baseline=baseline,
        values=scatter(dim, values),
        point=point,
    )


def test_additive_degree_is_exactly_one():
    rng = np.random.default_rng(0)
    dim = 4
    comps = [
        ProductComponent((j,), (PolyFactor((0.0, 1.0, 0.4)),)) for j in range(dim)
    ]
    model = ComponentMap(dim, comps)
    vf = InterventionalValueFunction(model, rng.normal(size=(12, dim)))
    gams = [
        shapley_gam(build_value_table(vf, rng.normal(size=dim) + 1.0))
        for _ in range(6)
    ]
    report = interaction_degree(gams)
    assert report.per_point == pytest.approx(np.ones(6), abs=1e-9)
    assert report.mean_degree == pytest.approx(1.0, abs=1e-9)
    assert report.pooled_degree == pytest.approx(1.0, abs=1e-9)


def test_checkerboard_degree_is_the_active_size():
    for n in (2, 3):
        model = CheckerboardModel(dim=n, granularity=2)
        background = cell_center_grid(n, 2)
        vf = InterventionalValueFunction(model, background)
        gams = [shapley_gam(build_value_table(vf, row)) for row in background[:4]]
        report = interaction_degree(gams)
        assert report.mean_degree == pytest.approx(n, abs=1e-9)
        assert report.order_mass_share[n] == pytest.approx(1.0, abs=1e-9)


def test_constant_model_degree_zero_by_convention():
    gams = [gam_from_components(3, {}, baseline=5.0) for _ in range(3)]
    report = interaction_degree(gams)
    assert list(report.per_point) == [0.0, 0.0, 0.0]
    assert report.mean_degree == 0.0
    assert report.pooled_degree == 0.0
    assert np.all(report.order_mass_share == 0.0)


def test_degree_report_shape_and_quantiles():
    gams = [
        gam_from_components(2, {0b01: 1.0}),
        gam_from_components(2, {0b11: 1.0}),
        gam_from_components(2, {0b01: 1.0, 0b11: 1.0}),
    ]
    report = interaction_degree(gams)
    assert list(report.per_point) == [1.0, 2.0, 1.5]
    assert report.quantiles["min"] == 1.0
    assert report.quantiles["median"] == 1.5
    assert report.quantiles["max"] == 2.0
    assert report.mean_degree == pytest.approx(1.5)
    # pooled: 2 units at order 1, 2 units at order 2
    assert report.pooled_degree == pytest.approx(1.5)
    assert report.order_mass_share[1] == pytest.approx(0.5)
    assert report.order_mass_share[2] == pytest.approx(0.5)
    assert report.order_mass_share.sum() == pytest.approx(1.0)


def test_mass_shares_invariant_under_positive_rescaling():
    rng = np.random.default_rng(1)
    dim = 4
    values = rng.uniform(-1, 1, size=1 << dim)
    point = rng.normal(size=dim)
    table = ValueTable(SubsetTable(dim, values), point)
    scaled = ValueTable(SubsetTable(dim, values * 7.5), point)
    a = interaction_degree([shapley_gam(table)])
    b = interaction_degree([shapley_gam(scaled)])
    assert np.allclose(a.order_mass_share, b.order_mass_share, atol=1e-12)
    assert a.mean_degree == pytest.approx(b.mean_degree, abs=1e-12)


def test_degree_matches_the_per_mask_loop():
    rng = np.random.default_rng(2)
    dim = 6
    gams = [
        shapley_gam(ValueTable(SubsetTable(dim, rng.normal(size=1 << dim)), np.zeros(dim)))
        for _ in range(5)
    ]
    pooled = np.zeros(dim + 1)
    per_point = []
    for gam in gams:
        mass = np.zeros(dim + 1)
        for mask, value in entries(gam).items():
            mass[bin(mask).count("1")] += abs(value)
        pooled += mass
        per_point.append(float((np.arange(dim + 1) * mass).sum() / mass.sum()))
    report = interaction_degree(gams)
    assert report.per_point.tolist() == per_point
    assert report.order_mass_share.tolist() == (pooled / pooled.sum()).tolist()


def _scaled(gam, exponent):
    values = np.ldexp(gam.values, exponent)
    return ShapleyGam(dim=gam.dim, order=gam.order, baseline=0.0, values=values)


def _weighted_mass(gams):
    """The plain sum of |S| * |f_S| over the points' components, overflow and all."""
    with np.errstate(over="ignore"):
        return sum((_kernels.popcount_table(g.dim) * np.abs(g.values)).sum() for g in gams)


@pytest.mark.parametrize("case", ["per-point", "pooled"])
def test_masses_that_overflow_give_the_degree_of_the_scaled_down_masses(case):
    dim = 5
    if case == "per-point":  # one point's sum overflows
        values = np.random.default_rng(4).uniform(0.5, 1.0, 1 << dim)
        small = [gam_from_components(dim, dict(enumerate(values)))]
        huge = [_scaled(gam, 1020) for gam in small]
        assert not np.isfinite(_weighted_mass(huge))
    else:  # each point's sums are finite; only their pool overflows
        small = [gam_from_components(dim, {1: 1.0, 3: 1.0}), gam_from_components(dim, {1: 1.0})]
        huge = [_scaled(gam, 1022) for gam in small]
        assert all(np.isfinite(_weighted_mass([gam])) for gam in huge)
        assert not np.isfinite(_weighted_mass(huge))
    # powers of two scale every sum exactly, so the two reports agree bit for bit
    report = interaction_degree(huge)
    expected = interaction_degree(small)
    assert report.per_point.tobytes() == expected.per_point.tobytes()
    assert report.pooled_degree == expected.pooled_degree
    assert report.order_mass_share.tobytes() == expected.order_mass_share.tobytes()
    assert dict(report.quantiles) == dict(expected.quantiles)
    if case == "pooled":
        assert report.pooled_degree == 4 / 3


@pytest.mark.parametrize("field", ["per_point", "mean_degree", "pooled_degree", "quantiles", "shares"])
def test_a_degree_report_holds_finite_numbers_only(field):
    report = {
        "per_point": [1.0],
        "mean_degree": 1.0,
        "pooled_degree": 1.0,
        "quantiles": {"min": 1.0},
        "order_mass_share": [0.0, 1.0],
    }
    bad = float("nan")
    if field == "quantiles":
        report["quantiles"] = {"min": bad}
    elif field == "shares":
        report["order_mass_share"] = [0.0, bad]
    else:
        report[field] = [bad] if field == "per_point" else bad
    with pytest.raises(ValueError, match="finite"):
        DegreeReport(**report)


def test_degree_input_validation():
    with pytest.raises(ValueError):
        interaction_degree([])
    with pytest.raises(ValueError):
        interaction_degree(
            [gam_from_components(2, {}), gam_from_components(3, {})]
        )


def order_one_model_indices(rng, order, repeats=3):
    """Indices for a grid of points with repeated first-feature values."""
    dim = 3
    comps = [
        ProductComponent((j,), (PolyFactor((0.0, 0.5, 0.25)),)) for j in range(dim)
    ]
    model = ComponentMap(dim, comps)
    vf = InterventionalValueFunction(model, rng.normal(size=(8, dim)))
    indices = []
    for v in (0.0, 1.0):
        for _ in range(repeats):
            x = rng.normal(size=dim)
            x[0] = v
            gam = shapley_gam(build_value_table(vf, x))
            indices.append(n_shapley_from_gam(gam, order))
    return indices


def test_dependence_series_collapses_for_additive_models():
    rng = np.random.default_rng(2)
    indices = order_one_model_indices(rng, order=1)
    series = partial_dependence(indices, 0)
    for v in (0.0, 1.0):
        phis = series.phi[series.x == v]
        assert phis.max() - phis.min() <= 1e-9


def test_dependence_spread_vanishes_at_or_above_model_order():
    # order-2 model: spread at order >= 2 vanishes, order 1 keeps spread
    rng = np.random.default_rng(3)
    dim = 3
    comps = [
        ProductComponent(
            (0, 1), (PolyFactor((0.0, 1.0)), PolyFactor((0.0, 1.0)))
        )
    ]
    vf = GamInducedValueFunction(ComponentMap(dim, comps))
    by_order = {1: [], 2: []}
    for v in (0.5, 2.0):
        for _ in range(3):
            x = rng.normal(size=dim)
            x[0] = v
            gam = shapley_gam(build_value_table(vf, x))
            for order in (1, 2):
                by_order[order].append(n_shapley_from_gam(gam, order))
    series2 = partial_dependence(by_order[2], 0)
    for v in (0.5, 2.0):
        phis = series2.phi[series2.x == v]
        assert phis.max() - phis.min() <= 1e-9
    series1 = partial_dependence(by_order[1], 0)
    spread1 = max(
        series1.phi[series1.x == v].max() - series1.phi[series1.x == v].min()
        for v in (0.5, 2.0)
    )
    assert spread1 > 1e-3  # the halved interaction drags x1 into phi_0


def test_dependence_at_full_order_is_the_component():
    rng = np.random.default_rng(4)
    indices = order_one_model_indices(rng, order=3)
    series = partial_dependence(indices, 0)
    assert series.order == 3
    for v in (0.0, 1.0):
        phis = series.phi[series.x == v]
        assert phis.max() - phis.min() <= 1e-9


def test_dependence_constant_model_is_flat_zero():
    gams = [
        gam_from_components(2, {}, baseline=2.0, point=np.array([float(i), 0.0]))
        for i in range(4)
    ]
    series = partial_dependence(gams, 0)
    assert np.all(series.phi == 0.0)
    assert list(series.x) == [0.0, 1.0, 2.0, 3.0]


def test_dependence_validation():
    gams = [gam_from_components(2, {0b01: 1.0}, point=np.zeros(2))]
    with pytest.raises(ValueError):
        partial_dependence(gams, 5)
    with pytest.raises(ValueError):
        partial_dependence(
            gams + [gam_from_components(3, {}, point=np.zeros(3))], 0
        )
    with pytest.raises(ValueError):
        partial_dependence([gam_from_components(2, {0b01: 1.0})], 0)  # no point
    empty = partial_dependence([], 0)
    assert len(empty) == 0
