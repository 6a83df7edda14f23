"""The attribution engine against independent oracles and hand examples."""

from fractions import Fraction

import numpy as np
import pytest

from _exact_oracle import (
    all_layers_explicit,
    all_layers_from_gam,
    cell_center_grid,
    entries,
    fr_classic_shapley,
    fr_phi_recursive,
    reference_delta_weighted,
    reference_recursive,
    reference_reduce,
    scatter,
)
from nshapley.core import (
    InteractionIndex,
    _delta_weights,
    ShapleyGam,
    classic_shapley_oracle,
    delta_all,
    n_shapley_all_orders,
    n_shapley_explicit,
    n_shapley_from_gam,
    n_shapley_recursive,
    recovery_check,
    reduce_order,
    shapley_gam,
)
from nshapley.lattice import SubsetTable, mask_from_indices, popcount
from nshapley.models import (
    CheckerboardModel,
    ComponentMap,
    ConstantComponent,
    PolyFactor,
    PredictFn,
    ProductComponent,
)
from nshapley.valuefn import (
    GamInducedValueFunction,
    InterventionalValueFunction,
    ObservationalExactMatchValueFunction,
    ValueTable,
    build_value_table,
)


def random_table(rng, dim) -> ValueTable:
    values = rng.uniform(-1.0, 1.0, size=1 << dim)
    return ValueTable(SubsetTable(dim, values), rng.normal(size=dim))


def single_component_table(dim, top_mask, weight=1.0) -> ValueTable:
    """Value table of a decomposition with one component on top_mask."""
    components = np.zeros(1 << dim)
    components[top_mask] = weight
    from nshapley import _kernels

    values = _kernels.zeta_subsets(components, dim)
    return ValueTable(SubsetTable(dim, values), np.zeros(dim))


def max_gap(index_a: InteractionIndex, index_b: InteractionIndex) -> float:
    assert np.array_equal(index_a.masks(), index_b.masks())
    return float(np.max(np.abs(index_a.values - index_b.values)))


# ---------------------------------------------------------------------------
# contribution measure
# ---------------------------------------------------------------------------


def test_delta_singletons_reduce_to_per_feature_attributions():
    rng = np.random.default_rng(1)
    table = random_table(rng, 6)
    oracle = classic_shapley_oracle(table)
    deltas = delta_all(table)
    for i in range(6):
        assert deltas[1 << i] == pytest.approx(oracle[i], abs=1e-9)


def test_delta_on_single_component_decomposition():
    # one component g on T: the measure is g/(1 + |T - S|) inside T, 0 outside
    dim = 4
    top = mask_from_indices([0, 2, 3])
    weight = 2.5
    table = single_component_table(dim, top, weight)
    deltas = delta_all(table)
    for mask in range(1, 1 << dim):
        expected = 0.0
        if mask & top == mask:  # S inside T
            expected = weight / (1 + popcount(top) - popcount(mask))
        assert deltas[mask] == pytest.approx(expected, abs=1e-12)


def test_delta_constant_table_is_zero():
    table = ValueTable(SubsetTable(3, np.full(8, 4.2)), np.zeros(3))
    deltas = delta_all(table)
    for mask in range(1, 8):
        assert deltas[mask] == pytest.approx(0.0, abs=1e-12)


def test_delta_all_matches_scalar_delta():
    # the scalar reference is the exact-rational measure of one coalition
    from _exact_oracle import fr_delta

    rng = np.random.default_rng(2)
    table = random_table(rng, 7)
    values = [Fraction(float(v)) for v in table.values]
    dense = delta_all(table)
    assert dense[0] == 0.0
    for mask in range(1, 1 << 7):
        assert dense[mask] == pytest.approx(float(fr_delta(values, 7, mask)), abs=1e-12)


def test_delta_matches_exact_oracle():
    from _exact_oracle import fr_delta

    rng = np.random.default_rng(3)
    dim = 5
    numerators = rng.integers(-20, 20, size=1 << dim)
    values = [Fraction(int(n), 7) for n in numerators]
    table = ValueTable(
        SubsetTable(dim, np.array([float(v) for v in values])), np.zeros(dim)
    )
    deltas = delta_all(table)
    for mask in (1, 3, 21, 30):
        assert deltas[mask] == pytest.approx(
            float(fr_delta(values, dim, mask)), abs=1e-12
        )


# ---------------------------------------------------------------------------
# order-n indices, all three routes
# ---------------------------------------------------------------------------


def test_order_one_is_the_classic_attribution():
    rng = np.random.default_rng(4)
    for _ in range(5):
        table = random_table(rng, 6)
        oracle = classic_shapley_oracle(table)
        for build in (n_shapley_recursive, n_shapley_explicit):
            [phi] = build(table, 1)
            for i in range(6):
                assert phi.value(1 << i) == pytest.approx(oracle[i], abs=1e-9)
        combined = n_shapley_from_gam(shapley_gam(table), 1)
        for i in range(6):
            assert combined.value(1 << i) == pytest.approx(oracle[i], abs=1e-9)


def test_routes_return_every_order_up_to_the_maximum():
    rng = np.random.default_rng(25)
    table = random_table(rng, 6)
    for build in (n_shapley_recursive, n_shapley_explicit):
        everything = build(table, 6)
        assert [ix.order for ix in everything] == [1, 2, 3, 4, 5, 6]
        for order in range(1, 7):
            shorter = build(table, order)
            assert [ix.order for ix in shorter] == list(range(1, order + 1))
            assert np.array_equal(shorter[-1].values, everything[order - 1].values)
        for bad in (0, 7):
            with pytest.raises(ValueError):
                build(table, bad)


def test_full_order_recursion_equals_inversion():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 4, 6):
        table = random_table(rng, dim)
        gam = shapley_gam(table)
        direct = n_shapley_recursive(table, dim)[dim - 1]
        assert max_gap(direct, gam) <= 1e-9
        assert abs(direct.baseline - gam.baseline) <= 1e-12


def test_constant_model_gives_all_zero_indices():
    table = ValueTable(SubsetTable(4, np.full(16, 3.3)), np.zeros(4))
    for order in range(1, 5):
        for build in (n_shapley_recursive, n_shapley_explicit):
            phi = build(table, order)[order - 1]
            assert np.max(np.abs(phi.values)) <= 1e-12


def test_three_routes_agree_on_random_tables():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 5, 7):
        table = random_table(rng, dim)
        gam = shapley_gam(table)
        recursive_all = n_shapley_recursive(table, dim)
        explicit_all = n_shapley_explicit(table, dim)
        for order in range(1, dim + 1):
            recursive = recursive_all[order - 1]
            explicit = explicit_all[order - 1]
            combined = n_shapley_from_gam(gam, order)
            assert max_gap(recursive, explicit) <= 1e-9
            assert max_gap(recursive, combined) <= 1e-9


def test_routes_match_the_exact_rational_oracle():
    rng = np.random.default_rng(7)
    dim = 4
    numerators = rng.integers(-30, 30, size=1 << dim)
    values = [Fraction(int(n), 9) for n in numerators]
    table = ValueTable(
        SubsetTable(dim, np.array([float(v) for v in values])), np.zeros(dim)
    )
    gam = shapley_gam(table)
    for order in range(1, dim + 1):
        expected = fr_phi_recursive(values, dim, order)
        for build in (
            lambda t, n: n_shapley_recursive(t, n)[n - 1],
            lambda t, n: n_shapley_explicit(t, n)[n - 1],
            lambda t, n: n_shapley_from_gam(gam, n),
        ):
            phi = build(table, order)
            for mask, val in entries(phi).items():
                assert val == pytest.approx(float(expected[mask]), abs=1e-10)


def test_explicit_top_layer_is_the_contribution_measure():
    rng = np.random.default_rng(8)
    table = random_table(rng, 5)
    deltas = delta_all(table)
    for order in range(1, 6):
        phi = n_shapley_explicit(table, order)[order - 1]
        for mask, val in entries(phi).items():
            if popcount(mask) == order:
                assert val == pytest.approx(
                    deltas[mask], abs=1e-12
                )


def test_pairwise_interaction_splits_in_half_at_order_one():
    # the centered product table [0, 0, 0, ab]
    a, b = 3.0, 4.0
    table = ValueTable(SubsetTable(2, [0.0, 0.0, 0.0, a * b]), np.array([a, b]))
    [phi] = n_shapley_explicit(table, 1)
    assert phi.value(0b01) == pytest.approx(a * b / 2, abs=1e-12)
    assert phi.value(0b10) == pytest.approx(a * b / 2, abs=1e-12)


def test_single_pair_component_halves():
    c = 0.8
    dim = 3
    table = single_component_table(dim, 0b011, c)
    phi1 = n_shapley_from_gam(shapley_gam(table), 1)
    assert phi1.value(0b001) == pytest.approx(c / 2, abs=1e-12)
    assert phi1.value(0b010) == pytest.approx(c / 2, abs=1e-12)
    assert phi1.value(0b100) == pytest.approx(0.0, abs=1e-12)


def test_single_triple_component_thirds():
    c = -1.2
    table = single_component_table(3, 0b111, c)
    phi1 = n_shapley_from_gam(shapley_gam(table), 1)
    for i in range(3):
        assert phi1.value(1 << i) == pytest.approx(c / 3, abs=1e-12)


def test_all_orders_shares_results_with_single_orders():
    rng = np.random.default_rng(9)
    table = random_table(rng, 5)
    gam = shapley_gam(table)
    everything = n_shapley_all_orders(gam)
    assert [ix.order for ix in everything] == [1, 2, 3, 4, 5]
    for index in everything:
        single = n_shapley_from_gam(gam, index.order)
        assert max_gap(index, single) == 0.0


def _signed_zero_tables(rng, dim):
    """A value table and a decomposition of one-decimal values with -0.0 entries."""
    values = np.round(rng.uniform(-1.0, 1.0, size=1 << dim), 1)
    values[rng.random(values.size) < 0.2] = -0.0
    components = np.round(rng.uniform(-1.0, 1.0, size=1 << dim), 1)
    components[rng.random(components.size) < 0.3] = -0.0
    components[0] = 0.0
    table = ValueTable(SubsetTable(dim, values), rng.normal(size=dim))
    gam = ShapleyGam(dim=dim, order=dim, baseline=0.5, values=components)
    return table, gam


@pytest.mark.parametrize("dim", range(1, 11))
def test_one_layer_routes_match_the_all_layers_bytes(dim):
    rng = np.random.default_rng(100 + dim)
    for table, gam in (_signed_zero_tables(rng, dim), (None, shapley_gam(random_table(rng, dim)))):
        everything = n_shapley_all_orders(gam)
        assert [ix.order for ix in everything] == list(range(1, dim + 1))
        for index in everything:
            expected = all_layers_from_gam(gam, index.order).tobytes()
            assert index.values.tobytes() == expected
            assert n_shapley_from_gam(gam, index.order).values.tobytes() == expected
            assert reduce_order(gam, index.order).values.tobytes() == (
                reference_reduce(gam, index.order).tobytes()
            )
            assert reduce_order(index, 1).values.tobytes() == reference_reduce(index, 1).tobytes()
        if table is not None:
            levels = all_layers_explicit(table, dim)
            for index, expected in zip(n_shapley_explicit(table, dim), levels, strict=True):
                assert index.values.tobytes() == expected.tobytes()


def test_signed_zeros_reach_the_byte_comparison():
    # the -0.0 entries survive into the outputs, so tobytes() sees their sign bit
    table, gam = _signed_zero_tables(np.random.default_rng(107), 7)
    outputs = [ix.values for ix in n_shapley_all_orders(gam) + n_shapley_explicit(table, 7)]
    assert any(np.signbit(v[v == 0.0]).any() for v in outputs)


def _mixed_magnitude_table(rng, dim):
    """Entries of either sign from 1e-3 to 1e6 in size, with exact zeros and -0.0."""
    values = rng.choice([-1.0, 1.0], size=1 << dim) * 10.0 ** rng.uniform(-3.0, 6.0, 1 << dim)
    draw = rng.random(values.size)
    values[draw < 0.15] = 0.0
    values[(draw >= 0.15) & (draw < 0.3)] = -0.0
    return ValueTable(SubsetTable(dim, values), rng.normal(size=dim))


@pytest.mark.parametrize("dim", range(1, 11))
def test_cardinality_class_routes_match_the_per_mask_bytes(dim):
    rng = np.random.default_rng(200 + dim)
    for table in (_mixed_magnitude_table(rng, dim), _signed_zero_tables(rng, dim)[0]):
        deltas = reference_delta_weighted(table.values, dim, _delta_weights(dim))
        assert delta_all(table).tobytes() == deltas.tobytes()
        levels = [v.tobytes() for v in reference_recursive(deltas, dim, dim)]
        for max_order in range(1, dim + 1):
            got = [ix.values.tobytes() for ix in n_shapley_recursive(table, max_order)]
            assert got == levels[:max_order]


def test_order_two_at_dim_twenty_holds_one_layer_at_a_time():
    import tracemalloc

    dim = 20
    x = PolyFactor((0.0, 1.0))
    components = [ConstantComponent(0.25)] + [
        ProductComponent(tuple(sorted({i, (i + 1) % dim, (i + 3) % dim})), (x, x, x), i + 1.0)
        for i in range(dim)
    ]
    vf = GamInducedValueFunction(ComponentMap(dim, components))
    gam = shapley_gam(build_value_table(vf, np.linspace(-1.0, 1.0, dim)))
    tracemalloc.start()
    try:
        phi = n_shapley_from_gam(gam, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2**20  # (d + 1) * 2**d floats of superset sums alone take 168 MB
    assert phi.total() == pytest.approx(gam.total(), abs=1e-9 * (1 + abs(gam.total())))


# ---------------------------------------------------------------------------
# efficiency, additivity, locality
# ---------------------------------------------------------------------------


def test_efficiency_on_random_tables():
    rng = np.random.default_rng(10)
    for _ in range(20):
        dim = int(rng.integers(3, 11))
        table = random_table(rng, dim)
        gap_target = float(table.values[-1] - table.values[0])
        scale = max(1.0, abs(float(table.values[-1])))
        gam = shapley_gam(table)
        for order in range(1, dim + 1):
            phi = n_shapley_from_gam(gam, order)
            assert abs(phi.total() - gap_target) <= 1e-9 * scale


def test_additivity_of_the_pipeline():
    rng = np.random.default_rng(11)
    dim = 5
    values_f = rng.uniform(-1, 1, size=1 << dim)
    values_g = rng.uniform(-1, 1, size=1 << dim)
    point = rng.normal(size=dim)
    table_f = ValueTable(SubsetTable(dim, values_f), point)
    table_g = ValueTable(SubsetTable(dim, values_g), point)
    table_fg = ValueTable(SubsetTable(dim, values_f + values_g), point)
    for order in (1, 3, 5):
        phi_f = n_shapley_from_gam(shapley_gam(table_f), order)
        phi_g = n_shapley_from_gam(shapley_gam(table_g), order)
        phi_fg = n_shapley_from_gam(shapley_gam(table_fg), order)
        for mask in phi_fg.masks().tolist():
            assert phi_fg.values[mask] == pytest.approx(
                phi_f.values[mask] + phi_g.values[mask], abs=1e-10
            )


def test_components_are_local_to_their_subset():
    # perturbing a coordinate outside S leaves the component at S alone
    rng = np.random.default_rng(12)
    dim = 4

    class Mixed(PredictFn):
        def __init__(self):
            self.dim = dim

        def predict_batch(self, pts):
            pts = np.asarray(pts, dtype=np.float64)
            return pts[:, 0] * pts[:, 1] + pts[:, 2] ** 2 + 0.5 * pts[:, 3]

    background = rng.normal(size=(12, dim))
    vf = InterventionalValueFunction(Mixed(), background)
    x = rng.normal(size=dim)
    gam = shapley_gam(build_value_table(vf, x))
    for j in range(dim):
        x_prime = x.copy()
        x_prime[j] += rng.normal()
        gam_prime = shapley_gam(build_value_table(vf, x_prime))
        for mask in gam.masks().tolist():
            if not mask & (1 << j):
                assert abs(gam.values[mask] - gam_prime.values[mask]) <= 1e-10


def test_one_dimensional_degenerate_case():
    table = ValueTable(SubsetTable(1, [2.0, 5.0]), np.array([0.0]))
    gam = shapley_gam(table)
    assert gam.baseline == 2.0
    assert gam.value(0b1) == 3.0
    assert gam.prediction() == 5.0
    [phi] = n_shapley_recursive(table, 1)
    assert phi.value(0b1) == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the decomposition itself
# ---------------------------------------------------------------------------


def test_decomposition_sums_to_the_prediction():
    rng = np.random.default_rng(13)
    for dim in (2, 5, 9):
        table = random_table(rng, dim)
        gam = shapley_gam(table)
        assert gam.prediction() == pytest.approx(float(table.values[-1]), abs=1e-9)


def test_observational_closed_forms_on_discrete_data():
    # three binary features; conditional means computed by hand in the test
    rng = np.random.default_rng(14)
    data = np.array(
        [list(map(float, np.binary_repr(i, 3))) for i in range(8)] * 2
    )
    noise = rng.normal(size=len(data)) * 0.0  # deterministic f below

    class F(PredictFn):
        dim = 3

        def predict_batch(self, pts):
            pts = np.asarray(pts, dtype=np.float64)
            return pts[:, 0] * 2 + pts[:, 1] * pts[:, 2] * 3 + 1.0

    model = F()
    preds = model.predict_batch(data) + noise
    vf = ObservationalExactMatchValueFunction(model, data)
    x = data[5]
    gam = shapley_gam(build_value_table(vf, x))

    def cond_mean(mask):
        cols = [j for j in range(3) if mask >> j & 1]
        if not cols:
            return preds.mean()
        sel = np.all(data[:, cols] == x[cols], axis=1)
        return preds[sel].mean()

    overall = preds.mean()
    assert gam.baseline == pytest.approx(overall, abs=1e-12)
    for i in range(3):
        expected = cond_mean(1 << i) - overall
        assert gam.value(1 << i) == pytest.approx(expected, abs=1e-10)
    for i in range(3):
        for j in range(i + 1, 3):
            mask = (1 << i) | (1 << j)
            expected = (
                cond_mean(mask) - cond_mean(1 << i) - cond_mean(1 << j) + overall
            )
            assert gam.value(mask) == pytest.approx(expected, abs=1e-10)


def test_declared_components_round_trip():
    rng = np.random.default_rng(15)
    for dim in (2, 4, 6, 8, 10):
        comps = [ConstantComponent(float(rng.normal()))]
        for _ in range(dim):
            size = int(rng.integers(1, min(3, dim) + 1))
            feats = tuple(sorted(rng.choice(dim, size=size, replace=False)))
            comps.append(
                ProductComponent(
                    feats,
                    tuple(PolyFactor((0.0, 1.0)) for _ in feats),
                    coefficient=float(rng.normal()),
                )
            )
        cmap = ComponentMap(dim, comps)
        vf = GamInducedValueFunction(cmap)
        x = rng.normal(size=dim)
        gam = shapley_gam(build_value_table(vf, x))
        expected = cmap.component_table(x)
        assert abs(gam.baseline - expected[0]) <= 1e-12
        for mask, value in entries(gam).items():
            assert abs(value - expected[mask]) <= 1e-12


# ---------------------------------------------------------------------------
# order reduction
# ---------------------------------------------------------------------------


def test_reduce_order_identity():
    rng = np.random.default_rng(16)
    table = random_table(rng, 4)
    phi = n_shapley_from_gam(shapley_gam(table), 3)
    assert reduce_order(phi, 3) is phi


def test_reduce_full_order_to_classic():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 6):
        table = random_table(rng, dim)
        gam = shapley_gam(table)
        ones = reduce_order(gam, 1)
        oracle = classic_shapley_oracle(table)
        for i in range(dim):
            assert ones.value(1 << i) == pytest.approx(oracle[i], abs=1e-9)


def test_reduce_matches_direct_computation():
    rng = np.random.default_rng(18)
    for dim in (4, 6, 8):
        table = random_table(rng, dim)
        gam = shapley_gam(table)
        for high in range(2, dim + 1):
            phi_high = n_shapley_from_gam(gam, high)
            for low in range(1, high):
                reduced = reduce_order(phi_high, low)
                direct = n_shapley_from_gam(gam, low)
                assert max_gap(reduced, direct) <= 1e-9


def test_reduce_order_guards():
    rng = np.random.default_rng(19)
    phi = n_shapley_from_gam(shapley_gam(random_table(rng, 3)), 2)
    with pytest.raises(ValueError):
        reduce_order(phi, 3)
    with pytest.raises(ValueError):
        reduce_order(phi, 0)


# ---------------------------------------------------------------------------
# classic brute-force oracle
# ---------------------------------------------------------------------------


def test_classic_oracle_on_the_product_table():
    a, b = 2.0, -1.5
    table = ValueTable(SubsetTable(2, [0.0, 0.0, 0.0, a * b]), np.array([a, b]))
    oracle = classic_shapley_oracle(table)
    assert oracle[0] == pytest.approx(a * b / 2, abs=1e-12)
    assert oracle[1] == pytest.approx(a * b / 2, abs=1e-12)


def test_classic_oracle_symmetry_and_efficiency():
    rng = np.random.default_rng(20)
    dim = 4
    # symmetric table: value depends only on the coalition size
    by_size = rng.normal(size=dim + 1)
    values = np.array([by_size[popcount(m)] for m in range(1 << dim)])
    table = ValueTable(SubsetTable(dim, values), np.zeros(dim))
    oracle = classic_shapley_oracle(table)
    assert np.max(np.abs(oracle - oracle[0])) <= 1e-12
    assert oracle.sum() == pytest.approx(values[-1] - values[0], abs=1e-10)


def test_classic_oracle_matches_exact_rational_reference():
    rng = np.random.default_rng(21)
    dim = 5
    numerators = rng.integers(-40, 40, size=1 << dim)
    values = [Fraction(int(n), 8) for n in numerators]
    table = ValueTable(
        SubsetTable(dim, np.array([float(v) for v in values])), np.zeros(dim)
    )
    expected = fr_classic_shapley(values, dim)
    got = classic_shapley_oracle(table)
    for i in range(dim):
        assert got[i] == pytest.approx(float(expected[i]), abs=1e-12)


def test_classic_oracle_dim_guard():
    with pytest.raises(ValueError):
        classic_shapley_oracle(
            ValueTable(SubsetTable(13, np.zeros(1 << 13)), np.zeros(13))
        )


# ---------------------------------------------------------------------------
# recovery reports
# ---------------------------------------------------------------------------


def test_recovery_on_a_true_order_two_model():
    rng = np.random.default_rng(22)
    dim = 5
    comps = [ConstantComponent(0.5)]
    for feats in ((0,), (2,), (0, 1), (3, 4)):
        comps.append(
            ProductComponent(
                feats,
                tuple(PolyFactor((0.0, 1.0, 0.3)) for _ in feats),
                coefficient=float(rng.normal()),
            )
        )
    model = ComponentMap(dim, comps)
    vf = InterventionalValueFunction(model, rng.normal(size=(20, dim)))
    gam = shapley_gam(build_value_table(vf, rng.normal(size=dim)))
    report = recovery_check(gam, n_shapley_from_gam(gam, 2))
    assert report.max_component_above_order <= 1e-9
    assert report.max_attribution_gap <= 1e-9


def test_recovery_flags_the_checkerboard_top_component():
    dim = 3
    model = CheckerboardModel(dim=dim, granularity=2)
    background = cell_center_grid(dim, 2)
    gam = shapley_gam(
        build_value_table(InterventionalValueFunction(model, background), background[0])
    )
    report = recovery_check(gam, n_shapley_from_gam(gam, 2))
    assert report.max_component_above_order == pytest.approx(0.5, abs=1e-9)
    assert report.worst_subset_above_order == (1 << dim) - 1


def test_recovery_check_matches_the_per_mask_loop():
    # components on a coarse grid so that above-order ties occur; the
    # reported subset is the first largest one in ascending mask order
    rng = np.random.default_rng(24)
    dim = 5
    for _ in range(20):
        values = rng.integers(-3, 4, size=1 << dim) / 4.0
        table = ValueTable(SubsetTable(dim, values), np.zeros(dim))
        gam = shapley_gam(table)
        for order in range(1, dim + 1):
            worst, worst_mask = 0.0, 0
            for mask, value in entries(gam).items():
                if popcount(mask) > order and abs(value) > worst:
                    worst, worst_mask = abs(value), mask
            phi = n_shapley_from_gam(gam, order)
            gap = 0.0
            for mask, value in entries(phi).items():
                gap = max(gap, abs(value - gam.values[mask]))
            report = recovery_check(gam, phi)
            assert report.max_component_above_order == worst
            assert report.worst_subset_above_order == worst_mask
            assert report.max_attribution_gap == gap


def test_order_one_attributions_collapse_onto_curves():
    # for an order-1 model, the per-feature attribution is a function of
    # that feature alone: zero spread across points sharing the value
    rng = np.random.default_rng(23)
    dim = 3
    comps = [
        ProductComponent((j,), (PolyFactor((0.0, 1.0, 0.7, 0.1)),)) for j in range(dim)
    ]
    model = ComponentMap(dim, comps)
    background = rng.normal(size=(10, dim))
    vf = InterventionalValueFunction(model, background)
    grid = np.array([0.0, 0.5, 1.0])
    phi_by_value = {v: [] for v in grid}
    for v in grid:
        for _ in range(4):
            x = rng.normal(size=dim)
            x[0] = v
            phi = n_shapley_from_gam(shapley_gam(build_value_table(vf, x)), 1)
            phi_by_value[v].append(phi.value(0b001))
    for v, vals in phi_by_value.items():
        assert max(vals) - min(vals) <= 1e-9


# ---------------------------------------------------------------------------
# the index type itself
# ---------------------------------------------------------------------------


def test_index_key_discipline():
    with pytest.raises(ValueError):
        InteractionIndex(dim=2, order=1, baseline=0.0, values=scatter(2, {0b11: 1.0, 0b01: 0.0}))
    with pytest.raises(ValueError):  # the empty coalition holds no attribution
        InteractionIndex(dim=2, order=1, baseline=0.0, values=scatter(2, {0: 1.0, 0b01: 1.0}))
    with pytest.raises(ValueError):
        InteractionIndex(dim=2, order=1, baseline=0.0, values=np.zeros(3))
    with pytest.raises(ValueError):
        InteractionIndex(dim=2, order=3, baseline=0.0, values=np.zeros(4))
    index = InteractionIndex(
        dim=2, order=1, baseline=0.5, values=scatter(2, {0b01: 1.0, 0b10: 2.0})
    )
    assert index.total() == 3.0
    assert index.masks().tolist() == [0b01, 0b10]
    assert index.values.shape == (4,) and index.values.dtype == np.float64
    with pytest.raises(KeyError):
        index.value(0b11)
    with pytest.raises(KeyError):
        index.value(0)
    with pytest.raises(ValueError):
        index.values[0b01] = 0.0


def test_gam_type_requires_full_order():
    with pytest.raises(ValueError):
        ShapleyGam(dim=2, order=1, baseline=0.0, values=scatter(2, {0b01: 0.0, 0b10: 0.0}))
    gam = ShapleyGam(
        dim=2,
        order=2,
        baseline=1.0,
        values=scatter(2, {0b01: 1.0, 0b10: 2.0, 0b11: 3.0}),
    )
    assert gam.baseline == 1.0
    assert gam.value(0b11) == 3.0
    assert gam.prediction() == 7.0


def test_index_equality_is_identity():
    values = scatter(2, {0b01: 1.0, 0b10: 2.0})
    a = InteractionIndex(dim=2, order=1, baseline=0.5, values=values)
    b = InteractionIndex(dim=2, order=1, baseline=0.5, values=values)
    assert a == a and a != b  # no elementwise array comparison
    assert np.array_equal(a.values, b.values)
    gam = ShapleyGam(dim=1, order=1, baseline=0.0, values=scatter(1, {0b1: 1.0}))
    assert gam == gam and len({a, b, gam}) == 3
