"""Acceptance suite: one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v`` (the per-test lines are
the per-criterion report) or with ``-s`` to see the printed lines with
timings.
"""

import importlib
import time
from fractions import Fraction

import numpy as np

from _exact_oracle import (
    bar_totals,
    cell_center_grid,
    check_bernoulli_identity,
    check_bernoulli_orthogonality,
    entries,
    fit_additive_marginal_means,
    scatter,
)

import nshapley.exactnum
from nshapley.analysis import interaction_degree, partial_dependence
from nshapley.core import (
    classic_shapley_oracle,
    n_shapley_all_orders,
    n_shapley_explicit,
    n_shapley_from_gam,
    n_shapley_recursive,
    reduce_order,
    shapley_gam,
)
from nshapley.exactnum import coeff_c
from nshapley.figures import bar_stacks
from nshapley.core import InteractionIndex
from nshapley.lattice import SubsetTable, mask_from_indices, popcount
from nshapley.models import (
    CheckerboardModel,
    ComponentMap,
    ConstantComponent,
    LookupComponent,
    PolyFactor,
    ProductComponent,
    SineFactor,
    KnnModel,
)
from nshapley.valuefn import (
    GamInducedValueFunction,
    InterventionalValueFunction,
    ValueTable,
    build_value_table,
)

REFERENCE_BERNOULLI = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
    Fraction(0),
    Fraction(7, 6),
    Fraction(0),
    Fraction(-3617, 510),
    Fraction(0),
    Fraction(43867, 798),
    Fraction(0),
]


def report(number: int, name: str, elapsed: float, detail: str = ""):
    suffix = f"  {detail}" if detail else ""
    print(f"criterion {number:02d} ({name}): PASS in {elapsed * 1e3:.2f} ms{suffix}")


def random_table(rng, dim) -> ValueTable:
    values = rng.uniform(-1.0, 1.0, size=1 << dim)
    return ValueTable(SubsetTable(dim, values), rng.normal(size=dim))


def test_criterion_01_bernoulli_table():
    # fresh module state so the timed run really computes the values
    module = importlib.reload(nshapley.exactnum)
    start = time.perf_counter()
    ok = all(module.bernoulli(n) == REFERENCE_BERNOULLI[n] for n in range(20))
    elapsed = time.perf_counter() - start
    assert ok
    assert elapsed < 1e-3
    report(1, "bernoulli table", elapsed)


def test_criterion_02_bernoulli_identity_suites():
    start = time.perf_counter()
    for n in range(1, 17):
        assert check_bernoulli_identity(n)
    for n in range(13):
        for m in range(13):
            assert check_bernoulli_orthogonality(n, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "identity suites", elapsed)


def test_criterion_03_even_split_coefficients():
    start = time.perf_counter()
    for m in range(17):
        assert coeff_c(0, m) == Fraction(1, m + 1)
    elapsed = time.perf_counter() - start
    report(3, "even-split coefficients", elapsed)


def test_criterion_04_efficiency_hundred_tables():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for trial in range(100):
        dim = 3 + trial % 8  # cycles 3..10
        table = random_table(rng, dim)
        target = float(table.values[-1] - table.values[0])
        scale = max(1.0, abs(float(table.values[-1])))
        for phi in n_shapley_all_orders(shapley_gam(table)):
            assert abs(phi.total() - target) <= 1e-9 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, "efficiency on 100 tables", elapsed)


def test_criterion_05_dual_path_equivalence():
    rng = np.random.default_rng(55)
    start = time.perf_counter()
    for trial in range(50):
        dim = 2 + trial % 7  # cycles 2..8
        table = random_table(rng, dim)
        gam = shapley_gam(table)
        recursive_all = n_shapley_recursive(table, dim)
        explicit_all = n_shapley_explicit(table, dim)
        for order in range(1, dim + 1):
            recursive = recursive_all[order - 1]
            explicit = explicit_all[order - 1]
            combined = gam if order == dim else n_shapley_from_gam(gam, order)
            for mask in recursive.masks().tolist():
                a = recursive.values[mask]
                assert abs(a - explicit.values[mask]) <= 1e-9
                assert abs(a - combined.values[mask]) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, "dual-path equivalence", elapsed)


def test_criterion_06_order_one_matches_brute_force():
    rng = np.random.default_rng(66)
    start = time.perf_counter()
    for dim in range(1, 11):
        table = random_table(rng, dim)
        oracle = classic_shapley_oracle(table)
        phi = n_shapley_from_gam(shapley_gam(table), 1)
        for i in range(dim):
            assert abs(phi.value(1 << i) - oracle[i]) <= 1e-9
    elapsed = time.perf_counter() - start
    report(6, "order-1 vs brute force", elapsed)


def test_criterion_07_declared_decomposition_round_trip():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    for dim in range(1, 11):
        comps = [ConstantComponent(float(rng.normal()))]
        n_terms = min((1 << dim) - 1, 64)
        masks = rng.choice(np.arange(1, 1 << dim), size=n_terms, replace=False)
        for mask in masks:
            feats = tuple(j for j in range(dim) if mask >> j & 1)
            comps.append(
                ProductComponent(
                    feats,
                    tuple(PolyFactor((0.0, 1.0, float(rng.normal()) / 4)) for _ in feats),
                    coefficient=float(rng.normal()),
                )
            )
        cmap = ComponentMap(dim, comps)
        x = rng.normal(size=dim)
        gam = shapley_gam(build_value_table(GamInducedValueFunction(cmap), x))
        expected = cmap.component_table(x)
        assert abs(gam.baseline - expected[0]) <= 1e-12
        for mask, value in entries(gam).items():
            assert abs(value - expected[mask]) <= 1e-12
    elapsed = time.perf_counter() - start
    report(7, "declared decomposition round trip", elapsed)


def test_criterion_08_low_order_models_recovered():
    rng = np.random.default_rng(88)
    start = time.perf_counter()
    for order, dim in ((1, 4), (1, 6), (2, 5), (2, 8), (3, 6), (3, 8)):
        comps = [ConstantComponent(0.25)]
        for _ in range(2 * dim):
            size = int(rng.integers(1, order + 1))
            feats = tuple(sorted(rng.choice(dim, size=size, replace=False)))
            comps.append(
                ProductComponent(
                    feats,
                    tuple(
                        rng.choice([PolyFactor((0.0, 1.0, 0.5)), SineFactor(1.3, 0.2)])
                        for _ in feats
                    ),
                    coefficient=float(rng.normal()),
                )
            )
        model = ComponentMap(dim, comps)
        background = rng.normal(size=(24, dim))
        vf = InterventionalValueFunction(model, background)
        gam = shapley_gam(build_value_table(vf, rng.normal(size=dim)))
        for mask, value in entries(gam).items():
            if popcount(mask) > order:
                assert abs(value) <= 1e-9

    # additive models: per-feature attributions collapse onto one curve
    dim = 4
    comps = [
        ProductComponent((j,), (PolyFactor((0.0, 1.0, 0.5, 0.1)),)) for j in range(dim)
    ]
    model = ComponentMap(dim, comps)
    vf = InterventionalValueFunction(model, rng.normal(size=(16, dim)))
    indices = []
    for repeated_value in (-0.5, 0.0, 1.5):
        for _ in range(4):
            x = rng.normal(size=dim)
            x[0] = repeated_value
            indices.append(n_shapley_from_gam(shapley_gam(build_value_table(vf, x)), 1))
    series = partial_dependence(indices, 0)
    for repeated_value in (-0.5, 0.0, 1.5):
        phis = series.phi[series.x == repeated_value]
        assert phis.max() - phis.min() <= 1e-9
    elapsed = time.perf_counter() - start
    report(8, "low-order recovery and collapse", elapsed)


def test_criterion_09_checkerboard_purity():
    start = time.perf_counter()
    for active_size, granularity in ((2, 2), (3, 2), (4, 2), (2, 4), (3, 4)):
        model = CheckerboardModel(dim=active_size, granularity=granularity)
        background = cell_center_grid(active_size, granularity)
        vf = InterventionalValueFunction(model, background)
        sample = background[:: max(1, len(background) // 8)]
        gams = [shapley_gam(build_value_table(vf, row)) for row in sample]
        rep = interaction_degree(gams)
        assert abs(rep.mean_degree - active_size) <= 1e-9
        assert abs(rep.pooled_degree - active_size) <= 1e-9
    elapsed = time.perf_counter() - start
    report(9, "checkerboard purity", elapsed)


def test_criterion_10_worked_visualization_examples():
    start = time.perf_counter()
    dim = 4
    mains = {0: 0.0, 1: 0.0, 2: 0.2, 3: -0.1}

    def build(order, interactions):
        values = {}
        for mask in range(1, 1 << dim):
            if popcount(mask) <= order:
                values[mask] = 0.0
        for i, v in mains.items():
            values[1 << i] = v
        for feats, v in interactions.items():
            values[mask_from_indices(feats)] = v
        return InteractionIndex(
            dim=dim, order=order, baseline=0.0, values=scatter(dim, values)
        )

    pair_a = {(1, 2): 0.1}
    pair_b = {(1, 2): 0.1, (2, 3): -0.1}
    triple = {**pair_b, (1, 2, 3): 0.1}
    quad = {**triple, (0, 1, 2, 3): -0.1}
    examples = [
        (1, {}),
        (2, pair_a),
        (2, pair_b),
        (3, triple),
        (4, quad),
    ]
    for order, interactions in examples:
        index = build(order, interactions)
        stacks = bar_stacks(index)
        # exact layout: one main per feature plus the even splits
        for feat in range(dim):
            orders, _, shares = stacks[feat]
            assert orders[0] == 1 and shares[0] == mains[feat]
            expected_shares = [
                v / len(feats)
                for feats, v in sorted(
                    interactions.items(), key=lambda kv: (len(kv[0]), kv[0])
                )
                if feat in feats
            ]
            assert shares[1:].tolist() == expected_shares
        # per-feature totals equal the order-1 reduction
        ones = reduce_order(index, 1)
        totals = bar_totals(index)
        for i in range(dim):
            assert abs(totals[i] - ones.value(1 << i)) <= 1e-12
    # spot values quoted for the examples
    stacks2 = bar_stacks(build(2, pair_a))
    assert stacks2[1][2][1:].tolist() == [0.1 / 2]
    assert stacks2[2][2][1:].tolist() == [0.1 / 2]
    stacks4 = bar_stacks(build(3, triple))
    assert stacks4[3][2][1:].tolist() == [-0.1 / 2, 0.1 / 3]
    elapsed = time.perf_counter() - start
    report(10, "worked visualization examples", elapsed)


def _lookup_pipeline(dim: int, n_background: int = 64) -> float:
    rng = np.random.default_rng(dim)
    comps = []
    for j in range(dim):
        comps.append(LookupComponent((j,), [0.0], [1.0], rng.normal(size=9)))
    for j in range(0, dim - 1, 2):
        comps.append(
            LookupComponent((j, j + 1), [0.0, 0.0], [1.0, 1.0], rng.normal(size=(5, 5)))
        )
    model = ComponentMap(dim, comps)
    background = rng.uniform(0, 1, size=(n_background, dim))
    x = rng.uniform(0, 1, size=dim)
    vf = InterventionalValueFunction(model, background)
    start = time.perf_counter()
    table = build_value_table(vf, x)
    gam = shapley_gam(table)
    indices = n_shapley_all_orders(gam)
    elapsed = time.perf_counter() - start
    assert len(indices) == dim
    assert abs(gam.prediction() - model.predict(x)) <= 1e-9
    return elapsed


def test_criterion_11_performance_envelope():
    _lookup_pipeline(6)  # warm every code path once
    t10 = _lookup_pipeline(10)
    assert t10 <= 0.5
    t14 = _lookup_pipeline(14)
    assert t14 <= 10.0
    report(11, "performance envelope", t14, detail=f"d=10 {t10:.3f}s, d=14 {t14:.3f}s")


def test_criterion_12_knn_interacts_more_than_additive():
    start = time.perf_counter()
    grid = np.array(
        [[(i >> j) & 1 for j in range(4)] for i in range(16)], dtype=np.float64
    )
    labels = (grid[:, 0] != grid[:, 1]).astype(np.float64) + 0.5 * grid[:, 2]

    knn = KnnModel(grid, labels, 3)
    knn_gams = [
        shapley_gam(build_value_table(InterventionalValueFunction(knn, grid), row))
        for row in grid
    ]
    knn_degree = interaction_degree(knn_gams).mean_degree

    additive = fit_additive_marginal_means(grid, labels)
    add_gams = [
        shapley_gam(build_value_table(InterventionalValueFunction(additive, grid), row))
        for row in grid
    ]
    add_degree = interaction_degree(add_gams).mean_degree

    assert abs(add_degree - 1.0) <= 1e-9
    assert knn_degree > add_degree + 1e-6
    elapsed = time.perf_counter() - start
    report(
        12,
        "knn interaction degree",
        elapsed,
        detail=f"knn={knn_degree:.3f} additive={add_degree:.3f}",
    )
