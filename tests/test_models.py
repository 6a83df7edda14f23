"""Built-in models and the component grammar."""

import numpy as np
import pytest

from _exact_oracle import cell_center_grid, entries, fit_additive_marginal_means
from nshapley.core import shapley_gam
from nshapley.lattice import popcount
from nshapley.models import (
    CheckerboardModel,
    ComponentMap,
    ConstantComponent,
    KnnModel,
    LookupComponent,
    PolyFactor,
    PredictFn,
    ProductComponent,
    SineFactor,
    StepFactor,
)
from nshapley.valuefn import InterventionalValueFunction, build_value_table


def test_additive_model_by_hand():
    comps = ComponentMap(
        2,
        [
            ProductComponent((0,), (PolyFactor((0.0, 0.0, 1.0)),)),  # x0^2
            ProductComponent((1,), (PolyFactor((0.0, -1.0)),)),  # -x1
        ],
    )
    assert isinstance(comps, PredictFn)
    assert comps.predict(np.array([2.0, 3.0])) == 1.0
    assert comps.predict_batch([[2.0, 3.0], [0.0, 1.0]]).tolist() == [1.0, -1.0]


def test_additive_pairwise_term():
    comps = ComponentMap(
        2,
        [
            ProductComponent(
                (0, 1), (PolyFactor((0.0, 1.0)), PolyFactor((0.0, 1.0)))
            )
        ],
    )
    assert comps.predict(np.array([3.0, 4.0])) == 12.0
    assert comps.order == 2


def test_additive_empty_map_is_zero():
    model = ComponentMap(3, [])
    assert model.predict(np.ones(3)) == 0.0
    assert model.order == 0


def test_factor_grammar():
    poly = PolyFactor((1.0, 2.0, 0.0, 0.0, 3.0))
    col = np.array([0.0, 1.0, 2.0])
    assert np.allclose(poly(col), [1.0, 6.0, 53.0])
    with pytest.raises(ValueError):
        PolyFactor((1.0,) * 6)  # degree 5 is out of grammar
    sine = SineFactor(frequency=2.0, phase=0.5)
    assert np.allclose(sine(col), np.sin(2.0 * col + 0.5))
    step = StepFactor(threshold=1.0)
    assert list(step(col)) == [0.0, 1.0, 1.0]


def test_component_validation():
    with pytest.raises(ValueError):
        ProductComponent((1, 0), (PolyFactor((1.0,)), PolyFactor((1.0,))))
    with pytest.raises(ValueError):
        ProductComponent((0,), ())
    with pytest.raises(ValueError):
        ConstantComponent(1.0, features=(0,))
    with pytest.raises(ValueError):
        ComponentMap(2, [ProductComponent((4,), (PolyFactor((1.0,)),))])


def test_lookup_component_against_brute_interpolation():
    rng = np.random.default_rng(8)
    for m in (1, 2, 3):
        shape = tuple(int(n) for n in rng.integers(2, 5, size=m))
        grid = rng.normal(size=shape)
        lo = np.zeros(m)
        hi = np.ones(m)
        comp = LookupComponent(tuple(range(m)), lo, hi, grid)
        pts = rng.uniform(0, 1, size=(50, m))
        got = comp.evaluate(pts)

        # independent per-point recursive interpolation
        def brute(point):
            def rec(axis, idx):
                if axis == m:
                    return grid[tuple(idx)]
                n = shape[axis]
                t = point[axis] * (n - 1)
                c = min(int(t), n - 2)
                f = t - c
                return (1 - f) * rec(axis + 1, idx + [c]) + f * rec(
                    axis + 1, idx + [c + 1]
                )

            return rec(0, [])

        expected = np.array([brute(p) for p in pts])
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_lookup_clamps_and_counts():
    comp = LookupComponent((0,), [0.0], [1.0], [0.0, 10.0])
    out = comp.evaluate(np.array([[-5.0], [0.5], [2.0]]))
    assert list(out) == [0.0, 5.0, 10.0]
    assert comp.clamped_evaluations == 2
    model = ComponentMap(1, [comp])
    model.predict_batch(np.array([[-1.0]]))
    assert model.clamped_evaluations == 3


def test_lookup_validation():
    with pytest.raises(ValueError):
        LookupComponent((0,), [0.0], [1.0], [1.0])  # one grid point
    with pytest.raises(ValueError):
        LookupComponent((0,), [1.0], [0.0], [0.0, 1.0])  # hi <= lo
    with pytest.raises(ValueError):
        LookupComponent((), [], [], [])


def test_checkerboard_hand_values():
    model = CheckerboardModel(dim=2, granularity=2)
    assert model.predict(np.array([0.25, 0.25])) == 1.0
    assert model.predict(np.array([0.25, 0.75])) == 0.0
    assert model.predict(np.array([0.75, 0.75])) == 1.0


def test_checkerboard_single_feature_is_a_step():
    model = CheckerboardModel(dim=1, granularity=2)
    xs = np.linspace(0.0, 1.0, 21).reshape(-1, 1)
    vals = model.predict_batch(xs)
    assert np.all(vals[xs[:, 0] < 0.5] == 1.0)
    assert np.all(vals[xs[:, 0] >= 0.5] == 0.0)


def test_checkerboard_clamps_inputs():
    model = CheckerboardModel(dim=2, granularity=2)
    assert model.predict(np.array([-3.0, 9.0])) == model.predict(np.array([0.0, 1.0]))


def test_checkerboard_spec_validation():
    with pytest.raises(ValueError, match="granularity must be even"):
        CheckerboardModel(dim=2, granularity=3)  # odd
    with pytest.raises(ValueError, match="granularity must be even"):
        CheckerboardModel(dim=2, granularity=0)
    with pytest.raises(ValueError, match="out of range"):
        CheckerboardModel(dim=2, active=(5,))
    model = CheckerboardModel(dim=3)
    assert model.active == (0, 1, 2)
    assert model == CheckerboardModel(3, 2, (0, 1, 2))


@pytest.mark.parametrize("active_size,granularity", [(2, 2), (3, 2), (4, 2), (3, 4)])
def test_checkerboard_concentrates_on_active_set(active_size, granularity):
    # under the cell-center product background, every component except
    # the empty set and the full active set vanishes
    dim = active_size
    model = CheckerboardModel(dim=dim, granularity=granularity)
    background = cell_center_grid(dim, granularity)
    vf = InterventionalValueFunction(model, background)
    x = background[1]
    gam = shapley_gam(build_value_table(vf, x))
    full = (1 << dim) - 1
    assert abs(abs(gam.values[full]) - 0.5) <= 1e-12
    for mask, value in entries(gam).items():
        if mask != full:
            assert abs(value) <= 1e-12
    assert abs(gam.baseline - 0.5) <= 1e-12


def test_cell_center_grid():
    grid = cell_center_grid(2, 2)
    assert grid.shape == (4, 2)
    assert sorted(map(tuple, grid)) == [
        (0.25, 0.25),
        (0.25, 0.75),
        (0.75, 0.25),
        (0.75, 0.75),
    ]


def test_knn_exact_hit_and_global_mean():
    train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    labels = np.array([1.0, 2.0, 3.0, 4.0])
    assert KnnModel(train, labels, 1).predict(train[2]) == 3.0
    assert KnnModel(train, labels, 4).predict(np.array([9.0, -4.0])) == 2.5


def test_knn_hand_checkable_three_neighbours():
    train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0], [2.0, 2.0]])
    labels = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    model = KnnModel(train, labels, 3)
    query = np.array([0.1, 0.1])
    # brute-force oracle: sort by (distance, index)
    d2 = ((train - query) ** 2).sum(axis=1)
    order = sorted(range(5), key=lambda i: (d2[i], i))
    expected = labels[order[:3]].mean()
    assert model.predict(query) == expected
    assert expected == 20.0


def test_knn_tie_breaks_toward_lower_index():
    train = np.array([[-1.0], [1.0], [2.0]])
    labels = np.array([0.0, 100.0, 7.0])
    # query equidistant from rows 0 and 1: the lower index wins
    assert KnnModel(train, labels, 1).predict(np.array([0.0])) == 0.0


def test_knn_validation():
    with pytest.raises(ValueError):
        KnnModel(np.empty((0, 2)), np.empty(0), 1)
    with pytest.raises(ValueError):
        KnnModel(np.zeros((3, 2)), np.zeros(3), 4)
    with pytest.raises(ValueError):
        KnnModel(np.zeros((3, 2)), np.zeros(2), 1)


def test_knn_memory_does_not_grow_with_the_batch():
    import tracemalloc

    rng = np.random.default_rng(32)
    model = KnnModel(rng.normal(size=(2000, 14)), rng.normal(size=2000), 5)
    queries = rng.normal(size=(8192, 14))  # one model call of the value functions
    tracemalloc.start()
    try:
        batch = model.predict_batch(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # 2048-query blocks took 531 MB
    one_row_blocks = np.concatenate([model.predict_batch(q[None, :]) for q in queries])
    assert batch.tobytes() == one_row_blocks.tobytes()


def test_models_are_deterministic():
    rng = np.random.default_rng(31)
    train = rng.normal(size=(30, 3))
    labels = rng.normal(size=30)
    model = KnnModel(train, labels, 5)
    pts = rng.normal(size=(10, 3))
    first = model.predict_batch(pts)
    second = model.predict_batch(pts)
    assert np.array_equal(first, second)
    assert all(model.predict(p) == first[i] for i, p in enumerate(pts))


def test_additive_models_have_no_components_above_their_order():
    rng = np.random.default_rng(13)
    for dim, order in ((4, 1), (6, 2), (8, 3)):
        comps = [ConstantComponent(0.3)]
        for _ in range(6):
            size = int(rng.integers(1, order + 1))
            feats = tuple(sorted(rng.choice(dim, size=size, replace=False)))
            comps.append(
                ProductComponent(
                    feats,
                    tuple(PolyFactor((0.0, 1.0, 0.5)) for _ in feats),
                    coefficient=float(rng.normal()),
                )
            )
        model = ComponentMap(dim, comps)
        background = rng.normal(size=(16, dim))
        gam = shapley_gam(
            build_value_table(
                InterventionalValueFunction(model, background), rng.normal(size=dim)
            )
        )
        for mask, value in entries(gam).items():
            if popcount(mask) > order:
                assert abs(value) <= 1e-10


def test_fit_additive_marginal_means():
    rng = np.random.default_rng(77)
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    labels = pts[:, 0] * 2.0 + pts[:, 1] * 3.0 + 1.0
    model = fit_additive_marginal_means(pts, labels)
    # marginal means of a genuinely additive target reproduce it exactly
    assert np.max(np.abs(model.predict_batch(pts) - labels)) <= 1e-12
    with pytest.raises(ValueError):
        fit_additive_marginal_means(np.array([[0.0], [0.3], [1.0]]), np.zeros(3))
