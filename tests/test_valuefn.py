"""Value-function semantics and table construction."""

import numpy as np
import pytest

from _exact_oracle import (
    entries,
    gam_induced_value,
    interventional_value,
    observational_exactmatch_value,
    submasks,
)
from nshapley.models import (
    Component,
    ComponentMap,
    ConstantComponent,
    LookupComponent,
    PolyFactor,
    PredictFn,
    ProductComponent,
    SineFactor,
    StepFactor,
)
from nshapley.lattice import SubsetTable
from nshapley.valuefn import (
    GamInducedValueFunction,
    InterventionalValueFunction,
    NoMatchingRows,
    NonFiniteValue,
    ObservationalExactMatchValueFunction,
    ValueTable,
    build_value_table,
)


class SumModel(PredictFn):
    dim = 2

    def predict_batch(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return pts[:, 0] + pts[:, 1]


class ProductModel(PredictFn):
    dim = 2

    def predict_batch(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return pts[:, 0] * pts[:, 1]


class ConstantModel(PredictFn):
    def __init__(self, dim, value):
        self.dim = dim
        self.value = value

    def predict_batch(self, points):
        return np.full(np.asarray(points).shape[0], self.value)


def linear_component_map(dim):
    rng = np.random.default_rng(99)
    comps = [ConstantComponent(1.0)]
    for j in range(dim):
        comps.append(
            ProductComponent((j,), (PolyFactor((0.0, rng.uniform(0.5, 2.0))),))
        )
    return ComponentMap(dim, comps)


class Opaque(PredictFn):
    """Hides a model's structure: the value function sees a bare PredictFn."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def predict_batch(self, points):
        return self.inner.predict_batch(points)


class RowCounter(Component):
    """Delegates to a component and counts the rows it is evaluated on."""

    def __init__(self, inner):
        self.inner = inner
        self.features = inner.features
        self.rows = 0

    def evaluate(self, points):
        self.rows += points.shape[0]
        return self.inner.evaluate(points)


def mixed_component_map(dim, rng):
    """Constant, poly, sine, step and lookup terms, with repeated masks."""
    def feats(k):
        return tuple(sorted(rng.choice(dim, size=k, replace=False).tolist()))

    def factor():
        kind = int(rng.integers(0, 3))
        if kind == 0:
            return PolyFactor(tuple(rng.normal(size=int(rng.integers(1, 6)))))
        if kind == 1:
            return SineFactor(rng.normal(), rng.normal())
        return StepFactor(float(rng.choice([0.0, rng.normal()])))

    comps = [ConstantComponent(rng.normal()), ConstantComponent(rng.normal())]
    for k in (1, 1, 2, 2, 3):
        f = feats(k)
        comps.append(ProductComponent(f, tuple(factor() for _ in f), rng.normal()))
        comps.append(ProductComponent(f, tuple(factor() for _ in f), rng.normal()))
    f = feats(2)
    grid = rng.normal(size=(3, 4))
    comps.append(LookupComponent(f, [-1.0, -0.5], [1.0, 0.5], grid))
    comps.append(ProductComponent(f, (StepFactor(0.0), SineFactor()), -1.0))
    return ComponentMap(dim, comps)


def with_negative_zeros(rows, rng):
    rows = rows.copy()
    rows[rng.random(rows.shape) < 0.2] = -0.0
    return rows


@pytest.mark.parametrize("n_bg", [1, 7, 64, 129, 300])
def test_component_map_route_is_bit_identical_to_the_generic_route(n_bg):
    # dim 9 has 512 masks, so n_bg 129 and 300 span several chunks, and
    # n_bg > 128 crosses numpy's pairwise-summation block in the mean
    rng = np.random.default_rng(1000 + n_bg)
    dim = 9
    maps = [mixed_component_map(dim, rng) for _ in range(3)] + [ComponentMap(dim, [])]
    for model in maps:
        background = with_negative_zeros(rng.normal(size=(n_bg, dim)), rng)
        fast = InterventionalValueFunction(model, background)
        generic = InterventionalValueFunction(Opaque(model), background)
        for _ in range(3):
            x = with_negative_zeros(rng.normal(size=dim), rng)
            assert np.array_equal(fast.batch_evaluate(x), generic.batch_evaluate(x))


def test_component_map_route_evaluates_only_the_reduced_rows():
    rng = np.random.default_rng(8)
    dim, n_bg = 6, 5
    counters = [RowCounter(c) for c in mixed_component_map(dim, rng).components]
    model = ComponentMap(dim, counters)
    background = rng.normal(size=(n_bg, dim))
    x = rng.normal(size=dim)
    fast = InterventionalValueFunction(model, background).batch_evaluate(x)
    assert [c.rows for c in counters] == [(1 << len(c.features)) * n_bg for c in counters]
    for c in counters:
        c.rows = 0
    # reduced tables over the cap: the map takes the generic route
    capped = InterventionalValueFunction(model, background)
    capped._TABLE_ROWS = 0
    assert np.array_equal(capped.batch_evaluate(x), fast)
    assert [c.rows for c in counters] == [(1 << dim) * n_bg] * len(counters)
    # three masks a block: the reduced tables and the gather come in pieces
    small = InterventionalValueFunction(model, background)
    small._GATHER_ROWS = 3 * n_bg
    for c in counters:
        c.rows = 0
    assert np.array_equal(small.batch_evaluate(x), fast)
    assert [c.rows for c in counters] == [(1 << len(c.features)) * n_bg for c in counters]


class CallCounter(PredictFn):
    """Delegates to a model and records the row count of each call."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = []

    def predict_batch(self, points):
        self.calls.append(points.shape[0])
        return self.inner.predict_batch(points)


def test_generic_route_calls_the_model_on_at_most_8192_rows():
    rng = np.random.default_rng(10)
    dim, n_bg = 10, 32
    model = CallCounter(Opaque(mixed_component_map(dim, rng)))
    background = with_negative_zeros(rng.normal(size=(n_bg, dim)), rng)
    bounded = InterventionalValueFunction(model, background)
    whole = InterventionalValueFunction(model, background)
    whole._TARGET_ROWS = 1 << 20
    for _ in range(2):
        x = with_negative_zeros(rng.normal(size=dim), rng)
        model.calls.clear()
        table = bounded.batch_evaluate(x)
        assert model.calls == [8192] * 4  # 2**10 masks * 32 rows
        model.calls.clear()
        assert np.array_equal(table, whole.batch_evaluate(x))
        assert model.calls == [(1 << dim) * n_bg]


def test_a_background_larger_than_a_call_is_split_within_each_mask():
    rng = np.random.default_rng(11)
    dim, n_bg = 4, 10
    model = CallCounter(Opaque(mixed_component_map(dim, rng)))
    background = rng.normal(size=(n_bg, dim))
    x = rng.normal(size=dim)
    split = InterventionalValueFunction(model, background)
    split._TARGET_ROWS = 4  # each mask's 10 rows as 4 + 4 + 2
    table = split.batch_evaluate(x)
    assert model.calls == [4, 4, 2] * (1 << dim)
    assert np.array_equal(table, InterventionalValueFunction(model, background).batch_evaluate(x))


def test_interventional_lookup_clamps_count_the_reduced_rows():
    # x1 = 5 lies outside the grid; the background lies inside it
    dim, n_bg = 3, 4
    background = np.linspace(0.1, 0.9, n_bg * dim).reshape(n_bg, dim)
    x = np.array([0.5, 5.0, 0.5])

    def lookup_map():
        return ComponentMap(dim, [LookupComponent((1,), [0.0], [1.0], [0.0, 1.0])])

    model = lookup_map()
    InterventionalValueFunction(model, background).batch_evaluate(x)
    # only T = {1} of the component's two reduced masks reads x1: n_bg rows
    assert model.clamped_evaluations == n_bg
    model = lookup_map()
    InterventionalValueFunction(Opaque(model), background).batch_evaluate(x)
    # the generic route sees each such row once per mask S containing 1
    assert model.clamped_evaluations == (1 << (dim - 1)) * n_bg


def test_interventional_hand_example():
    # f(z) = z0 + z1, background {(0,0), (2,2)}, x = (1, 5)
    model = SumModel()
    background = np.array([[0.0, 0.0], [2.0, 2.0]])
    x = np.array([1.0, 5.0])
    vf = InterventionalValueFunction(model, background)
    assert vf.batch_evaluate(x).tolist() == [2.0, 2.0, 6.0, 6.0]


def test_interventional_full_subset_ignores_background():
    model = SumModel()
    for background in ([[100.0, -3.0]], [[0.0, 0.0], [5.0, 5.0], [1.0, 2.0]]):
        vf = InterventionalValueFunction(model, np.array(background))
        assert vf.batch_evaluate(np.array([1.0, 5.0]))[0b11] == pytest.approx(6.0, abs=1e-12)


def test_interventional_centered_product():
    # all four sign combinations average every proper coalition to zero
    model = ProductModel()
    background = np.array(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
    )
    a, b = 3.0, 4.0
    x = np.array([a, b])
    vf = InterventionalValueFunction(model, background)
    assert vf.batch_evaluate(x).tolist() == [0.0, 0.0, 0.0, a * b]


def test_interventional_rejects_empty_background():
    with pytest.raises(ValueError):
        InterventionalValueFunction(SumModel(), np.empty((0, 2)))


def test_interventional_batch_matches_single_evaluations():
    rng = np.random.default_rng(0)
    model = ProductModel()
    background = rng.normal(size=(7, 2))
    vf = InterventionalValueFunction(model, background)
    x = rng.normal(size=2)
    dense = vf.batch_evaluate(x)
    for mask in range(4):
        assert dense[mask] == interventional_value(model, background, x, mask)


def test_observational_exact_match():
    data = np.array([[0.0, 1.0], [0.0, 2.0]])

    class SecondCoord(PredictFn):
        dim = 2

        def predict_batch(self, points):
            return np.asarray(points, dtype=np.float64)[:, 1]

    model = SecondCoord()
    vf = ObservationalExactMatchValueFunction(model, data)
    x = np.array([0.0, 1.0])
    # the empty coalition is the unconditional mean
    assert vf.batch_evaluate(x).tolist() == [1.5, 1.5, 1.0, 1.0]
    assert observational_exactmatch_value(model, data, x, 0b01) == 1.5
    # a value absent from the data leaves the conditional undefined
    with pytest.raises(NoMatchingRows) as err:
        vf.batch_evaluate(np.array([9.0, 1.0]))
    assert err.value.subset == 0b01
    assert observational_exactmatch_value(model, data, np.array([9.0, 1.0]), 0b01) is None


def test_observational_batch_flags_offending_subset():
    data = np.array([[0.0, 1.0], [1.0, 2.0]])
    model = SumModel()
    vf = ObservationalExactMatchValueFunction(model, data)
    with pytest.raises(NoMatchingRows) as err:
        build_value_table(vf, np.array([0.0, 2.0]))
    # rows exist matching each coordinate alone, but not jointly
    assert err.value.subset == 0b11


def test_gam_induced_value_by_hand():
    declared = [
        ConstantComponent(1.0),
        ProductComponent((0,), (PolyFactor((0.0, 1.0)),)),  # g_{0} = x0
    ]
    x = np.array([2.0, 7.0])
    vf = GamInducedValueFunction(ComponentMap(2, declared))
    assert vf.batch_evaluate(x).tolist() == [1.0, 3.0, 1.0, 3.0]
    assert [gam_induced_value(declared, x, mask) for mask in range(4)] == [1.0, 3.0, 1.0, 3.0]


def test_gam_induced_roundtrip_recovers_components():
    from nshapley.core import shapley_gam

    rng = np.random.default_rng(21)
    for dim in (2, 4, 7, 10):
        comps = linear_component_map(dim)
        vf = GamInducedValueFunction(comps)
        x = rng.normal(size=dim)
        table = build_value_table(vf, x)
        gam = shapley_gam(table)
        expected = comps.component_table(x)
        assert abs(gam.baseline - expected[0]) <= 1e-12
        for mask, value in entries(gam).items():
            assert abs(value - expected[mask]) <= 1e-12


def test_build_value_table_contract():
    model = ProductModel()
    background = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    vf = InterventionalValueFunction(model, background)
    x = np.array([3.0, 4.0])
    table = build_value_table(vf, x)
    assert list(table.values) == [0.0, 0.0, 0.0, 12.0]
    # full-coalition entry reproduces the prediction
    assert table.values[0b11] == pytest.approx(model.predict(x), abs=1e-12)
    assert table.point.flags.writeable is False


def test_build_value_table_constant_model():
    vf = InterventionalValueFunction(ConstantModel(3, 2.5), np.zeros((4, 3)))
    table = build_value_table(vf, np.ones(3))
    assert np.all(table.values == 2.5)


def test_build_value_table_names_first_non_finite_subset():
    # the product overflows only when both coordinates come from the point
    vf = InterventionalValueFunction(ProductModel(), np.ones((2, 2)))
    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteValue, match=r"subset \{0,1\} is not finite \(inf\)"
    ) as err:
        build_value_table(vf, np.array([1e200, 1e200]))
    assert err.value.subset == 0b11


def test_value_table_validates_point():
    with pytest.raises(ValueError):
        ValueTable(
            table=SubsetTable(2, np.zeros(4)),
            point=np.array([1.0]),
        )


def test_subset_compliance_exact():
    # table(x)[T] == table(x')[T] for every T inside a coalition S on which x and x' agree
    rng = np.random.default_rng(5)
    dim = 5
    data = np.round(rng.uniform(0, 2, size=(40, dim)))

    class Mixed(PredictFn):
        def __init__(self):
            self.dim = dim

        def predict_batch(self, points):
            pts = np.asarray(points, dtype=np.float64)
            return pts[:, 0] * pts[:, 1] + np.sin(pts[:, 2:]).sum(axis=1)

    model = Mixed()
    anywhere = [
        InterventionalValueFunction(model, data[:10]),
        InterventionalValueFunction(
            mixed_component_map(dim, np.random.default_rng(6)), data[:10]
        ),
        GamInducedValueFunction(linear_component_map(dim)),
    ]
    observational = ObservationalExactMatchValueFunction(model, data)
    for trial in range(200):
        x = data[int(rng.integers(0, len(data)))].copy()
        mask = int(rng.integers(0, 1 << dim))
        keep = [(mask >> j) & 1 for j in range(dim)]
        x_prime = np.where(keep, x, rng.normal(size=dim))
        inside = list(submasks(mask))
        for vf in anywhere:
            assert np.array_equal(vf.batch_evaluate(x)[inside], vf.batch_evaluate(x_prime)[inside])
        # x' is a data row too, so every entry of both tables is defined;
        # S is where the two rows agree
        row = data[int(rng.integers(0, len(data)))]
        agree = sum(1 << j for j in range(dim) if row[j] == x[j])
        inside = list(submasks(agree))
        assert np.array_equal(
            observational.batch_evaluate(x)[inside], observational.batch_evaluate(row)[inside]
        )


def test_linearity_in_the_model():
    rng = np.random.default_rng(17)
    dim = 3
    background = rng.normal(size=(6, dim))
    x = rng.normal(size=dim)

    class A(PredictFn):
        dim = 3

        def predict_batch(self, pts):
            pts = np.asarray(pts, dtype=np.float64)
            return pts[:, 0] ** 2 - pts[:, 1]

    class B(PredictFn):
        dim = 3

        def predict_batch(self, pts):
            pts = np.asarray(pts, dtype=np.float64)
            return pts[:, 1] * pts[:, 2]

    class AB(PredictFn):
        dim = 3

        def predict_batch(self, pts):
            return A().predict_batch(pts) + B().predict_batch(pts)

    va, vb, vab = (
        InterventionalValueFunction(model, background).batch_evaluate(x)
        for model in (A(), B(), AB())
    )
    assert np.max(np.abs(vab - (va + vb))) <= 1e-12


def test_interventional_equals_observational_on_full_product_grids():
    # when every marginal combination appears exactly once, forcing a
    # coalition and conditioning on it average the same function values
    rng = np.random.default_rng(23)
    for dim in (2, 3, 4):
        grids = np.meshgrid(*([np.array([0.0, 1.0])] * dim), indexing="ij")
        data = np.stack([g.ravel() for g in grids], axis=1)

        class Crazy(PredictFn):
            def __init__(self, d):
                self.dim = d

            def predict_batch(self, pts):
                pts = np.asarray(pts, dtype=np.float64)
                out = np.ones(pts.shape[0])
                for j in range(self.dim):
                    out = out * (1.0 + pts[:, j] * (j + 0.5))
                return out

        model = Crazy(dim)
        inter = InterventionalValueFunction(model, data)
        obs = ObservationalExactMatchValueFunction(model, data)
        x = data[int(rng.integers(0, len(data)))]
        ti = inter.batch_evaluate(x)
        to = obs.batch_evaluate(x)
        assert np.max(np.abs(ti - to)) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_observational_table_equals_the_per_mask_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    data = rng.integers(0, 3, size=(int(rng.integers(4, 60)), dim)).astype(np.float64)
    weights = rng.normal(size=dim)

    class Wavy(PredictFn):
        def __init__(self):
            self.dim = dim

        def predict_batch(self, points):
            pts = np.asarray(points, dtype=np.float64)
            return np.sin(pts @ weights) * 1e3 + pts[:, 0] / 3.0

    model = Wavy()
    vf = ObservationalExactMatchValueFunction(model, data)
    undefined = 0
    # data rows define every entry; random grid points often leave some undefined
    points = [data[i] for i in range(min(5, len(data)))]
    points += list(rng.integers(0, 3, size=(20, dim)).astype(np.float64))
    for x in points:
        expected = [observational_exactmatch_value(model, data, x, m) for m in range(1 << dim)]
        if None in expected:
            undefined += 1
            with pytest.raises(NoMatchingRows) as err:
                vf.batch_evaluate(x)
            assert err.value.subset == expected.index(None)
        else:
            assert np.array_equal(vf.batch_evaluate(x), np.array(expected))
    assert undefined


class SignedWavy(PredictFn):
    """Large, sign-of-zero-sensitive outputs: any change in summation order shows."""

    def __init__(self, dim, rng):
        self.dim = dim
        self.weights = rng.normal(size=dim)

    def predict_batch(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return np.sin(pts @ self.weights) * 1e3 + np.copysign(1.0, pts[:, 0]) / 3.0


def signed_zeros(rows, rng):
    """The same rows with about half of their zeros turned into -0.0."""
    return np.where((rows == 0) & (rng.random(rows.shape) < 0.5), -0.0, rows)


def oracle_table(model, data, x, masks):
    return [observational_exactmatch_value(model, data, x, m) for m in masks]


@pytest.mark.parametrize("dim", range(8, 13))
def test_observational_table_is_bit_identical_with_ties_and_signed_zeros(dim):
    rng = np.random.default_rng(100 + dim)
    model = SignedWavy(dim, rng)
    rows = rng.integers(0, 2 + dim % 3, size=(int(rng.integers(20, 80)), dim))
    # duplicated rows, and zeros of both signs
    rows = np.concatenate([rows, rows[rng.integers(0, len(rows), size=len(rows) // 2)]])
    data = signed_zeros(rows.astype(np.float64), rng)
    vf = ObservationalExactMatchValueFunction(model, data)
    for x in data[rng.integers(0, len(data), size=2)]:
        assert np.array_equal(vf.batch_evaluate(x), oracle_table(model, data, x, range(1 << dim)))
    # a single row defines every entry for itself: all of them are its prediction
    single = ObservationalExactMatchValueFunction(model, data[:1])
    expected = oracle_table(model, data[:1], data[0], range(1 << dim))
    assert np.array_equal(single.batch_evaluate(data[0]), expected)
    assert len(set(expected)) == 1


@pytest.mark.parametrize("dim", [8, 10, 12])
def test_observational_undefined_entry_names_the_oracles_subset(dim):
    rng = np.random.default_rng(200 + dim)
    model = SignedWavy(dim, rng)
    data = signed_zeros(rng.integers(0, 3, size=(60, dim)).astype(np.float64), rng)
    vf = ObservationalExactMatchValueFunction(model, data)
    # grid points off the data, some with a level no row takes
    points = rng.integers(0, 3, size=(4, dim)).astype(np.float64)
    points[1:, rng.integers(0, dim)] = 3.0
    for x in points:
        expected = oracle_table(model, data, x, range(1 << dim))
        assert None in expected
        with pytest.raises(NoMatchingRows) as err:
            vf.batch_evaluate(x)
        assert err.value.subset == expected.index(None)


def test_observational_table_on_the_full_binary_grid_where_every_mask_is_closed():
    # each agreement pattern occurs, so no two masks share their matched rows
    dim = 10
    rng = np.random.default_rng(31)
    grids = np.meshgrid(*([np.array([0.0, 1.0])] * dim), indexing="ij")
    data = np.stack([g.ravel() for g in grids], axis=1)[rng.permutation(1 << dim)]
    model = SignedWavy(dim, rng)
    vf = ObservationalExactMatchValueFunction(model, data)
    for x in data[:2]:
        expected = oracle_table(model, data, x, range(1 << dim))
        assert np.array_equal(vf.batch_evaluate(x), expected)
        assert len(set(expected)) == 1 << dim


def test_observational_table_at_d16_on_sampled_masks():
    dim = 16
    rng = np.random.default_rng(41)
    model = SignedWavy(dim, rng)
    data = signed_zeros(rng.integers(0, 3, size=(2000, dim)).astype(np.float64), rng)
    vf = ObservationalExactMatchValueFunction(model, data)
    small = [m for m in range(1 << dim) if bin(m).count("1") <= 2]
    masks = small + [(1 << dim) - 1] + rng.integers(0, 1 << dim, size=256).tolist()
    x = data[int(rng.integers(0, len(data)))]
    table = vf.batch_evaluate(x)
    assert np.array_equal(table[masks], oracle_table(model, data, x, masks))


def test_observational_matching_compares_values_so_signed_zeros_agree():
    class Sign(PredictFn):
        dim = 2

        def predict_batch(self, points):
            return np.copysign(1.0, np.asarray(points, dtype=np.float64)[:, 0])

    model = Sign()
    data = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, 2.0]])
    vf = ObservationalExactMatchValueFunction(model, data)
    for zero in (0.0, -0.0):
        x = np.array([zero, 1.0])
        # -0.0 == 0.0, so both signed-zero rows match on feature 0
        assert vf.batch_evaluate(x).tolist() == [1 / 3, 1 / 3, 0.0, 0.0]
        assert observational_exactmatch_value(model, data, x, 0b11) == 0.0


def same_bits(table, expected) -> bool:
    return np.array_equal(
        np.asarray(table).view(np.uint64), np.array(expected, dtype=np.float64).view(np.uint64)
    )


def test_a_row_reduce_over_the_count_is_np_mean_bit_for_bit():
    # the observational table takes np.mean of each closed mask's values
    # as one axis-1 reduce per count; a numpy whose loop differs fails here
    rng = np.random.default_rng(51)
    for c in range(1, 301):
        for g in (1, 2, 5, 33):
            block = rng.normal(size=(g, c)) * 10.0 ** rng.integers(-12, 13, size=(g, c))
            block[rng.random((g, c)) < 0.2] = 0.0
            block[rng.random((g, c)) < 0.2] = -0.0
            if g > 1:
                block[0] = -0.0
            expected = np.array([np.mean(row) for row in block])
            assert same_bits(np.add.reduce(block, axis=1) / c, expected), (c, g)


def closed_counts(data, x):
    """Matching-row counts of the closed masks, in increasing order."""
    agree = (data == x) @ (1 << np.arange(data.shape[1]))
    counts = []
    for mask in range(1 << data.shape[1]):
        rows = agree[(agree & mask) == mask]
        if rows.size and np.bitwise_and.reduce(rows) == mask:
            counts.append(rows.size)
    return sorted(counts)


@pytest.mark.parametrize("rest", range(1, 8))
def test_observational_table_with_rows_not_a_multiple_of_eight(rest):
    dim = 6
    rng = np.random.default_rng(300 + rest)
    model = SignedWavy(dim, rng)
    for n in (rest, 40 + rest, 64 + rest):
        data = signed_zeros(rng.integers(0, 2, size=(n, dim)).astype(np.float64), rng)
        vf = ObservationalExactMatchValueFunction(model, data)
        for x in data[:3]:
            assert same_bits(vf.batch_evaluate(x), oracle_table(model, data, x, range(1 << dim)))


@pytest.mark.parametrize("masks_a_block", [1, 3, 40])
def test_observational_table_over_many_blocks(monkeypatch, masks_a_block):
    dim, n = 8, 90
    rng = np.random.default_rng(400 + masks_a_block)
    model = SignedWavy(dim, rng)
    data = signed_zeros(rng.integers(0, 2, size=(n, dim)).astype(np.float64), rng)
    monkeypatch.setattr(ObservationalExactMatchValueFunction, "_BLOCK_CELLS", masks_a_block * n)
    vf = ObservationalExactMatchValueFunction(model, data)
    for x in data[:2]:
        assert len(closed_counts(data, x)) > 2 * masks_a_block
        assert same_bits(vf.batch_evaluate(x), oracle_table(model, data, x, range(1 << dim)))


def test_observational_table_with_a_count_run_split_across_blocks(monkeypatch):
    dim, n = 7, 50
    rng = np.random.default_rng(450)
    model = SignedWavy(dim, rng)
    data = rng.integers(0, 2, size=(n, dim)).astype(np.float64)
    x = data[0]
    counts = closed_counts(data, x)
    # the smallest block size whose first boundary falls inside a run of one count
    step = next(s for s in range(2, len(counts)) if counts[s - 1] == counts[s])
    monkeypatch.setattr(ObservationalExactMatchValueFunction, "_BLOCK_CELLS", step * n)
    vf = ObservationalExactMatchValueFunction(model, data)
    assert same_bits(vf.batch_evaluate(x), oracle_table(model, data, x, range(1 << dim)))


def test_observational_table_with_counts_above_128():
    dim, n = 5, 700
    rng = np.random.default_rng(460)
    model = SignedWavy(dim, rng)
    data = signed_zeros(rng.integers(0, 2, size=(n, dim)).astype(np.float64), rng)
    vf = ObservationalExactMatchValueFunction(model, data)
    for x in data[:3]:
        counts = closed_counts(data, x)
        assert sum(c > 136 for c in counts) > 5 and counts[-1] == n
        assert same_bits(vf.batch_evaluate(x), oracle_table(model, data, x, range(1 << dim)))


def test_observational_table_memory_at_d12_on_50000_rows():
    import tracemalloc

    dim = 12
    rng = np.random.default_rng(470)
    model = SignedWavy(dim, rng)
    data = rng.integers(0, 2, size=(50_000, dim)).astype(np.float64)
    vf = ObservationalExactMatchValueFunction(model, data)
    tracemalloc.start()
    try:
        table = vf.batch_evaluate(data[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    masks = [0, 1, 0b101, (1 << dim) - 1, *rng.integers(0, 1 << dim, size=8).tolist()]
    assert same_bits(table[masks], oracle_table(model, data, data[0], masks))


def test_observational_agreement_masks_take_no_int64_copy_of_the_equality_matrix():
    # At d=12 on 50,000 binary rows an int64 copy of the (n, d) equality
    # matrix alone is 4.6 MiB; built one column at a time the table peaks
    # near 3.8 MiB.
    import tracemalloc

    dim = 12
    rng = np.random.default_rng(471)
    model = SignedWavy(dim, rng)
    data = rng.integers(0, 2, size=(50_000, dim)).astype(np.float64)
    vf = ObservationalExactMatchValueFunction(model, data)
    tracemalloc.start()
    try:
        table = vf.batch_evaluate(data[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    masks = [0, 3, (1 << dim) - 1, *rng.integers(0, 1 << dim, size=8).tolist()]
    assert same_bits(table[masks], oracle_table(model, data, data[0], masks))
