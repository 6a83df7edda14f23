"""Subset masks and lattice transforms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nshapley import _kernels
from _exact_oracle import enumerate_subsets, indices_from_mask, zeta_transform
from nshapley.lattice import (
    SubsetTable,
    mask_from_indices,
    moebius_transform,
    popcount,
    subset_key,
)


def brute_moebius(values: np.ndarray, dim: int) -> np.ndarray:
    """O(3**d) alternating subset sum, the independent reference."""
    out = np.zeros(1 << dim)
    for mask in range(1 << dim):
        sub = mask
        while True:
            sign = -1.0 if (popcount(mask) - popcount(sub)) % 2 else 1.0
            out[mask] += sign * values[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return out


def test_mask_helpers():
    assert mask_from_indices([0, 2, 3]) == 0b1101
    assert indices_from_mask(0b1101) == (0, 2, 3)
    assert subset_key(0b1101) == "0,2,3"
    for mask in range(1 << 10):
        assert subset_key(mask) == ",".join(map(str, indices_from_mask(mask)))
    assert popcount(0b1101) == 3
    with pytest.raises(ValueError):
        mask_from_indices([-1])


def test_enumerate_subsets_small():
    assert enumerate_subsets(2, 2) == [0b00, 0b01, 0b10, 0b11]
    assert enumerate_subsets(3, 1) == [0b000, 0b001, 0b010, 0b100]
    assert len(enumerate_subsets(4, 4)) == 16


def test_enumerate_subsets_is_sorted_and_sized():
    masks = enumerate_subsets(6, 3)
    assert masks == sorted(masks)
    assert all(popcount(m) <= 3 for m in masks)
    assert len(masks) == 1 + 6 + 15 + 20


def test_enumerate_subsets_guards():
    with pytest.raises(ValueError):
        enumerate_subsets(25, 1)
    with pytest.raises(ValueError):
        enumerate_subsets(4, 5)
    with pytest.raises(ValueError):
        enumerate_subsets(4, -1)


def test_subset_table_validation():
    with pytest.raises(ValueError):
        SubsetTable(2, [1.0, 2.0, 3.0])  # wrong length
    with pytest.raises(ValueError):
        SubsetTable(25, np.zeros(1 << 25))
    with pytest.raises(ValueError):
        SubsetTable(1, [np.nan, 0.0])
    table = SubsetTable(1, [2.0, 5.0])
    with pytest.raises(ValueError):
        table.values[0] = 3.0  # frozen storage


def test_moebius_one_dimensional():
    # single feature: the component is the lift over the empty value
    table = SubsetTable(1, [2.0, 5.0])
    assert list(moebius_transform(table).values) == [2.0, 3.0]
    assert list(zeta_transform(SubsetTable(1, [2.0, 3.0])).values) == [2.0, 5.0]


def test_moebius_product_table():
    # a pure pairwise interaction stays concentrated on the top set
    table = SubsetTable(2, [0.0, 0.0, 0.0, 12.0])
    assert list(moebius_transform(table).values) == [0.0, 0.0, 0.0, 12.0]


def test_zeta_by_hand():
    # components g_empty=1, g_{0}=2 at the point: cumulative value of the
    # full pair is 3
    table = SubsetTable(2, [1.0, 2.0, 0.0, 0.0])
    out = zeta_transform(table)
    assert out.values[0b11] == 3.0
    assert out.values[0b01] == 3.0
    assert out.values[0b10] == 1.0


def test_moebius_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    for dim in range(0, 9):
        values = rng.uniform(-1, 1, size=1 << dim)
        fast = moebius_transform(SubsetTable(dim, values)).values
        slow = brute_moebius(values, dim)
        assert np.max(np.abs(fast - slow)) <= 1e-12


def test_round_trip_many_random_tables():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        dim = int(rng.integers(1, 11))
        values = rng.uniform(-1, 1, size=1 << dim)
        table = SubsetTable(dim, values)
        back = moebius_transform(zeta_transform(table)).values
        assert np.max(np.abs(back - values)) <= 1e-12
        forth = zeta_transform(moebius_transform(table)).values
        assert np.max(np.abs(forth - values)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_property(dim, seed):
    values = np.random.default_rng(seed).uniform(-1, 1, size=1 << dim)
    table = SubsetTable(dim, values)
    back = moebius_transform(zeta_transform(table)).values
    assert np.max(np.abs(back - values)) <= 1e-12


def test_components_recovered_from_cumulative_tables():
    # Declared components -> cumulative table -> inversion gives the
    # components back, toleranced only by float addition.
    rng = np.random.default_rng(11)
    for dim in range(1, 13):
        components = rng.uniform(-1, 1, size=1 << dim)
        cumulative = zeta_transform(SubsetTable(dim, components))
        recovered = moebius_transform(cumulative).values
        assert np.max(np.abs(recovered - components)) <= 1e-12


def test_superset_sweep_definition():
    rng = np.random.default_rng(5)
    dim = 6
    values = rng.normal(size=1 << dim)
    out = _kernels.zeta_supersets(values, dim)
    # brute force superset sum
    for mask in range(1 << dim):
        expected = sum(
            values[t] for t in range(1 << dim) if (t & mask) == mask
        )
        assert abs(out[mask] - expected) <= 1e-12
