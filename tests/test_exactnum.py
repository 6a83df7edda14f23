"""Exact coefficient arithmetic."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from _exact_oracle import (
    bernoulli_list,
    check_bernoulli_identity,
    check_bernoulli_orthogonality,
    fr_phi_recursive,
    fr_zeta,
)
from nshapley.core import _mixing_matrix
from nshapley.exactnum import bernoulli, coeff_c

# The first 20 Bernoulli numbers, the standard reference values.
FIRST_TWENTY = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    5: Fraction(0),
    6: Fraction(1, 42),
    7: Fraction(0),
    8: Fraction(-1, 30),
    9: Fraction(0),
    10: Fraction(5, 66),
    11: Fraction(0),
    12: Fraction(-691, 2730),
    13: Fraction(0),
    14: Fraction(7, 6),
    15: Fraction(0),
    16: Fraction(-3617, 510),
    17: Fraction(0),
    18: Fraction(43867, 798),
    19: Fraction(0),
}


def test_first_twenty_bernoulli_numbers_exact():
    for n, expected in FIRST_TWENTY.items():
        assert bernoulli(n) == expected


def test_bernoulli_matches_independent_recursion():
    reference = bernoulli_list(24)
    assert [bernoulli(n) for n in range(25)] == reference


def test_bernoulli_defining_identity():
    # sum_{k=0}^{n} C(n+1, k) B_k == 0 for all n >= 1
    for n in range(1, 31):
        total = sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0


def test_odd_bernoulli_vanish():
    for n in range(3, 32, 2):
        assert bernoulli(n) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_is_pure():
    assert bernoulli(14) == bernoulli(14) == Fraction(7, 6)


@given(st.integers(min_value=1, max_value=40))
def test_bernoulli_identity_property(n):
    assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_even_split_coefficients():
    assert coeff_c(0, 1) == Fraction(1, 2)
    for m in range(17):
        assert coeff_c(0, m) == Fraction(1, m + 1)


def test_coeff_rejects_bad_arguments():
    with pytest.raises(ValueError):
        coeff_c(-1, 2)
    with pytest.raises(ValueError):
        coeff_c(2, -1)
    with pytest.raises(ValueError):
        coeff_c(3, 2)  # m < n


def test_coeff_c_1_2_against_symbolic_recursion():
    # Oracle: a 3-feature decomposition with a single full-interaction
    # component of weight 1. Its induced value table is the cumulative
    # subset sum of the components; running the Bernoulli-weighted
    # recursion to order 2 and reading off a singleton's value exposes,
    # by linearity, exactly the coefficient with which the distance-2
    # component folds into a coalition with headroom 1.
    dim = 3
    components = [Fraction(0)] * (1 << dim)
    components[(1 << dim) - 1] = Fraction(1)
    table = fr_zeta(components, dim)
    phi2 = fr_phi_recursive(table, dim, 2)
    assert coeff_c(1, 2) == phi2[0b001] == Fraction(-1, 6)


def test_coeff_c_matches_symbolic_recursion_broadly():
    # Same construction, every (headroom, distance) pair reachable at
    # dim 5: a single component on the full set, recursion to order n,
    # coefficient read off a coalition of size s = n - headroom.
    dim = 5
    components = [Fraction(0)] * (1 << dim)
    components[(1 << dim) - 1] = Fraction(1)
    table = fr_zeta(components, dim)
    for order in range(1, dim):
        phi = fr_phi_recursive(table, dim, order)
        for s in range(1, order + 1):
            mask = (1 << s) - 1
            assert phi[mask] == coeff_c(order - s, dim - s)


def test_weighted_sum_identity_small_cases():
    assert check_bernoulli_identity(1)  # single term: B_1 = -1/2
    assert check_bernoulli_identity(12)  # exercises B_12 = -691/2730
    for n in range(1, 21):
        assert check_bernoulli_identity(n)
    with pytest.raises(ValueError):
        check_bernoulli_identity(0)


def test_orthogonality_identity():
    assert check_bernoulli_orthogonality(0, 0)
    assert check_bernoulli_orthogonality(0, 5)
    assert check_bernoulli_orthogonality(3, 4)
    for n in range(9):
        for m in range(9):
            assert check_bernoulli_orthogonality(n, m)
    with pytest.raises(ValueError):
        check_bernoulli_orthogonality(-1, 0)


def test_coefficient_table():
    # the float64 mixing matrix the engine uses: C(n, m) rounded once, n < m
    table = _mixing_matrix(8)
    assert table.shape == (9, 9)  # every entry, zero below the diagonal, is checked
    for m in range(9):
        for n in range(9):
            expected = float(coeff_c(n, m)) if n < m else 0.0
            assert table[n, m] == expected
    assert table[0, 3] == 0.25
    with pytest.raises(ValueError):
        table[0, 1] = 0.0  # matrix is read-only
