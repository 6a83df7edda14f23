"""Numeric kernels over dense subset tables."""

import numpy as np
import pytest

from nshapley import _kernels


def test_popcount_table():
    pc = _kernels.popcount_table(4)
    assert list(pc[:8]) == [0, 1, 1, 2, 1, 2, 2, 3]
    assert pc[0b1111] == 4


def test_popcount_table_is_one_shared_read_only_array():
    pc = _kernels.popcount_table(6)
    assert _kernels.popcount_table(6) is pc
    assert not pc.flags.writeable
    with pytest.raises(ValueError):
        pc[3] = 0


def test_spread_by_size_lists_each_masks_submasks_ascending():
    out = _kernels.spread_by_size(np.array([0b1010, 0b0110, 0b1001]), 2)
    assert out.tolist() == [[0, 2, 8, 10], [0, 2, 4, 6], [0, 1, 8, 9]]
    assert _kernels.spread_by_size(np.array([0]), 0).tolist() == [[0]]


def test_zeta_subsets_small_table():
    out = _kernels.zeta_subsets(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert out.tolist() == [1.0, 3.0, 4.0, 10.0]
