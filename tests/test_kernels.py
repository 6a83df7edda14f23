"""Numeric kernels over dense subset tables."""

import numpy as np

from nshapley import _kernels


def test_popcount_table():
    pc = _kernels.popcount_table(4)
    assert list(pc[:8]) == [0, 1, 1, 2, 1, 2, 2, 3]
    assert pc[0b1111] == 4


def test_zeta_subsets_small_table():
    out = _kernels.zeta_subsets(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert out.tolist() == [1.0, 3.0, 4.0, 10.0]
