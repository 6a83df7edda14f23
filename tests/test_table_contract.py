"""One table contract: ``lattice`` checks, copies and freezes every table and index."""

import numpy as np
import pytest

from nshapley import valuefn
from nshapley.core import InteractionIndex, n_shapley_from_gam, shapley_gam
from nshapley.lattice import NonFiniteValue, SubsetTable
from nshapley.models import ComponentMap, ConstantComponent
from nshapley.serialize import loads_records
from nshapley.valuefn import (
    InterventionalValueFunction,
    ObservationalExactMatchValueFunction,
    ValueTable,
)


def _non_finite_values():
    """A d=3 table whose masks 5 ({0,2}, NaN) and 3 ({0,1}, inf) are not finite."""
    values = np.zeros(8)
    values[1] = 1.0
    values[5] = np.nan
    values[3] = np.inf
    return values


# "0,2" (mask 5) comes before "0,1" (mask 3) in document order
RECORD = (
    '[{"dim": 3, "order": 3, "baseline": 0.0, "values": {"0,2": NaN, "0,1,2": 0.0, '
    '"0,1": Infinity, "0": 1.0, "1": 0.0, "2": 0.0, "1,2": 0.0}}]'
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SubsetTable(3, _non_finite_values()),
        lambda: InteractionIndex(dim=3, order=3, baseline=0.0, values=_non_finite_values()),
        lambda: loads_records(RECORD),
    ],
    ids=["SubsetTable", "InteractionIndex", "record_to_index"],
)
def test_a_non_finite_entry_names_the_lowest_such_subset(build):
    with pytest.raises(NonFiniteValue, match=r"^value on subset \{0,1\} is not finite \(inf\)$") as info:
        build()
    assert info.value.subset == 3
    assert valuefn.NonFiniteValue is NonFiniteValue


def test_tables_and_indices_hold_read_only_copies():
    values = np.arange(8.0)
    point = np.array([1.0, 2.0, 3.0])
    table = ValueTable(SubsetTable(3, values), point)
    gam = shapley_gam(table)
    order_one = n_shapley_from_gam(gam, 1)
    phi = order_one.values.copy()
    index = InteractionIndex(dim=3, order=1, baseline=0.0, values=phi, point=point)
    background = np.zeros((2, 3))
    model = ComponentMap(3, [ConstantComponent(1.0)])
    interventional = InterventionalValueFunction(model, background)
    observational = ObservationalExactMatchValueFunction(model, background)
    kept = [a.copy() for a in (table.values, gam.values, index.values)]

    values[:] = -1.0
    point[:] = -1.0
    phi[:] = -1.0
    background[:] = -1.0
    assert table.values.tolist() == list(range(8))
    for held in (table.point, gam.point, index.point):
        assert held.tolist() == [1.0, 2.0, 3.0]
    for held, before in zip((table.values, gam.values, index.values), kept):
        assert np.array_equal(held, before)
    assert not interventional.background.any() and not observational.data.any()

    held = [
        table.values, table.point, gam.values, gam.point, order_one.values,
        order_one.point, index.values, index.point, interventional.background,
        observational.data,
    ]
    for array in held:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 5.0
