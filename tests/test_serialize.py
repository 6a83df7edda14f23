"""Result records round-trip to full float precision."""

import json

import numpy as np
import pytest

from _exact_oracle import scatter
from nshapley.core import InteractionIndex, ShapleyGam, shapley_gam
from nshapley.lattice import SubsetTable
from nshapley.serialize import (
    dumps_records,
    index_to_record,
    loads_records,
    read_records,
    record_to_index,
    write_records,
)
from nshapley.valuefn import ValueTable


def random_index(rng, dim, order):
    values = {}
    for mask in range(1, 1 << dim):
        if bin(mask).count("1") <= order:
            values[mask] = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
    cls = ShapleyGam if order == dim else InteractionIndex
    return cls(
        dim=dim,
        order=order,
        baseline=float(rng.normal()),
        values=scatter(dim, values),
        point=rng.normal(size=dim),
        provenance="from-gam" if order < dim else "direct",
    )


def test_record_shape():
    index = InteractionIndex(
        dim=2, order=1, baseline=0.25, values=scatter(2, {0b01: 1.5, 0b10: -2.0})
    )
    record = index_to_record(index)
    assert record["dim"] == 2
    assert record["order"] == 1
    assert record["baseline"] == 0.25
    assert record["values"] == {"0": 1.5, "1": -2.0}
    assert record["point"] is None


def test_subset_keys_are_ascending_index_lists():
    rng = np.random.default_rng(0)
    index = random_index(rng, 4, 3)
    record = index_to_record(index)
    assert "0,1,2" in record["values"]
    assert all("," not in k or k.split(",") == sorted(k.split(","), key=int)
               for k in record["values"])


def test_round_trip_exact_to_the_bit():
    rng = np.random.default_rng(1)
    indices = [random_index(rng, d, o) for d in (1, 3, 5) for o in (1, d)]
    text = dumps_records(indices)
    back = loads_records(text)
    assert len(back) == len(indices)
    for a, b in zip(indices, back):
        assert a.dim == b.dim and a.order == b.order
        assert a.baseline == b.baseline
        assert np.array_equal(a.values, b.values)  # exact float equality
        assert np.array_equal(a.point, b.point)
        assert a.provenance == b.provenance
        assert type(a) is type(b)


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    indices = [random_index(rng, 4, 2)]
    path = tmp_path / "results.json"
    write_records(indices, path)
    back = read_records(path)
    assert np.array_equal(back[0].values, indices[0].values)
    # serialisation is deterministic
    first = path.read_bytes()
    write_records(indices, path)
    assert path.read_bytes() == first


def test_gnarly_floats_survive():
    values = {
        0b01: 0.1,
        0b10: -1.2345678901234567e-300,
        0b11: 9.007199254740993e15,
    }
    index = InteractionIndex(
        dim=2, order=2, baseline=3.3333333333333335, values=scatter(2, values)
    )
    back = loads_records(dumps_records([index]))[0]
    assert np.array_equal(back.values, scatter(2, values))
    assert back.baseline == 3.3333333333333335


def test_unknown_record_keys_rejected():
    record = index_to_record(
        InteractionIndex(dim=1, order=1, baseline=0.0, values=np.zeros(2))
    )
    record["bogus"] = 1
    with pytest.raises(ValueError, match="unknown record keys"):
        record_to_index(record)


def test_document_must_be_an_array():
    with pytest.raises(ValueError, match="JSON array"):
        loads_records(json.dumps({"dim": 1}))


def test_full_order_records_come_back_as_decompositions():
    table = ValueTable(SubsetTable(2, [0.0, 1.0, 2.0, 4.0]), np.array([0.5, 0.5]))
    gam = shapley_gam(table)
    back = loads_records(dumps_records([gam]))[0]
    assert isinstance(back, ShapleyGam)
    assert back.prediction() == gam.prediction()


def order_one_record(values: dict, dim: int = 2, **fields) -> dict:
    return {"dim": dim, "order": 1, "baseline": 0.0, "point": None,
            "provenance": "direct", "values": values, **fields}


def test_canonical_order_one_record_loads():
    index = record_to_index(order_one_record({"0": 1.0, "1": 3.0}))
    assert index.value(0b01) == 1.0 and index.value(0b10) == 3.0


def test_non_canonical_key_cannot_shadow_a_subset():
    # "01" also parses as feature 1; it must not overwrite or drop the value under "1"
    with pytest.raises(ValueError, match="not canonical"):
        record_to_index(order_one_record({"0": 1.0, "1": 2.0, "01": 3.0}))


def test_oversized_dimension_rejected_before_allocation():
    # a complete order-1 record, but its dense array would take 2**40 floats
    singles = {str(i): 1.0 for i in range(40)}
    with pytest.raises(ValueError, match="dim <= 24"):
        record_to_index(order_one_record(singles, dim=40))


def test_missing_subset_rejected():
    with pytest.raises(ValueError, match="every subset"):
        record_to_index(order_one_record({"0": 1.0}))


def test_unknown_provenance_rejected():
    with pytest.raises(ValueError, match="provenance"):
        record_to_index(order_one_record({"0": 1.0, "1": 2.0}, provenance="bogus"))


def test_repeated_key_in_a_document_rejected():
    text = '[{"dim": 2, "order": 1, "baseline": 0.0, "values": {"0": 1.0, "1": 2.0, "1": 3.0}}]'
    with pytest.raises(ValueError, match="repeats a key"):
        loads_records(text)
