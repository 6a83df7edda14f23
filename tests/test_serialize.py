"""Result records round-trip to full float precision."""

import json

import numpy as np
import pytest

from _exact_oracle import oracle_csv, oracle_key, oracle_record, scatter
from nshapley import _kernels, serialize
from nshapley.core import InteractionIndex, ShapleyGam, shapley_gam
from nshapley.lattice import SubsetTable
from nshapley.serialize import (
    dumps_csv,
    dumps_records,
    loads_records,
    read_records,
    record_to_index,
    subset_keys,
    write_records,
)
from nshapley.valuefn import ValueTable


def assert_same_text(actual: str, expected: str):
    """``assert actual == expected`` that reports a mismatch by its first differing offset.

    pytest's own diff of two multi-megabyte strings takes minutes.
    """
    if actual == expected:
        return
    lo, hi = 0, min(len(actual), len(expected))  # bisect the common prefix
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if actual[:mid] == expected[:mid]:
            lo = mid
        else:
            hi = mid - 1
    window = slice(max(lo - 40, 0), lo + 40)
    pytest.fail(
        f"texts differ at offset {lo} (lengths {len(actual)} and {len(expected)}):\n"
        f"  actual   {actual[window]!r}\n  expected {expected[window]!r}",
        pytrace=False,
    )


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
    record = oracle_record(index)
    assert record["dim"] == 2
    assert record["order"] == 1
    assert record["baseline"] == 0.25
    assert record["values"] == {"0": 1.5, "1": -2.0}
    assert record["point"] is None


def test_subset_keys_are_ascending_index_lists():
    rng = np.random.default_rng(0)
    index = random_index(rng, 4, 3)
    record = oracle_record(index)
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
    record = oracle_record(
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


def test_subset_keys_load_to_their_masks():
    keys = {oracle_key(mask, 4): float(mask) for mask in range(1, 16)}
    index = record_to_index(order_one_record(keys, dim=4, order=4))
    assert index.value(0b1101) == keys["0,2,3"] == 13.0
    assert index.values.tolist() == list(map(float, range(16)))
    # "" is the empty set's key, and a record never holds the empty set
    with pytest.raises(ValueError, match="every subset"):
        record_to_index(order_one_record({"": 0.0, "0": 1.0, "1": 2.0}))


def test_bad_subset_keys_are_rejected():
    bad = [("2,1", 4), ("0,0", 4), ("0,9", 4), ("a", 4)]  # descending, repeated, out of range
    bad += [("01", 2), (" 1", 2), ("+1", 2), ("1_0", 12), ("0, 1", 2), ("-0", 2)]  # respellings
    for key, dim in bad:
        complete = {oracle_key(mask, dim): 1.0 for mask in range(1, 1 << dim)}
        with pytest.raises(ValueError, match="not canonical"):
            record_to_index(order_one_record({**complete, key: 2.0}, dim=dim, order=dim))


def test_oversized_dimension_rejected_before_allocation():
    # a complete order-1 record, but its dense array would take 2**40 floats
    singles = {str(i): 1.0 for i in range(40)}
    with pytest.raises(ValueError, match="dim <= 24"):
        record_to_index(order_one_record(singles, dim=40))


def test_missing_subset_rejected():
    with pytest.raises(ValueError, match="every subset"):
        record_to_index(order_one_record({"0": 1.0}))


def test_unknown_provenance_rejected():
    values = scatter(2, {1: 1.0, 2: 2.0})
    for provenance in ("bogus", 7, None, "Direct"):
        with pytest.raises(ValueError, match="unknown provenance"):
            InteractionIndex(dim=2, order=1, baseline=0.5, values=values, provenance=provenance)
        with pytest.raises(ValueError, match="unknown provenance"):
            record_to_index(order_one_record({"0": 1.0, "1": 2.0}, provenance=provenance))


def test_repeated_key_in_a_document_rejected():
    text = '[{"dim": 2, "order": 1, "baseline": 0.0, "values": {"0": 1.0, "1": 2.0, "1": 3.0}}]'
    with pytest.raises(ValueError, match="repeats a key"):
        loads_records(text)


GNARLY = [-0.0, 5e-324, 1e16, 1e22, 1e-7, 0.1, 1.7976931348623157e308, -1.7976931348623157e308]


def gnarly_indices(seed):
    """Every order of every dim 1..10; each index holds as many GNARLY values as it has room for."""
    rng = np.random.default_rng(seed)
    out = []
    for dim in range(1, 11):
        for order in range(1, dim + 1):
            masks = [m for m in range(1, 1 << dim) if bin(m).count("1") <= order]
            values = rng.normal(size=len(masks)) * 10.0 ** rng.integers(-20, 20, len(masks))
            values[: len(GNARLY)] = GNARLY[: len(masks)]
            rng.shuffle(values)
            pool = np.concatenate([values, GNARLY])
            cls = ShapleyGam if order == dim else InteractionIndex
            out.append(cls(
                dim=dim,
                order=order,
                baseline=float(rng.choice(pool)),
                values=scatter(dim, dict(zip(masks, values.tolist()))),
                point=None if rng.random() < 0.5 else rng.choice(pool, size=dim),
                provenance="from-gam" if order < dim else "direct",
            ))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_writer_bytes_match_the_reference(seed):
    indices = gnarly_indices(seed)
    expected = json.dumps([oracle_record(ix) for ix in indices], indent=2, allow_nan=False)
    assert_same_text(dumps_records(indices), expected + "\n")
    assert_same_text(
        dumps_records(iter(indices[:3])),
        json.dumps([oracle_record(ix) for ix in indices[:3]], indent=2, allow_nan=False) + "\n",
    )


def test_empty_document():
    assert dumps_records([]) == json.dumps([], indent=2) + "\n" == "[]\n"
    assert loads_records(dumps_records([])) == []


@pytest.mark.parametrize("seed", [0, 1])
def test_csv_bytes_match_the_reference(seed):
    labelled = [(7 * i, ix) for i, ix in enumerate(gnarly_indices(seed))]
    assert_same_text(dumps_csv(labelled), oracle_csv(labelled))
    assert dumps_csv([]) == "point,order,set,value\n"


def test_records_of_several_writer_chunks_match_the_reference():
    dim = 15
    rng = np.random.default_rng(15)
    values = rng.normal(size=1 << dim) * 10.0 ** rng.integers(-20, 20, 1 << dim)
    values[rng.integers(1, 1 << dim, 8 * len(GNARLY))] = GNARLY * 8
    values[0] = 0.0
    pc = _kernels.popcount_table(dim)
    indices = [
        (ShapleyGam if order == dim else InteractionIndex)(
            dim=dim,
            order=order,
            baseline=-0.0,
            values=np.where(pc <= order, values, 0.0),
            point=rng.normal(size=dim),
        )
        for order in (1, 7, 8, dim)
    ]
    # 15 entries, then 16,383, 22,818 and 32,767: two, three and four chunks
    assert [-(-ix.masks().size // serialize._CHUNK) for ix in indices] == [1, 2, 3, 4]
    expected = json.dumps([oracle_record(ix) for ix in indices], indent=2, allow_nan=False)
    assert_same_text(dumps_records(indices), expected + "\n")
    labelled = list(enumerate(indices))
    assert_same_text(dumps_csv(labelled), oracle_csv(labelled))


def test_subset_key_table_is_the_canonical_key_of_each_mask():
    from nshapley.lattice import subset_key

    for dim in (0, 1, 5, 11):
        masks, keys = subset_keys(dim, dim)
        assert masks.tolist() == list(range(1, 1 << dim))
        assert keys.tolist() == [subset_key(mask).encode() for mask in range(1, 1 << dim)]


def test_low_order_key_table_makes_only_the_covered_keys():
    from nshapley.lattice import subset_key

    for dim, order in ((7, 1), (9, 3), (11, 2)):
        masks, keys = subset_keys(dim, order)
        covered = [m for m in range(1, 1 << dim) if bin(m).count("1") <= order]
        assert masks.tolist() == covered  # one slot per covered coalition, by rank
        assert keys.tolist() == [subset_key(mask).encode() for mask in covered]


@pytest.mark.parametrize("dim, order, longest", [(7, 1, 1), (22, 2, 5), (20, 10, 29)])
def test_subset_key_table_is_as_wide_as_its_longest_key(dim, order, longest):
    masks, keys = subset_keys(dim, order)
    assert keys.dtype.itemsize == longest
    assert max(map(len, keys.tolist())) == longest
    assert keys[-1] == ",".join(map(str, range(dim - order, dim))).encode()
    assert masks[-1] == ((1 << order) - 1) << (dim - order)


def test_low_order_record_at_a_high_dimension_writes_in_little_memory():
    import tracemalloc

    dim, order = 22, 2
    masks = [1 << i | 1 << j for i in range(dim) for j in range(i, dim)]  # sizes 1 and 2
    rng = np.random.default_rng(22)
    values = scatter(dim, dict(zip(masks, rng.normal(size=len(masks)).tolist())))
    index = InteractionIndex(dim=dim, order=order, baseline=0.5, values=values)
    tracemalloc.start()
    try:
        text = dumps_records([index])
        csv = dumps_csv([(0, index)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 253 entries, about 9 KB of text; the 2**22-slot array is the index's own
    assert peak < 24 * 2**20, peak / 2**20
    assert loads_records(text)[0].values.tobytes() == values.tobytes()
    assert csv.count("\n") == 1 + 1 + len(masks)


def formatted_count(monkeypatch) -> list[int]:
    """How many values the writers pass to ``float.__repr__``, one count per call."""
    counts = []
    real = serialize._repr_floats
    monkeypatch.setattr(
        serialize, "_repr_floats", lambda values: counts.append(values.size) or real(values)
    )
    return counts


def assert_both_writers_match(indices):
    expected = json.dumps([oracle_record(ix) for ix in indices], indent=2, allow_nan=False)
    assert_same_text(dumps_records(indices), expected + "\n")
    labelled = [(3 * i, ix) for i, ix in enumerate(indices)]
    assert_same_text(dumps_csv(labelled), oracle_csv(labelled))


def test_a_value_repeated_at_its_mask_reuses_the_previous_records_text(monkeypatch):
    counts = formatted_count(monkeypatch)
    values = scatter(3, {1: 0.1, 2: 0.1, 4: -2.5, 3: 1e-300, 5: 7.0})
    first = InteractionIndex(dim=3, order=2, baseline=0.0, values=values)
    again = InteractionIndex(dim=3, order=2, baseline=1.0, values=values.copy())
    assert_both_writers_match([first, again])
    # per writer: the first record's distinct bit patterns (0.0 at mask 6 too), then none
    assert counts == [5, 0] * 2


def test_a_changed_bit_pattern_at_its_mask_is_formatted_again(monkeypatch):
    counts = formatted_count(monkeypatch)
    base = scatter(2, {1: 0.1, 2: 0.0, 3: 0.3})
    ulp = base.copy()
    ulp[1] = np.nextafter(0.1, 1.0)  # 0.10000000000000002
    signed = base.copy()
    signed[2] = -0.0  # equal to 0.0, but not the same text
    indices = [
        InteractionIndex(dim=2, order=2, baseline=0.0, values=v) for v in (base, ulp, signed)
    ]
    assert_both_writers_match(indices)
    # per writer: the ulp record formats mask 1 again, the signed one masks 1 and 2
    assert counts == [3, 1, 2] * 2
    text = dumps_records(indices)
    assert '"0": 0.10000000000000002' in text and '"1": -0.0' in text


def test_records_of_mixed_dims_and_orders_interleave():
    rng = np.random.default_rng(5)
    shared = rng.normal(size=1 << 6)
    indices = []
    shapes = ((3, 1), (6, 6), (3, 3), (6, 2), (5, 4), (6, 4), (3, 2), (6, 1), (6, 6), (6, 3))
    for dim, order in shapes:
        pc = _kernels.popcount_table(6)[: 1 << dim]
        values = np.where((pc >= 1) & (pc <= order), shared[: 1 << dim], 0.0)
        cls = ShapleyGam if order == dim else InteractionIndex
        indices.append(cls(dim=dim, order=order, baseline=float(shared[0]), values=values))
    assert_both_writers_match(indices)
    back = loads_records(dumps_records(indices))
    assert [ix.values.tobytes() for ix in back] == [ix.values.tobytes() for ix in indices]


def test_the_longest_float_texts_are_written_whole():
    longest = [-2.2250738585072014e-308, -1.7976931348623157e308, 5e-324, -5e-324]
    assert max(len(repr(v)) for v in longest) == 24
    values = scatter(2, dict(zip((1, 2, 3), longest)))
    singles = scatter(2, dict(zip((1, 2), longest)))
    indices = [
        InteractionIndex(dim=2, order=2, baseline=longest[0], values=values, point=longest[:2]),
        InteractionIndex(dim=2, order=1, baseline=longest[1], values=singles),
    ]
    assert_both_writers_match(indices)
    back = loads_records(dumps_records(indices))
    assert back[0].values.tobytes() == values.tobytes()


@pytest.mark.parametrize("field", ["baseline", "point"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_baseline_or_point_is_rejected(field, bad):
    values = scatter(2, {1: 1.0, 2: 2.0})
    good = InteractionIndex(dim=2, order=1, baseline=0.5, values=values, point=[1.0, 2.0])
    fields = {"baseline": bad} if field == "baseline" else {"baseline": 0.5, "point": [1.0, bad]}
    # no writer is ever handed such an index: it cannot be built
    with pytest.raises(ValueError, match=field):
        InteractionIndex(dim=2, order=1, values=values, **fields)
    with pytest.raises(ValueError, match=field):
        ShapleyGam(dim=2, order=2, values=values, **fields)
    # json.loads reads NaN and Infinity; a record holding one is rejected on load
    record = oracle_record(good)
    record[field] = bad if field == "baseline" else [1.0, bad]
    with pytest.raises(ValueError, match=field):
        loads_records(json.dumps([record]))


def test_failed_write_keeps_the_previous_file(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "results.json"
    write_records([random_index(rng, 3, 2)], path)
    before = path.read_bytes()

    def failing():
        yield random_index(rng, 3, 1)
        raise RuntimeError("model failed")

    with pytest.raises(RuntimeError, match="model failed"):
        write_records(failing(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]


WRONGLY_TYPED = {
    "dim-float": ("dim", {"dim": 2.0}),
    "dim-fraction": ("dim", {"dim": 2.9}),
    "dim-bool": ("dim", {"dim": True}),
    "order-bool": ("order", {"order": True}),
    "order-float": ("order", {"order": 1.0}),
    "baseline-string": ("baseline", {"baseline": "0.5"}),
    "baseline-bool": ("baseline", {"baseline": False}),
    "baseline-null": ("baseline", {"baseline": None}),
    "value-string": ("values", {"values": {"0": "1.5", "1": 2.0}}),
    "value-bool": ("values", {"values": {"0": 1.5, "1": False}}),
    "point-string": ("point", {"point": [1.0, "2"]}),
    "point-bool": ("point", {"point": [True, 2.0]}),
    "point-not-a-list": ("point", {"point": "1,2"}),
}


@pytest.mark.parametrize("case", sorted(WRONGLY_TYPED))
def test_a_value_json_types_as_something_else_is_rejected(case):
    field, change = WRONGLY_TYPED[case]
    record = order_one_record({"0": 1.5, "1": 2.0}, point=[1.0, 2.0])
    assert record_to_index(record).value(0b01) == 1.5  # the record is valid before the change
    with pytest.raises(ValueError, match=field):
        record_to_index({**record, **change})
    with pytest.raises(ValueError, match=field):
        loads_records(json.dumps([{**record, **change}]))


def test_json_integers_and_floats_both_load_as_numbers():
    index = record_to_index(order_one_record({"0": 1, "1": 2.5}, baseline=-3, point=[0, 1.5]))
    assert index.values[1:3].tolist() == [1.0, 2.5]
    assert index.baseline == -3.0 and index.point.tolist() == [0.0, 1.5]



@pytest.mark.parametrize("field", ["values", "baseline", "point"])
def test_an_integer_too_large_for_a_float_is_a_value_error(field):
    record = order_one_record({"0": 1.5, "1": 2}, point=[0.5, 1])
    for digits, fits in ((300, True), (400, False)):  # 1 followed by that many zeros
        huge = 10**digits
        if field == "values":
            changed = {"values": {"0": 1.5, "1": huge}}
        else:
            changed = {field: -huge if field == "baseline" else [0.5, huge]}
        text = json.dumps([{**record, **changed}])
        if fits:
            index = loads_records(text)[0]
            loaded = {"values": index.values[2], "baseline": index.baseline, "point": index.point[1]}
            assert loaded[field] == (-1e300 if field == "baseline" else 1e300)
        else:
            with pytest.raises(ValueError, match=f"record {field} holds an integer too large"):
                loads_records(text)
