"""Round-trip JSON serialization of interaction indices.

One record per explained point and order:

    {"dim": d, "order": n, "baseline": v0, "point": [...],
     "provenance": "...", "values": {"0": ..., "0,2": ..., ...}}

Subset keys are comma-joined ascending 0-based feature indices in
exactly the form ``subset_key`` writes them (no spaces, signs, leading
zeros or underscores), and a record holds every subset of size
1..order once; anything else is rejected on load. Floats
are written in round-trip decimal form (up to 17 significant digits),
so parsing a results file back reproduces every value bit for bit.
A results file is a JSON array of such records.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .core import PROVENANCE_DIRECT, PROVENANCE_FROM_GAM, InteractionIndex, ShapleyGam
from .lattice import MAX_DIM, parse_subset_key, subset_key

__all__ = [
    "index_to_record",
    "record_to_index",
    "dumps_records",
    "loads_records",
    "write_records",
    "read_records",
]

_RECORD_KEYS = {"dim", "order", "baseline", "point", "provenance", "values"}


def index_to_record(index: InteractionIndex) -> dict:
    masks = index.masks()
    values = dict(zip(map(subset_key, masks.tolist()), index.values[masks].tolist()))
    return {
        "dim": index.dim,
        "order": index.order,
        "baseline": index.baseline,
        "point": None if index.point is None else index.point.tolist(),
        "provenance": index.provenance,
        "values": values,
    }


def record_to_index(record: dict) -> InteractionIndex:
    unknown = set(record) - _RECORD_KEYS
    if unknown:
        raise ValueError(f"unknown record keys: {sorted(unknown)}")
    dim = int(record["dim"])
    order = int(record["order"])
    if not 1 <= order <= dim <= MAX_DIM:
        raise ValueError(
            f"record needs 1 <= order <= dim <= {MAX_DIM}, got order={order}, dim={dim}"
        )
    provenance = record.get("provenance", PROVENANCE_DIRECT)
    if provenance not in (PROVENANCE_DIRECT, PROVENANCE_FROM_GAM):
        raise ValueError(f"unknown provenance {provenance!r}")
    masks = [parse_subset_key(key, dim) for key in record["values"]]
    values = np.zeros(1 << dim)
    values[masks] = [float(val) for val in record["values"].values()]
    point = record.get("point")
    cls = ShapleyGam if order == dim else InteractionIndex
    index = cls(
        dim=dim,
        order=order,
        baseline=float(record["baseline"]),
        values=values,
        point=None if point is None else np.asarray(point, dtype=np.float64),
        provenance=provenance,
    )
    if not np.array_equal(np.sort(masks), index.masks()):
        raise ValueError(
            f"record of dim={dim}, order={order} must hold every subset of size "
            f"1..{order} exactly once"
        )
    return index


def dumps_records(indices: Sequence[InteractionIndex]) -> str:
    records = [index_to_record(ix) for ix in indices]
    return json.dumps(records, indent=2, allow_nan=False) + "\n"


def _unique_keys(pairs: list) -> dict:
    out = dict(pairs)
    if len(out) != len(pairs):
        raise ValueError("a results record repeats a key")
    return out


def loads_records(text: str) -> list[InteractionIndex]:
    payload = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(payload, list):
        raise ValueError("a results document is a JSON array of records")
    return [record_to_index(rec) for rec in payload]


def write_records(indices: Sequence[InteractionIndex], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_records(indices))


def read_records(path) -> list[InteractionIndex]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_records(fh.read())
