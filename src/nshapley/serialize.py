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

The writers stream: ``emit_records`` and ``emit_csv`` write each record
to a text handle as it comes, its entries ``_CHUNK`` at a time, with
keys from one cached table per dimension (``subset_keys``).
``emit_records`` writes exactly the bytes of
``json.dumps(records, indent=2, allow_nan=False) + "\\n"``.
``results_file`` gives the handle through which a results file is
written whole or not at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import stat
from typing import Iterable, Iterator, TextIO

import numpy as np

from . import _kernels
from .core import PROVENANCE_DIRECT, PROVENANCE_FROM_GAM, InteractionIndex, ShapleyGam
from .lattice import MAX_DIM

__all__ = [
    "subset_keys",
    "record_to_index",
    "emit_records",
    "dumps_records",
    "loads_records",
    "write_records",
    "read_records",
    "emit_csv",
    "dumps_csv",
    "results_file",
]

_RECORD_KEYS = {"dim", "order", "baseline", "point", "provenance", "values"}


_last_keys: tuple[int, int, tuple[str | None, ...]] = (-1, 0, ())


def subset_keys(dim: int, order: int | None = None) -> tuple[str | None, ...]:
    """The canonical key of every mask below ``2**dim``, indexed by mask.

    Only masks of at most ``order`` members (all, by default) get a
    key; the others hold None. Built by doubling: the masks with bit i
    set are the earlier ones with ``i`` appended, so no mask is decoded
    bit by bit and no key beyond ``order`` is made. The last table is
    kept and serves every later call of its dimension that it covers;
    a call it does not cover builds the full table of that dimension,
    so a run over orders 1..d builds two tables, not d.
    """
    global _last_keys
    order = dim if order is None else order
    last_dim, last_order, keys = _last_keys
    if last_dim == dim:
        if last_order >= order:
            return keys
        order = dim  # a second, larger order of this dimension: make every key, once
    sizes = _kernels.popcount_table(dim).tolist()
    table = [""]
    for i in range(dim):
        tail = str(i)
        table += [
            None if size >= order else key + "," + tail if key else tail
            for key, size in zip(table, sizes)
        ]
    _last_keys = (dim, order, tuple(table))
    return _last_keys[2]


# Entries written per join: a d=16 record's 65k entries go out in a few
# short strings, never one list and one string of the whole record.
_CHUNK = 8192


def _entry_chunks(index: InteractionIndex) -> Iterator[Iterator[tuple[str, float]]]:
    """(key, value) of each covered coalition, ascending by mask, ``_CHUNK`` at a time."""
    keys = subset_keys(index.dim, index.order)
    masks = index.masks()
    for start in range(0, masks.size, _CHUNK):
        part = masks[start : start + _CHUNK]
        yield zip(map(keys.__getitem__, part.tolist()), index.values[part].tolist())


def _finite(value: float, field: str) -> str:
    if not math.isfinite(value):
        raise ValueError(f"record {field} is not finite ({value!r}); JSON holds finite numbers only")
    return float.__repr__(value)


def _emit_record(index: InteractionIndex, fh: TextIO) -> None:
    if index.point is None:
        point = "null"
    else:
        items = ",\n".join("      " + _finite(v, "point") for v in index.point.tolist())
        point = "[\n" + items + "\n    ]"
    fh.write(
        f'  {{\n    "dim": {index.dim},\n    "order": {index.order},\n'
        f'    "baseline": {_finite(index.baseline, "baseline")},\n    "point": {point},\n'
        f'    "provenance": {json.dumps(index.provenance)},\n    "values": {{\n'
    )
    separator = ""
    for chunk in _entry_chunks(index):
        fh.write(separator)
        fh.write(",\n".join([f'      "{key}": {value!r}' for key, value in chunk]))
        separator = ",\n"
    fh.write("\n    }\n  }")


def emit_records(indices: Iterable[InteractionIndex], fh: TextIO) -> None:
    """Write the JSON array of ``indices``' records to ``fh``, one record at a time.

    A non-finite baseline or point raises ``ValueError``, as
    ``json.dumps(..., allow_nan=False)`` does.
    """
    separator = "[\n"
    for index in indices:
        fh.write(separator)
        _emit_record(index, fh)
        separator = ",\n"
    fh.write("[]\n" if separator == "[\n" else "\n]\n")  # json.dumps writes no records as []


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
    keys = subset_keys(dim, order)
    mask_of = {key: mask for mask, key in enumerate(keys) if key is not None}
    try:
        masks = list(map(mask_of.__getitem__, record["values"]))
    except KeyError as exc:
        raise ValueError(
            f"bad subset key {exc.args[0]!r}: not canonical, a key is the comma-joined "
            f"ascending feature indices below dim={dim}"
        ) from None
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


def dumps_records(indices: Iterable[InteractionIndex]) -> str:
    buffer = io.StringIO()
    emit_records(indices, buffer)
    return buffer.getvalue()


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


def write_records(indices: Iterable[InteractionIndex], path) -> None:
    """Stream the records of ``indices`` into the results file ``path``."""
    with results_file(path) as fh:
        emit_records(indices, fh)


def read_records(path) -> list[InteractionIndex]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_records(fh.read())


def emit_csv(labelled: Iterable[tuple[int, InteractionIndex]], fh: TextIO) -> None:
    """Write ``(point, index)`` pairs as the flat ``point,order,set,value`` table.

    Each index gives one line for its baseline (set ``""``) and one per
    covered coalition.
    """
    fh.write("point,order,set,value\n")
    for point_id, index in labelled:
        head = f"{point_id},{index.order},"
        fh.write(f'{head}"",{index.baseline!r}\n')
        for chunk in _entry_chunks(index):
            fh.write("".join([f'{head}"{key}",{value!r}\n' for key, value in chunk]))


def dumps_csv(labelled: Iterable[tuple[int, InteractionIndex]]) -> str:
    buffer = io.StringIO()
    emit_csv(labelled, buffer)
    return buffer.getvalue()


@contextlib.contextmanager
def results_file(path) -> Iterator[TextIO]:
    """A text handle whose contents replace ``path`` only if the block completes.

    The text goes to a new, uniquely named file beside ``path``'s
    target (a symlink is followed and kept), and is removed on any
    exception, so a failed write leaves ``path`` as it was. On success
    a new path gets the file by rename; an existing regular file is
    rewritten in place from it, keeping its mode, owner and hard links.
    A path that exists but is not a regular file (a FIFO, a terminal,
    ``/dev/null``) cannot be replaced and is written straight through.
    ``OSError`` comes from opening (a directory at ``path`` fails here
    too) or from the final rename or copy.
    """
    path = os.fspath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):  # a directory fails to open here
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    # An existing file is opened (not truncated) first, so a file that
    # cannot be written fails before any work is done.
    with open(target, "ab") if mode is not None else contextlib.nullcontext() as dest:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                yield fh
            if dest is None:
                os.replace(tmp, target)
            else:
                dest.truncate(0)
                with open(tmp, "rb") as src:
                    shutil.copyfileobj(src, dest)
                os.remove(tmp)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
