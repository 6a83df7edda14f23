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
to a text handle as it comes, its entries ``_CHUNK`` at a time. Keys
come from a numpy bytes table (``subset_keys``) indexed by rank, which
holds only the coalitions of the order it was built for: an order-2
record at d=22 takes 253 keys, not 2**22 slots. The first record of a
dimension builds its order's table; a later, larger order of that
dimension builds the table of every coalition once, and each later
record of the dimension takes its ranks from it. Values are
formatted by ``float.__repr__`` alone, once per distinct bit pattern in
a chunk, and a value whose bits equal the previous record's value at
the same mask reuses that record's text: the orders of one point share
most of their values. Entries are assembled with ``np.strings.add`` and
joined once per chunk. ``emit_records`` writes exactly the bytes of
``json.dumps(records, indent=2, allow_nan=False) + "\\n"``. What a
record promises (finite numbers, a known provenance) is checked once,
by the ``InteractionIndex`` constructor, which ``record_to_index`` also
builds through.

A writer called with ``continued=True`` writes the records of the
middle of a document: each after the separator that follows a record,
with no opening or closing bracket and no CSV header. What it wrote,
handed to a writer as a ``WrittenPart`` item, is copied into that
writer's document as it is, so records formatted elsewhere (by another
process) continue the records before them.

``results_file`` gives the handle through which a results file is
written whole or not at all.
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import math
import os
import shutil
import stat
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .core import PROVENANCE_DIRECT, InteractionIndex, ShapleyGam
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
    "WrittenPart",
]

_RECORD_KEYS = {"dim", "order", "baseline", "point", "provenance", "values"}


def subset_keys(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The coalitions of 1..``order`` members below ``2**dim``, and their keys.

    Returns the masks, ascending, and at the same rank each mask's
    canonical key as ASCII bytes; nothing is held for the masks above
    ``order``. Built by doubling: the coalitions with bit i set are the
    earlier ones of fewer than ``order`` members with ``i`` appended, so
    no mask is decoded bit by bit. The bytes width is that of the longest
    key, the one listing the ``order`` highest features.
    """
    top = range(max(dim - order, 0), dim)
    width = max(1, sum(len(str(i)) for i in top) + len(top) - 1)
    count = sum(math.comb(dim, k) for k in range(min(order, dim) + 1))
    masks = np.zeros(count, dtype=np.int64)
    sizes = np.zeros(count, dtype=np.int64)
    keys = np.zeros(count, dtype=f"S{width}")
    n = 1  # rank 0 is the empty coalition
    for i in range(dim):
        grow = np.flatnonzero(sizes[:n] < order)
        end = n + grow.size
        tail = str(i).encode()
        np.strings.add(keys[grow], b"," + tail, out=keys[n:end])
        keys[n] = tail  # grown from the empty coalition
        masks[n:end] = masks[grow] | 1 << i
        sizes[n:end] = sizes[grow] + 1
        n = end
    return masks[1:], keys[1:]


# Entries written per join: a d=16 record's 65k entries go out in a few
# short strings, never one list and one string of the whole record.
_CHUNK = 8192
# The longest float repr, '-2.2250738585072014e-308', has 24 characters.
_TEXT = "S24"


def _repr_floats(values: np.ndarray) -> list[str]:
    return list(map(float.__repr__, values.tolist()))


class _Entries:
    """The keys and value texts of each record, for the records of one writer call.

    ``float.__repr__`` formats each distinct bit pattern of a chunk once.
    A value whose bits equal the previous record's value at the same
    mask takes that record's text instead. Keys come from the last
    ``subset_keys`` table of the record's dimension when it covers the
    record's order.
    """

    def __init__(self):
        self._table = (0, 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype="S1"))
        self._masks = np.zeros(0, dtype=np.int64)
        self._bits = np.zeros(0, dtype=np.uint64)
        self._texts = np.zeros(0, dtype=_TEXT)

    def _keys(self, dim: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The covered masks, their ranks in the key table, and the key table."""
        last_dim, built, masks, keys = self._table
        if last_dim != dim or built < order:
            # a second, larger order of one dimension builds every key of it, once
            built = dim if last_dim == dim else order
            masks, keys = subset_keys(dim, built)
            self._table = (dim, built, masks, keys)
        if built == order:
            return masks, np.arange(masks.size), keys
        ranks = np.flatnonzero(np.bitwise_count(masks) <= order)
        return masks[ranks], ranks, keys

    def chunks(self, index: InteractionIndex) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(keys, value texts) of ``index``'s coalitions, ascending by mask, a chunk at a time."""
        masks, ranks, keys = self._keys(index.dim, index.order)
        bits = index.values[masks].view(np.uint64)
        texts = np.empty(masks.size, dtype=_TEXT)
        for start in range(0, masks.size, _CHUNK):
            part = slice(start, start + _CHUNK)
            self._format(masks[part], bits[part], texts[part])
            yield keys[ranks[part]], texts[part]
        self._masks, self._bits, self._texts = masks, bits, texts

    def _format(self, masks: np.ndarray, bits: np.ndarray, out: np.ndarray) -> None:
        fresh = np.ones(masks.size, dtype=bool)
        if self._masks.size:
            at = np.minimum(np.searchsorted(self._masks, masks), self._masks.size - 1)
            fresh = (self._masks[at] != masks) | (self._bits[at] != bits)
            out[~fresh] = self._texts[at[~fresh]]
        distinct, inverse = np.unique(bits[fresh], return_inverse=True)
        out[fresh] = np.array(_repr_floats(distinct.view(np.float64)), dtype=_TEXT)[inverse]


def _write_entries(fh: TextIO, chunks, lead: bytes, mid: bytes, sep: bytes) -> None:
    """Write ``lead + key + mid + text`` per entry, ``sep`` between them, a chunk at a time."""
    for n, (keys, texts) in enumerate(chunks):
        lines = np.strings.add(np.strings.add(np.strings.add(lead, keys), mid), texts)
        if n:
            fh.write(sep.decode("ascii"))
        fh.write(sep.join(lines.tolist()).decode("ascii"))


# Bytes a read takes when a written part cannot be sent file to file.
_SPLICE_READ = 1 << 20


@dataclass(frozen=True)
class WrittenPart:
    """Records a writer called with ``continued=True`` wrote into ``file``.

    ``file`` is an open binary file; its bytes from offset 0 are copied
    into the document where the part stands among the items, after at
    least one record. Into a handle on a file they go by ``os.sendfile``,
    elsewhere in reads of at most 1 MiB, never as one string.
    """

    file: BinaryIO


def _splice(part: WrittenPart, fh: TextIO) -> None:
    source = part.file.fileno()
    size = os.fstat(source).st_size
    try:
        target = fh.fileno()
    except (AttributeError, io.UnsupportedOperation):  # a StringIO
        target = None
    if target is not None:
        fh.flush()
        offset = 0
        try:
            while offset < size:
                sent = os.sendfile(target, source, offset, size - offset)
                if not sent:
                    raise OSError(errno.EIO, "a written part ended before its size")
                offset += sent
            return
        except OSError as exc:  # a target sendfile cannot write to takes reads
            if offset or exc.errno not in (errno.EINVAL, errno.ENOSYS):
                raise
    part.file.seek(0)
    while chunk := part.file.read(_SPLICE_READ):
        fh.write(chunk.decode("ascii"))


def _emit_record(index: InteractionIndex, entries: _Entries, fh: TextIO) -> None:
    if index.point is None:
        point = "null"
    else:
        items = ",\n".join("      " + repr(v) for v in index.point.tolist())
        point = "[\n" + items + "\n    ]"
    fh.write(
        f'  {{\n    "dim": {index.dim},\n    "order": {index.order},\n'
        f'    "baseline": {index.baseline!r},\n    "point": {point},\n'
        f'    "provenance": {json.dumps(index.provenance)},\n    "values": {{\n'
    )
    _write_entries(fh, entries.chunks(index), b'      "', b'": ', b",\n")
    fh.write("\n    }\n  }")


def emit_records(
    indices: Iterable[InteractionIndex | WrittenPart], fh: TextIO, continued: bool = False
) -> None:
    """Write the JSON array of ``indices``' records to ``fh``, one record at a time.

    A ``WrittenPart`` among them is copied in as it is. With
    ``continued``, write only the records, each after ``,\\n``: they
    continue an array whose first record is written elsewhere.
    """
    entries = _Entries()
    separator = ",\n" if continued else "[\n"
    for index in indices:
        if isinstance(index, WrittenPart):
            _splice(index, fh)
            continue
        fh.write(separator)
        _emit_record(index, entries, fh)
        separator = ",\n"
    if not continued:
        fh.write("[]\n" if separator == "[\n" else "\n]\n")  # json.dumps writes no records as []


def _json_integer(value, where: str) -> int:
    if type(value) is not int:  # not a bool, not a float such as 2.0
        raise ValueError(f"record {where} must be a JSON integer, got {value!r}")
    return value


def _json_numbers(values: list, where: str) -> list:
    """``values`` when each is a JSON number: an int or float, not a bool or a string."""
    kinds = set(map(type, values))
    wrong = {kind for kind in kinds if kind is bool or not issubclass(kind, (int, float))}
    if wrong:
        bad = next(v for v in values if type(v) in wrong)
        raise ValueError(f"record {where} must hold JSON numbers, got {bad!r}")
    return values


def record_to_index(record: dict) -> InteractionIndex:
    unknown = set(record) - _RECORD_KEYS
    if unknown:
        raise ValueError(f"unknown record keys: {sorted(unknown)}")
    dim = _json_integer(record["dim"], "dim")
    order = _json_integer(record["order"], "order")
    if not 1 <= order <= dim <= MAX_DIM:
        raise ValueError(
            f"record needs 1 <= order <= dim <= {MAX_DIM}, got order={order}, dim={dim}"
        )
    covered, keys = subset_keys(dim, order)
    mask_of = dict(zip(keys.astype(str).tolist(), covered.tolist()))
    mask_of[""] = 0  # the empty set's key: canonical, but no record holds it
    try:
        masks = list(map(mask_of.__getitem__, record["values"]))
    except KeyError as exc:
        raise ValueError(
            f"bad subset key {exc.args[0]!r}: not canonical, a key is the comma-joined "
            f"ascending feature indices below dim={dim}"
        ) from None
    if len(masks) != covered.size or 0 in masks:
        raise ValueError(
            f"record of dim={dim}, order={order} must hold every subset of size "
            f"1..{order} exactly once"
        )
    values = np.zeros(1 << dim)
    values[masks] = _json_numbers(list(record["values"].values()), "values")
    point = record.get("point")
    if point is not None and not isinstance(point, list):
        raise ValueError(f"record point must be a list of JSON numbers or null, got {point!r}")
    cls = ShapleyGam if order == dim else InteractionIndex
    return cls(
        dim=dim,
        order=order,
        baseline=_json_numbers([record["baseline"]], "baseline")[0],
        values=values,
        point=point if point is None else _json_numbers(point, "point"),
        provenance=record.get("provenance", PROVENANCE_DIRECT),
    )


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


def emit_csv(
    labelled: Iterable[tuple[int, InteractionIndex | WrittenPart]],
    fh: TextIO,
    continued: bool = False,
) -> None:
    """Write ``(point, index)`` pairs as the flat ``point,order,set,value`` table.

    Each index gives one line for its baseline (set ``""``) and one per
    covered coalition; a ``WrittenPart`` is copied in as it is. With
    ``continued`` the header line is left out.
    """
    entries = _Entries()
    if not continued:
        fh.write("point,order,set,value\n")
    for point_id, index in labelled:
        if isinstance(index, WrittenPart):
            _splice(index, fh)
            continue
        head = f'{point_id},{index.order},"'
        fh.write(f'{head}",{index.baseline!r}\n')
        _write_entries(fh, entries.chunks(index), head.encode("ascii"), b'",', b"\n")
        fh.write("\n")


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
