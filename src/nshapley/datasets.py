"""CSV ingestion for explanation runs."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .lattice import frozen

__all__ = ["Dataset", "DatasetError", "load_csv"]


class DatasetError(ValueError):
    """The CSV file does not describe a rectangular numeric dataset."""


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix with named columns and an optional label column."""

    columns: tuple[str, ...]
    rows: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        rows = frozen(self.rows)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise DatasetError("dataset needs at least one data row")
        if rows.shape[1] != len(self.columns):
            raise DatasetError("column names do not match the matrix width")
        if not np.all(np.isfinite(rows)):
            raise DatasetError("dataset values must be finite")
        object.__setattr__(self, "rows", rows)
        if self.labels is not None:
            labels = frozen(self.labels)
            if labels.shape != (rows.shape[0],):
                raise DatasetError("labels must align with data rows")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]


# Characters XML 1.0 cannot carry, not even as references; a column name
# holding one could not label a figure.
_NOT_XML = frozenset(
    chr(c) for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF)
)


def _utf8_lines(fh, path):
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Parse a headed UTF-8 CSV of finite decimal numbers.

    The first line names the columns. Parsing uses plain float literals
    and is locale independent. Ragged rows, non-numeric cells, bytes
    that are not UTF-8 and column names holding a character XML cannot
    carry (U+0000-U+0008, U+000B, U+000C, U+000E-U+001F, U+FFFE, U+FFFF)
    raise :class:`DatasetError` naming the file (and, for cells, the
    line and column; for names, the column's 1-based position). When
    ``label_column`` is given, that column is split out of the feature
    matrix and exposed as labels.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a header line") from None
        header = [name.strip() for name in header]
        for position, name in enumerate(header, start=1):
            if not _NOT_XML.isdisjoint(name):
                raise DatasetError(
                    f"{path}: column {position} of the header, {name!r}, holds a "
                    "control character or noncharacter that XML cannot carry"
                )
        if len(set(header)) != len(header):
            raise DatasetError(f"{path}: duplicate column names in header")
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise DatasetError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
        parsed: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for col_idx, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{path}: line {line_no}, column {header[col_idx]!r}: "
                        f"{cell!r} is not a number"
                    ) from None
                if not math.isfinite(value):
                    raise DatasetError(
                        f"{path}: line {line_no}, column {header[col_idx]!r}: "
                        f"{cell!r} is not finite"
                    )
                values.append(value)
            parsed.append(values)
    if not parsed:
        raise DatasetError(f"{path}: no data rows")
    matrix = np.array(parsed, dtype=np.float64)
    if label_idx is None:
        return Dataset(columns=tuple(header), rows=matrix)
    feature_cols = [i for i in range(len(header)) if i != label_idx]
    return Dataset(
        columns=tuple(header[i] for i in feature_cols),
        rows=matrix[:, feature_cols],
        labels=matrix[:, label_idx],
    )
