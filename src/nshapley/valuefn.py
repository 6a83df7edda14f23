"""Value functions v(x, S) and dense per-point value tables.

A value function says what the model is expected to output when only
the coalition S of features is pinned to the explained point x. Every
instance here is subset-compliant: the result depends on no coordinate
of x outside S, which is exactly what makes the downstream alternating
subset sums produce a well-defined functional decomposition.

A value function is used only as its dense table: ``batch_evaluate(x)``
returns v(x, S) for all 2**d masks S at once, indexed by mask, and
``build_value_table`` checks and freezes that array. Three semantics
are provided:

* interventional: average f over the background rows with the S
  columns overwritten by x; 2**d * n_bg model rows per table, at most
  8,192 to a model call, or the sum over components of 2**|L| * n_bg
  rows for a ``ComponentMap``, whose components are evaluated on the
  columns they read,
* observational exact-match: empirical conditional mean of f over the
  data rows whose S columns compare equal (``==``) to x's, so -0.0
  matches 0.0 (discrete data only; when no row matches, that
  conditional is undefined and ``NoMatchingRows`` is raised rather than
  silently switching semantics mid-table); one mean per closed
  coalition, at most 2**d of them, plus an O(d * 2**d) integer sweep,
  and the table is the per-mask definition's to the last bit,
* decomposition-induced: cumulative sums of an additive model's own
  components, the canonical value function whose decomposition is
  those components themselves.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .lattice import MAX_DIM, NonFiniteValue, SubsetTable, frozen, subset_key
from .models import ComponentMap, PredictFn

__all__ = [
    "NoMatchingRows",
    "NonFiniteValue",
    "ValueTable",
    "ValueFunction",
    "InterventionalValueFunction",
    "ObservationalExactMatchValueFunction",
    "GamInducedValueFunction",
    "build_value_table",
    "as_background",
]


class NoMatchingRows(LookupError):
    """No data row agrees with the explained point on the requested subset."""

    def __init__(self, subset: int, detail: str = ""):
        self.subset = int(subset)
        msg = f"no rows match the explained point on subset {{{subset_key(subset)}}}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


def as_background(rows, dim: int) -> np.ndarray:
    """Coerce a background/reference sample to a nonempty (n, dim) float64 matrix."""
    arr = np.ascontiguousarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"background must be a nonempty 2-d matrix, got shape {arr.shape}")
    if arr.shape[1] != dim:
        raise ValueError(f"background has {arr.shape[1]} columns, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("background entries must be finite")
    return arr


def _as_point(point, dim: int) -> np.ndarray:
    arr = frozen(point, (dim,), "point")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


@dataclass(frozen=True)
class ValueTable:
    """All 2**dim coalition values for one explained point.

    The entry at the full mask equals the model prediction at the point
    (to float64 roundoff) for every value function in this module.
    """

    table: SubsetTable
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", _as_point(self.point, self.table.dim))

    @property
    def dim(self) -> int:
        return self.table.dim

    @property
    def values(self) -> np.ndarray:
        return self.table.values


class ValueFunction(abc.ABC):
    """Subset-compliant coalition valuation for a fixed model/background."""

    dim: int
    # rows per model call: no request to a model, external or in-process,
    # holds more, whatever d, n_bg or the number of data rows
    _TARGET_ROWS = 8192

    @abc.abstractmethod
    def batch_evaluate(self, point) -> np.ndarray:
        """Dense v(x, S) over all 2**dim masks S, indexed by mask."""


def build_value_table(value_fn: ValueFunction, point) -> ValueTable:
    """Evaluate every coalition for one point and freeze the dense table.

    Entries are always produced with the same per-entry summation order,
    so the result does not depend on batching or parallel scheduling.
    ``NoMatchingRows`` from the observational semantics propagates with
    the offending subset attached; a NaN or infinite entry raises
    ``NonFiniteValue`` naming the lowest such subset.
    """
    if value_fn.dim > MAX_DIM:
        raise ValueError(f"dim {value_fn.dim} exceeds the hard cap of {MAX_DIM}")
    x = _as_point(point, value_fn.dim)
    return ValueTable(SubsetTable(value_fn.dim, value_fn.batch_evaluate(x)), x)


def _predict(model: PredictFn, rows: np.ndarray, call_rows: int) -> np.ndarray:
    """``model.predict_batch(rows)``, at most ``call_rows`` rows a call, in row order."""
    return np.concatenate([
        model.predict_batch(rows[start : start + call_rows])
        for start in range(0, rows.shape[0], call_rows)
    ])


# ---------------------------------------------------------------------------
# Interventional semantics
# ---------------------------------------------------------------------------


def _mask_bits(masks: np.ndarray, dim: int) -> np.ndarray:
    return (masks[:, None] >> np.arange(dim)) & 1


class InterventionalValueFunction(ValueFunction):
    """Average of f over the background with the S columns forced to x.

    Rows are used in full and averaged in row order, so repeated calls
    are reproducible byte for byte.

    Cost: a generic model is evaluated on 2**d * n_bg hybrid rows, in
    calls of at most ``_TARGET_ROWS`` (8,192) rows: whole masks' rows
    when n_bg fits, else one mask's rows in pieces. So no external
    request exceeds 8,192 rows, and the hybrid matrix holds at most
    max(8,192, n_bg) rows, whatever d. Each entry is the mean of the
    same n_bg predictions whatever the call size.

    A ``ComponentMap`` is evaluated one component at a time: a
    component on L reads only S & L, so it needs just its 2**|L| * n_bg
    reduced rows, the sum over components of 2**|L| * n_bg rows in all.
    Its entries are then summed over the components and averaged over
    the background in the generic route's order, so both routes give
    bit-identical tables. A map whose reduced tables would exceed
    ``_TABLE_ROWS`` rows takes the generic route.
    """

    # the ComponentMap route evaluates components and gathers the table
    # in blocks of about this many (mask, background row) elements
    _GATHER_ROWS = 65536
    # the reduced tables are held whole while the table is gathered;
    # this caps them at 32 MiB.
    _TABLE_ROWS = 1 << 22

    def __init__(self, model: PredictFn, background):
        self.model = model
        self.background = frozen(as_background(background, model.dim))
        self.dim = model.dim

    def _hybrid(self, x: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Rows (mask, background row), mask-major: mask bits from x, the rest from the row."""
        bits = _mask_bits(masks, self.dim).astype(bool)
        return np.where(
            bits[:, None, :], x[None, None, :], self.background[None, :, :]
        ).reshape(-1, self.dim)

    def batch_evaluate(self, point) -> np.ndarray:
        x = _as_point(point, self.dim)
        size = 1 << self.dim
        n_bg = self.background.shape[0]
        model = self.model
        if isinstance(model, ComponentMap) and (
            n_bg * sum(1 << len(c.features) for c in model.components) <= self._TABLE_ROWS
        ):
            return self._additive_table(x, model.components, max(1, self._GATHER_ROWS // n_bg))
        chunk = max(1, self._TARGET_ROWS // n_bg)
        out = np.empty(size)
        for start in range(0, size, chunk):
            masks = np.arange(start, min(start + chunk, size), dtype=np.int64)
            preds = _predict(model, self._hybrid(x, masks), self._TARGET_ROWS)
            out[start : start + masks.size] = preds.reshape(masks.size, n_bg).mean(axis=1)
        return out

    def _additive_table(self, x: np.ndarray, components, chunk: int) -> np.ndarray:
        """The table of a sum of components, from one reduced table per component.

        Row (T, b) of the table of a component on L is its value on the
        hybrid row for mask T inside L and background row b, which is
        its value on the hybrid row for any S with S & L == T. The
        gather adds these into a zeroed (masks, n_bg) block in
        ``predict_batch`` order and takes the same row means, so every
        float operation is the generic route's.
        """
        size = 1 << self.dim
        n_bg = self.background.shape[0]
        tables = []
        for comp in components:
            feats = np.array(comp.features, dtype=np.int64)
            weights = np.int64(1) << np.arange(feats.size, dtype=np.int64)
            # T for each local index t: bit j of t is feature feats[j]
            local = np.arange(1 << feats.size, dtype=np.int64)
            subsets = _mask_bits(local, feats.size) @ (np.int64(1) << feats)
            values = np.empty(subsets.size * n_bg)
            for start in range(0, subsets.size, chunk):
                part = subsets[start : start + chunk]
                values[start * n_bg : (start + part.size) * n_bg] = comp.evaluate(
                    self._hybrid(x, part)
                )
            tables.append((feats, weights, values.reshape(subsets.size, n_bg)))
        out = np.empty(size)
        for start in range(0, size, chunk):
            masks = np.arange(start, min(start + chunk, size), dtype=np.int64)
            acc = np.zeros((masks.size, n_bg))
            for feats, weights, values in tables:
                acc += values[((masks[:, None] >> feats) & 1) @ weights]
            out[start : start + masks.size] = acc.mean(axis=1)
        return out


# ---------------------------------------------------------------------------
# Observational exact-match semantics
# ---------------------------------------------------------------------------


class ObservationalExactMatchValueFunction(ValueFunction):
    """Empirical conditional mean of f given exact agreement with x on S.

    Only meaningful for discrete-valued features. A row matches S when
    its S columns compare equal (``==``) to x's, so -0.0 matches 0.0.
    The empty coalition yields the global mean of f over the data.

    Cost: f is evaluated once per data row, at construction, in calls of
    at most ``_TARGET_ROWS`` rows. A table takes one mean over the data
    per closed coalition (one that equals the AND of the agreement masks
    of the rows it matches), at most 2**d of them, plus an O(d * 2**d)
    integer sweep that finds each mask's closure. Every entry is the
    ``np.mean`` of the same rows in the same order as the per-mask
    definition, so the table is the same to the last bit.
    """

    def __init__(self, model: PredictFn, data):
        self.model = model
        self.data = frozen(as_background(data, model.dim))
        self.dim = model.dim
        # f evaluated once per data row; every conditional reuses these.
        self._predictions = np.asarray(
            _predict(model, self.data, self._TARGET_ROWS), dtype=np.float64
        )

    def batch_evaluate(self, point) -> np.ndarray:
        """The mean over the matching rows, in row order, for each mask.

        The rows matching S are exactly the rows matching its closure,
        the AND of their agreement masks, so only closed masks take a
        mean; every other entry is copied from its closure's.

        Raises ``NoMatchingRows`` for the lowest mask no row matches.
        """
        x = _as_point(point, self.dim)
        # bit j of agree[r] is set iff row r equals x in column j
        agree = (self.data == x) @ (1 << np.arange(self.dim, dtype=np.int64))
        # closure[S]: AND of the agreement masks that contain S, -1 if none does
        closure = np.full(1 << self.dim, -1, dtype=np.int64)
        closure[agree] = agree
        for i in range(self.dim):
            view = closure.reshape(-1, 2, 1 << i)
            view[:, 0, :] &= view[:, 1, :]
        missing = np.flatnonzero(closure < 0)
        if missing.size:
            raise NoMatchingRows(int(missing[0]))
        out = np.empty(1 << self.dim)
        for mask in np.flatnonzero(closure == np.arange(closure.size)):
            out[mask] = np.mean(self._predictions[(agree & mask) == mask])
        return out[closure]


# ---------------------------------------------------------------------------
# Decomposition-induced semantics
# ---------------------------------------------------------------------------


class GamInducedValueFunction(ValueFunction):
    """The canonical value function of an additive model's decomposition.

    Its dense table is the cumulative-subset-sum transform of the
    model's pointwise component table, so inverting the table recovers
    the model's components exactly.
    """

    def __init__(self, components: ComponentMap):
        self.components = components
        self.dim = components.dim

    def batch_evaluate(self, point) -> np.ndarray:
        x = _as_point(point, self.dim)
        table = self.components.component_table(x)
        return _kernels.zeta_subsets(table, self.dim)
