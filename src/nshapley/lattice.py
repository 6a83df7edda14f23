"""Feature subsets as bitmasks and transforms over the coalition lattice.

A subset S of the features 0..d-1 is an integer mask with bit i set iff
feature i is in S. Dense tables over all 2**d subsets are the working
representation everywhere: at d <= 16 a table is at most 512 KiB of
float64 and wins on locality over any sparse map. The dimension is hard
capped at 24.

The Moebius transform, out[S] = alternating sum (-1)^(|S|-|L|) in[L]
over L subset of S, turns a value table into its per-subset components;
the engine runs it as the kernel ``_kernels.moebius_subsets``. Its
inverse, the cumulative subset sum, is the kernel
``_kernels.zeta_subsets``. Both run in O(d * 2**d) using an in-place
sweep over bit positions 0..d-1. The sweep order is fixed, so results
are bit-identical across runs. ``moebius_transform`` wraps the kernel for a
``SubsetTable``; it is a helper for tests and benchmarks, not a step of
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "MAX_DIM",
    "NonFiniteValue",
    "SubsetTable",
    "popcount",
    "mask_from_indices",
    "subset_key",
    "moebius_transform",
]

MAX_DIM = 24


def popcount(mask: int) -> int:
    """Cardinality of the subset encoded by ``mask``."""
    return int(mask).bit_count()


def mask_from_indices(indices) -> int:
    """Bitmask of a collection of 0-based feature indices."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)  # a negative index raises ValueError
    return mask


def subset_key(mask: int) -> str:
    """Human/JSON key for a subset: comma-joined ascending indices, e.g. "0,2,3"."""
    m = int(mask)
    return ",".join(str(i) for i in range(m.bit_length()) if m >> i & 1)


class NonFiniteValue(ValueError):
    """A table over the subsets holds a NaN or infinite entry; ``subset`` is the lowest such mask."""

    def __init__(self, subset: int, value: float):
        self.subset = int(subset)
        super().__init__(
            f"value on subset {{{subset_key(subset)}}} is not finite ({value!r})"
        )


def frozen(values, shape: tuple[int, ...] | None = None, name: str = "array") -> np.ndarray:
    """A read-only C-contiguous float64 copy of ``values``, of ``shape`` if one is given."""
    out = np.array(values, dtype=np.float64, order="C")
    if shape is not None and out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    out.flags.writeable = False
    return out


def checked_table(dim: int, values) -> np.ndarray:
    """The frozen copy of a table over all 2**dim subsets; a NaN or infinite
    entry raises ``NonFiniteValue`` naming the lowest such subset."""
    if not 0 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [0, {MAX_DIM}], got {dim}")
    out = frozen(values, (1 << dim,), f"a table for dim={dim}")
    finite = np.isfinite(out)
    if not finite.all():
        lowest = int(np.argmin(finite))
        raise NonFiniteValue(lowest, float(out[lowest]))
    return out


def checked_point(dim: int, point) -> np.ndarray:
    """The frozen copy of an explained point of ``dim`` coordinates, all finite."""
    out = frozen(point, (dim,), "point")
    if not np.isfinite(out).all():
        raise ValueError("point coordinates must be finite")
    return out


@dataclass(frozen=True)
class SubsetTable:
    """Dense float64 table over all 2**dim subsets, immutable after construction."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", checked_table(self.dim, self.values))


def moebius_transform(table: SubsetTable) -> SubsetTable:
    """Alternating-sign inversion: out[S] = sum_{L subset S} (-1)^(|S|-|L|) table[L].

    Turns a cumulative subset table (a value table) into its per-subset
    components. Exact inverse of the cumulative subset sum
    ``_kernels.zeta_subsets``. A test and benchmark helper: ``core``
    calls ``_kernels.moebius_subsets`` directly.
    """
    return SubsetTable(table.dim, _kernels.moebius_subsets(table.values, table.dim))
