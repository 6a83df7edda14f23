"""Hot numeric kernels over dense 2**dim subset tables.

The lattice sweeps are reproducible byte for byte because they perform
the same additions in the same per-bit order on every run.

Tables are 1-d contiguous float64 arrays of length ``2**dim`` indexed by
subset bitmask (bit i set <=> feature i in the subset).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "popcount_table",
    "spread_by_size",
    "zeta_subsets",
    "moebius_subsets",
    "zeta_supersets",
    "delta_weighted",
    "interp_multilinear",
]


@lru_cache(maxsize=1)
def popcount_table(dim: int) -> np.ndarray:
    """Bit-count of every mask below 2**dim, as a read-only uint8 array.

    The last dimension's table is kept and returned to every later call
    of that dimension. Its prefix ``[: 1 << f]`` is the table of any
    f <= dim, so code that needs a smaller one slices it rather than
    calling again with f.
    """
    out = np.bitwise_count(np.arange(1 << dim, dtype=np.uint32))
    out.flags.writeable = False
    return out


def spread_by_size(masks: np.ndarray, size: int) -> np.ndarray:
    """Every submask of each of ``masks``, which all have ``size`` members.

    Row i belongs to ``masks[i]``; its column p deposits the bits of p
    onto the mask's set-bit positions, lowest bit onto lowest position.
    Depositing keeps order, so each row lists its 2**size submasks in
    ascending order, and a column's submasks all have popcount(p)
    members.
    """
    out = np.zeros((masks.size, 1 << size), dtype=np.int64)
    rest = masks.astype(np.int64)
    for j in range(size):
        low = rest & -rest  # the mask's j-th lowest set bit
        np.bitwise_or(out[:, : 1 << j], low[:, None], out=out[:, 1 << j : 2 << j])
        rest ^= low
    return out


# ---------------------------------------------------------------------------
# Lattice sweeps. out length is 2**dim; the sweep order over bits 0..dim-1 is
# fixed so results are reproducible across runs.
# ---------------------------------------------------------------------------


def zeta_subsets(values: np.ndarray, dim: int) -> np.ndarray:
    out = values.copy()
    for i in range(dim):
        view = out.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return out


def moebius_subsets(values: np.ndarray, dim: int) -> np.ndarray:
    out = values.copy()
    for i in range(dim):
        view = out.reshape(-1, 2, 1 << i)
        view[:, 1, :] -= view[:, 0, :]
    return out


def zeta_supersets(values: np.ndarray, dim: int) -> np.ndarray:
    out = values.copy()
    for i in range(dim):
        view = out.reshape(-1, 2, 1 << i)
        view[:, 0, :] += view[:, 1, :]
    return out


# ---------------------------------------------------------------------------
# Brute-force contribution measure: for every nonempty mask S,
#   out[S] = sum over T within the complement of S of
#            weights[|S|, |T|] * sum over L within S of (-1)^(|S|-|L|) v[L|T].
# Cost is O(4**dim); this is the slow cross-validation route, not the
# production path. Masks are taken one cardinality class s at a time: the
# class's submask and complement-submask index arrays are built at once
# (ascending within each row), and the signs and weights, which depend
# only on s and the sizes, are shared by the class. Each mask's sum is
# then its own ``signs @ gathered @ wcol`` product over the (L, T) grid,
# so every mask gets the same operations in the same order on every run.
# ---------------------------------------------------------------------------


def delta_weighted(values: np.ndarray, dim: int, weights: np.ndarray) -> np.ndarray:
    full = (1 << dim) - 1
    pc = popcount_table(dim)
    out = np.zeros(1 << dim)
    for s in range(1, dim + 1):
        masks = np.flatnonzero(pc == s)
        subs = spread_by_size(masks, s)
        comps = spread_by_size(full ^ masks, dim - s)
        # pc is uint8 and pc[: 1 << s] <= s, so the difference stays non-negative
        signs = np.where((s - pc[: 1 << s]) % 2 == 0, 1.0, -1.0)
        wcol = weights[s, pc[: 1 << (dim - s)]]
        for mask, sub, comp in zip(masks.tolist(), subs, comps):
            gathered = values[sub[:, None] | comp]
            out[mask] = signs @ gathered @ wcol
    return out


# ---------------------------------------------------------------------------
# Multilinear interpolation on a uniform grid. cols is (n, m) with one column
# per grid axis; lo/step are per-axis origin and spacing, npts the per-axis
# point counts (each >= 2), flat the C-order flattened grid values. Queries
# outside the grid are clamped to the boundary; the second return value counts
# the rows where any axis was clamped.
# ---------------------------------------------------------------------------


def interp_multilinear(cols, lo, step, npts, flat):
    n, m = cols.shape
    upper = (npts - 1).astype(np.float64)
    t = (cols - lo) / step
    clamped = int(np.count_nonzero(((t < 0.0) | (t > upper)).any(axis=1)))
    t = np.clip(t, 0.0, upper)
    cell = np.minimum(t.astype(np.int64), npts - 2)
    frac = t - cell
    strides = np.empty(m, dtype=np.int64)
    acc = 1
    for j in range(m - 1, -1, -1):
        strides[j] = acc
        acc *= int(npts[j])
    base = cell @ strides
    out = np.zeros(n)
    for corner in range(1 << m):
        idx = base
        weight = np.ones(n)
        for j in range(m):
            if (corner >> j) & 1:
                idx = idx + strides[j]
                weight = weight * frac[:, j]
            else:
                weight = weight * (1.0 - frac[:, j])
        out += weight * flat[idx]
    return out, clamped

