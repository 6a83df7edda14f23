"""Hot numeric kernels over dense 2**dim subset tables.

The lattice sweeps are reproducible byte for byte because they perform
the same additions in the same per-bit order on every run.

Tables are 1-d contiguous float64 arrays of length ``2**dim`` indexed by
subset bitmask (bit i set <=> feature i in the subset).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "popcount_table",
    "zeta_subsets",
    "moebius_subsets",
    "zeta_supersets",
    "delta_weighted",
    "interp_multilinear",
]


def popcount_table(dim: int) -> np.ndarray:
    """Bit-count of every mask below 2**dim, as an int64 array."""
    return np.bitwise_count(np.arange(1 << dim, dtype=np.uint32)).astype(np.int64)


# ---------------------------------------------------------------------------
# Lattice sweeps. out length is 2**dim; the sweep order over bits 0..dim-1 is
# fixed so results are reproducible across runs and thread counts.
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
# production path.
# ---------------------------------------------------------------------------


def _submask_spread(mask: int) -> np.ndarray:
    """All submasks of ``mask`` as an int64 array (ascending spread order)."""
    if mask == 0:
        return np.zeros(1, dtype=np.int64)
    positions = np.flatnonzero(
        (mask >> np.arange(mask.bit_length(), dtype=np.int64)) & 1
    )
    s = positions.size
    bits = (np.arange(1 << s, dtype=np.int64)[:, None] >> np.arange(s)) & 1
    return bits @ (np.int64(1) << positions)


def delta_weighted(values: np.ndarray, dim: int, weights: np.ndarray) -> np.ndarray:
    size = 1 << dim
    full = size - 1
    pc = popcount_table(dim)
    out = np.zeros(size)
    for mask in range(1, size):
        s = int(pc[mask])
        subs = _submask_spread(mask)
        comps = _submask_spread(full ^ mask)
        gathered = values[np.bitwise_or.outer(subs, comps)]
        signs = np.where((s - pc[subs]) % 2 == 0, 1.0, -1.0)
        wcol = weights[s, pc[comps]]
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

