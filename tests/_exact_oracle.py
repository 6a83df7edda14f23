"""Independent oracles and test-only helpers used by the test suite.

The exact-rational oracles are deliberately naive and implemented from
first principles with Fractions only: direct alternating subset sums,
the factorially weighted contribution measure, the Bernoulli-weighted
recursion, and the permutation-weighted per-feature attribution.

``check_bernoulli_identity`` and ``check_bernoulli_orthogonality``
test the package's exact Bernoulli numbers against two closed-form
identities. ``enumerate_subsets`` and ``zeta_transform`` are the
test-side helpers over the coalition lattice; the latter wraps the
package's cumulative-sum kernel as the inverse of ``moebius_transform``.

``interventional_value``, ``observational_exactmatch_value`` and
``gam_induced_value`` compute v(x, S) for one coalition at a time, with
numpy and the model (or declared components) only; they are the
references the dense value tables are checked against.

``cell_center_grid`` and ``fit_additive_marginal_means`` build test
inputs; the latter assembles its additive model from the package's
own components.

``scatter`` and ``entries`` convert between the ``{mask: value}``
mappings the tests write by hand and an index's dense ``values`` array.
``bar_totals`` sums each feature's stacked-bar shares, and
``reconstruction_gap`` measures how far those totals are from the
order-1 attributions of the index. ``indices_from_mask`` decodes a
mask bit by bit, the reference for ``subset_key``.
``oracle_record`` and ``oracle_csv`` are the dict-per-record and
line-per-coalition writers the streamed results writers replaced,
kept as the reference their bytes must match. ``oracle_request`` is the
per-value request encoder ``ExternalModel`` replaced, kept likewise.
``all_layers_from_gam`` and ``all_layers_explicit`` are the coefficient
and closed-sum routes as they stood when every cardinality layer's
superset sums were built into one ``(dim + 1, 2**dim)`` array before
any was read, and ``reference_reduce`` is ``reduce_order``'s loop of
the same time; the one-layer routes must match their bytes.
``reference_delta_weighted`` and ``reference_recursive`` are the
contribution measure and the Bernoulli recursion built one mask at a
time, as they stood before both worked per cardinality class; the
class routes must match their bytes. The recursion walks each
complement with ``submasks``, in decreasing mask order, as the
package's own submask iterator did.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np

from nshapley import _kernels
from nshapley.core import _bernoulli_floats, _mixing_matrix, delta_all, reduce_order
from nshapley.exactnum import bernoulli
from nshapley.figures import bar_stacks
from nshapley.lattice import MAX_DIM, SubsetTable
from nshapley.models import ComponentMap, ConstantComponent, LookupComponent


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 0-based feature indices of a mask, read off bit by bit."""
    out = []
    i = 0
    m = int(mask)
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def submasks(mask: int):
    """Every submask of ``mask``, in decreasing mask order, ending at 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def bernoulli_list(n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(Fraction(comb(m + 1, k)) * out[k] for k in range(m))
        out.append(Fraction(-1, m + 1) * acc)
    return out


def check_bernoulli_identity(n: int) -> bool:
    """True iff sum_{k=1}^{n} C(n, k) B_k / (n - k + 1) == -1/(n+1), exactly.

    This is the telescoping identity that collapses harmonically
    weighted Bernoulli sums; it underpins the even-split coefficients.
    """
    if n < 1:
        raise ValueError(f"identity is stated for n >= 1, got {n}")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(comb(n, k)) * bernoulli(k) / (n - k + 1)
    return total == Fraction(-1, n + 1)


def check_bernoulli_orthogonality(n: int, m: int) -> bool:
    """True iff the two-index Bernoulli sum equals 1 for n == 0 and 0 otherwise.

    The sum is
        sum_{k<=n} sum_{l<=m} C(n,k) C(m,l) (n-k)!(m-l)!/(n+m-k-l+1)!
                              * (-1)^l * B_{k+l}
    evaluated exactly. Its collapse to an indicator in n is what makes
    alternating subset sums of a cumulative table single out exactly
    one component per subset.
    """
    if n < 0 or m < 0:
        raise ValueError(f"orthogonality check needs n, m >= 0, got ({n}, {m})")
    total = Fraction(0)
    for k in range(n + 1):
        for l in range(m + 1):
            term = Fraction(
                comb(n, k) * comb(m, l) * factorial(n - k) * factorial(m - l),
                factorial(n + m - k - l + 1),
            )
            if l % 2:
                term = -term
            total += term * bernoulli(k + l)
    expected = Fraction(1) if n == 0 else Fraction(0)
    return total == expected


def enumerate_subsets(dim: int, max_size: int) -> list[int]:
    """All masks of cardinality <= max_size, in increasing mask order."""
    if not 0 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [0, {MAX_DIM}], got {dim}")
    if not 0 <= max_size <= dim:
        raise ValueError(f"max_size must be in [0, dim={dim}], got {max_size}")
    pc = _kernels.popcount_table(dim)
    return [int(m) for m in np.flatnonzero(pc <= max_size)]


def zeta_transform(table: SubsetTable) -> SubsetTable:
    """Cumulative subset sum: out[S] = sum_{L subset S} table[L]."""
    return SubsetTable(table.dim, _kernels.zeta_subsets(table.values, table.dim))


def fr_moebius(values: list[Fraction], dim: int) -> list[Fraction]:
    out = []
    for mask in range(1 << dim):
        acc = Fraction(0)
        for sub in submasks(mask):
            sign = -1 if (popcount(mask) - popcount(sub)) % 2 else 1
            acc += sign * values[sub]
        out.append(acc)
    return out


def fr_zeta(values: list[Fraction], dim: int) -> list[Fraction]:
    out = []
    for mask in range(1 << dim):
        out.append(sum((values[sub] for sub in submasks(mask)), Fraction(0)))
    return out


def fr_delta(values: list[Fraction], dim: int, subset: int) -> Fraction:
    s = popcount(subset)
    comp = ((1 << dim) - 1) ^ subset
    total = Fraction(0)
    for t_mask in submasks(comp):
        t = popcount(t_mask)
        weight = Fraction(
            factorial(dim - t - s) * factorial(t), factorial(dim - s + 1)
        )
        inner = Fraction(0)
        for l_mask in submasks(subset):
            sign = -1 if (s - popcount(l_mask)) % 2 else 1
            inner += sign * values[l_mask | t_mask]
        total += weight * inner
    return total


def fr_phi_recursive(values: list[Fraction], dim: int, order: int) -> dict[int, Fraction]:
    bern = bernoulli_list(dim)
    deltas = {mask: fr_delta(values, dim, mask) for mask in range(1, 1 << dim)}
    phi = {mask: deltas[mask] for mask in deltas if popcount(mask) == 1}
    for level in range(2, order + 1):
        new = {}
        for mask in deltas:
            s = popcount(mask)
            if s > level:
                continue
            if s == level:
                new[mask] = deltas[mask]
                continue
            comp = ((1 << dim) - 1) ^ mask
            acc = Fraction(0)
            for k_mask in submasks(comp):
                if popcount(k_mask) == level - s:
                    acc += deltas[mask | k_mask]
            new[mask] = phi[mask] + bern[level - s] * acc
        phi = new
    return phi


def fr_classic_shapley(values: list[Fraction], dim: int) -> list[Fraction]:
    out = []
    for i in range(dim):
        bit = 1 << i
        acc = Fraction(0)
        for t_mask in range(1 << dim):
            if t_mask & bit:
                continue
            t = popcount(t_mask)
            weight = Fraction(factorial(t) * factorial(dim - t - 1), factorial(dim))
            acc += weight * (values[t_mask | bit] - values[t_mask])
        out.append(acc)
    return out


def scatter(dim: int, by_mask: dict[int, float]) -> np.ndarray:
    """Dense float64 array of length 2**dim: by_mask[m] at each mask m, 0 elsewhere."""
    out = np.zeros(1 << dim)
    for mask, value in by_mask.items():
        out[mask] = value
    return out


def entries(index) -> dict[int, float]:
    """An index's covered coalitions and their values, in ascending mask order."""
    masks = index.masks()
    return dict(zip(masks.tolist(), index.values[masks].tolist()))


def bar_totals(index) -> np.ndarray:
    """Per feature, the sum of its stacked-bar shares in drawing order."""
    return np.array([sum(shares.tolist()) for _, _, shares in bar_stacks(index)])


def reconstruction_gap(index) -> float:
    """Largest |per-feature bar total - order-1 attribution|; ~0 by construction."""
    order_one = reduce_order(index, 1)
    totals = bar_totals(index)
    gap = 0.0
    for i in range(index.dim):
        gap = max(gap, abs(totals[i] - order_one.value(1 << i)))
    return gap


def oracle_key(mask: int, dim: int) -> str:
    return ",".join(str(i) for i in range(dim) if mask >> i & 1)


def oracle_record(index) -> dict:
    """The JSON record of an index as a plain dict (``json.dumps`` writes its bytes)."""
    return {
        "dim": index.dim,
        "order": index.order,
        "baseline": index.baseline,
        "point": None if index.point is None else index.point.tolist(),
        "provenance": index.provenance,
        "values": {oracle_key(mask, index.dim): value for mask, value in entries(index).items()},
    }


def oracle_csv(labelled) -> str:
    """The flat ``point,order,set,value`` table of ``(point, index)`` pairs."""
    lines = ["point,order,set,value"]
    for pid, index in labelled:
        lines.append(f'{pid},{index.order},"",{index.baseline!r}')
        lines.extend(
            f'{pid},{index.order},"{oracle_key(mask, index.dim)}",{value!r}'
            for mask, value in entries(index).items()
        )
    return "\n".join(lines) + "\n"


def oracle_request(points) -> bytes:
    """One ``NSHAP-MODEL-V1`` request, one ``repr`` per value."""
    rows = np.asarray(points, dtype=np.float64)
    lines = [f"NSHAP-MODEL-V1 {rows.shape[1]} {rows.shape[0]}"]
    lines.extend(",".join(repr(v) for v in row) for row in rows.tolist())
    lines.append("END\n")
    return "\n".join(lines).encode("ascii")


def interventional_value(model, background, point, subset: int) -> float:
    """Average of f over the background rows with the S columns forced to x."""
    keep = np.array([(subset >> j) & 1 for j in range(model.dim)], dtype=bool)
    x = np.asarray(point, dtype=np.float64)
    hybrid = np.where(keep, x, np.asarray(background, dtype=np.float64))
    return float(np.mean(model.predict_batch(hybrid)))


def observational_exactmatch_value(model, data, point, subset: int) -> float | None:
    """Mean of f over the data rows equal to x on S, in row order; None if no row is."""
    rows = np.asarray(data, dtype=np.float64)
    x = np.asarray(point, dtype=np.float64)
    cols = [j for j in range(model.dim) if (subset >> j) & 1]
    match = np.all(rows[:, cols] == x[cols], axis=1)
    if not match.any():
        return None
    return float(np.mean(np.asarray(model.predict_batch(rows))[match]))


def gam_induced_value(components, point, subset: int) -> float:
    """Sum of g_L(x_L) over the declared components (a list) with L a subset of S."""
    row = np.asarray(point, dtype=np.float64)[None, :]
    return float(sum(
        float(comp.evaluate(row)[0])
        for comp in components
        if not comp.mask & ~subset
    ))


def cell_center_grid(dim: int, granularity: int) -> np.ndarray:
    """The full product grid of per-axis cell centers, (granularity**dim, dim)."""
    if granularity < 1:
        raise ValueError("granularity must be >= 1")
    if granularity**dim > 1 << 22:
        raise ValueError(f"grid of {granularity}**{dim} rows is too large")
    centers = (np.arange(granularity) + 0.5) / granularity
    grids = np.meshgrid(*([centers] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def fit_additive_marginal_means(points, labels) -> ComponentMap:
    """One-pass additive fit on evenly spaced discrete features.

    Builds, per feature, a lookup component holding the centered
    conditional label mean at each observed feature value, plus a
    constant at the global mean. This is the simplest honest additive
    baseline for discrete data; it needs every feature's observed
    values to form an evenly spaced grid.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    y = np.ascontiguousarray(labels, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0 or y.shape != (pts.shape[0],):
        raise ValueError("need a nonempty (n, d) matrix with aligned labels")
    grand_mean = float(y.mean())
    comps = [ConstantComponent(grand_mean)]
    for j in range(pts.shape[1]):
        values = np.unique(pts[:, j])
        if values.size < 2:
            continue
        steps = np.diff(values)
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
            raise ValueError(f"feature {j} is not evenly spaced discrete")
        means = np.array(
            [y[pts[:, j] == v].mean() - grand_mean for v in values]
        )
        comps.append(
            LookupComponent((j,), [values[0]], [values[-1]], means)
        )
    return ComponentMap(pts.shape[1], comps)


def supersets_by_cardinality(dense: np.ndarray, dim: int) -> np.ndarray:
    """Row c holds, per mask S, the sum of dense[T] over supersets T with |T| = c."""
    pc = _kernels.popcount_table(dim)
    out = np.empty((dim + 1, dense.size))
    for c in range(dim + 1):
        layer = np.where(pc == c, dense, 0.0)
        out[c] = _kernels.zeta_supersets(layer, dim)
    return out


def all_layers_from_gam(gam, order: int) -> np.ndarray:
    """The coefficient route's order-n values, read from all layers at once."""
    d = gam.dim
    pc = _kernels.popcount_table(d)
    mix = _mixing_matrix(d)
    bycard = supersets_by_cardinality(gam.values, d)
    phi = gam.values.copy()
    for s in range(1, order + 1):
        masks = np.flatnonzero(pc == s)
        for k in range(max(1, order + 1 - s), d - s + 1):
            phi[masks] += mix[order - s, k] * bycard[s + k][masks]
    phi[pc > order] = 0.0
    return phi


def reference_reduce(index, order: int) -> np.ndarray:
    """``reduce_order``'s values, one level at a time from ``index.order`` down."""
    d = index.dim
    pc = _kernels.popcount_table(d)
    bern = _bernoulli_floats(d)
    cur = index.values.copy()
    for q in range(index.order, order, -1):
        top = np.where(pc == q, cur, 0.0)
        super_sums = _kernels.zeta_supersets(top, d)
        for s in range(1, q):
            masks = np.flatnonzero(pc == s)
            cur[masks] -= bern[q - s] * super_sums[masks]
        cur[pc == q] = 0.0
    return cur


def all_layers_explicit(table, max_order: int) -> list[np.ndarray]:
    """``n_shapley_explicit``'s values of orders 1..max_order, read from all layers at once."""
    d = table.dim
    deltas = delta_all(table)
    bycard = supersets_by_cardinality(deltas, d)
    pc = _kernels.popcount_table(d)
    bern = _bernoulli_floats(d)
    levels = [np.zeros(deltas.size) for _ in range(max_order)]
    for s in range(1, max_order + 1):
        masks = np.flatnonzero(pc == s)
        acc = bycard[s][masks].copy()  # k = 0 term, B_0 = 1
        levels[s - 1][masks] = acc
        for k in range(1, max_order - s + 1):
            acc += bern[k] * bycard[s + k][masks]
            levels[s + k - 1][masks] = acc
    return levels


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


def reference_delta_weighted(values: np.ndarray, dim: int, weights: np.ndarray) -> np.ndarray:
    """``_kernels.delta_weighted``'s values, index arrays built one mask at a time."""
    size = 1 << dim
    full = size - 1
    pc = _kernels.popcount_table(dim)
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


def reference_recursive(deltas: np.ndarray, dim: int, max_order: int) -> list[np.ndarray]:
    """``n_shapley_recursive``'s values of orders 1..max_order from the measure
    ``deltas``, one coalition and one complement submask at a time."""
    pc = _kernels.popcount_table(dim)
    bern = _bernoulli_floats(dim)
    full = (1 << dim) - 1
    levels = [np.where(pc == 1, deltas, 0.0)]
    for level in range(2, max_order + 1):
        cur = np.where(pc == level, deltas, 0.0)
        for mask in np.flatnonzero((pc >= 1) & (pc < level)).tolist():
            acc = 0.0
            want = level - int(pc[mask])
            for k_mask in submasks(full ^ mask):
                if popcount(k_mask) == want:
                    acc += deltas[mask | k_mask]
            cur[mask] = levels[-1][mask] + bern[want] * acc
        levels.append(cur)
    return levels
