"""The attribution engine: contribution measures, order-n interaction
indices, the full functional decomposition of a value table, and the
linear maps that connect them.

Terminology used throughout:

* value table: the dense map S -> v(x, S) for one explained point.
* decomposition (order d index): the alternating-sign inversion of the
  value table; its entries are the per-subset component values f_S(x_S)
  and they sum (with the baseline) back to the prediction.
* order-n index: attributions Phi_S for every coalition with
  1 <= |S| <= n. Order 1 is the classic per-feature attribution, order
  d is the decomposition itself.

The serving route is value table -> inversion -> linear combination
with exact mixing coefficients (O(d * 2**d), plus one O(d * 2**d) sweep
per cardinality layer above the smallest requested order, one layer
alive at a time). The last section holds what only ``nshapley check`` and
the tests use to cross-check it: the O(4**d) contribution measure, the
two routes through it (recursion and closed sum), the brute-force
per-feature oracle and the recovery report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isfinite

import numpy as np

from . import _kernels
from .exactnum import bernoulli, coeff_c
from .lattice import checked_point, checked_table, frozen, popcount, subset_key
from .valuefn import ValueTable

__all__ = [
    "InteractionIndex",
    "ShapleyGam",
    "shapley_gam",
    "n_shapley_from_gam",
    "n_shapley_all_orders",
    "reduce_order",
    "RecoveryReport",
    "delta_all",
    "n_shapley_recursive",
    "n_shapley_explicit",
    "classic_shapley_oracle",
    "recovery_check",
]

PROVENANCE_DIRECT = "direct"
PROVENANCE_FROM_GAM = "from-gam"


@dataclass(frozen=True, eq=False)
class InteractionIndex:
    """Attributions Phi_S for every coalition with 1 <= |S| <= order.

    ``values`` is one read-only float64 array of shape ``(2**dim,)``
    indexed by subset mask; it holds 0 at the empty mask and at every
    mask above the order, and ``masks()`` lists the covered coalitions
    in ascending mask order. ``baseline`` is v(empty); together with
    efficiency this means baseline + sum of all values reproduces
    v(full set). ``provenance`` records which computation route
    produced the numbers ("direct" for the contribution-measure route
    and the plain inversion, "from-gam" for the coefficient route).
    Construction checks everything a results record promises: a finite
    table, nothing outside orders 1..order, a finite baseline and point,
    and a known provenance; the writers in ``serialize`` rely on it.
    In results files each coalition is keyed by its canonical
    ``subset_key`` (see ``serialize``). Equality is identity; compare
    numbers with ``np.array_equal(a.values, b.values)``.
    """

    dim: int
    order: int
    baseline: float
    values: np.ndarray
    point: np.ndarray | None = None
    provenance: str = PROVENANCE_DIRECT

    def __post_init__(self):
        if not 1 <= self.order <= self.dim:
            raise ValueError(f"order must be in [1, dim={self.dim}], got {self.order}")
        values = checked_table(self.dim, self.values)
        pc = _kernels.popcount_table(self.dim)
        stray = np.flatnonzero(((pc == 0) | (pc > self.order)) & (values != 0.0))
        if stray.size:
            raise ValueError(f"subset {subset_key(int(stray[0]))!r} is out of range")
        baseline = float(self.baseline)
        if not isfinite(baseline):
            raise ValueError(f"baseline is not finite ({baseline!r})")
        if self.provenance not in (PROVENANCE_DIRECT, PROVENANCE_FROM_GAM):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "baseline", baseline)
        if self.point is not None:
            object.__setattr__(self, "point", checked_point(self.dim, self.point))

    def masks(self) -> np.ndarray:
        """The covered coalitions (1 <= |S| <= order), ascending."""
        pc = _kernels.popcount_table(self.dim)
        return np.flatnonzero((pc >= 1) & (pc <= self.order))

    def value(self, mask: int) -> float:
        if not 1 <= popcount(mask) <= self.order or mask >> self.dim:
            raise KeyError(f"subset {{{subset_key(mask)}}} not in an order-{self.order} index")
        return float(self.values[mask])

    def total(self) -> float:
        """Sum of all attributions; equals v(full) - v(empty) by efficiency."""
        return float(sum(self.values[self.masks()].tolist()))


@dataclass(frozen=True, eq=False)
class ShapleyGam(InteractionIndex):
    """The order-d index read as a functional decomposition at the point.

    Each entry is the component value f_S(x_S); the baseline is the
    empty component, and baseline + total() reproduces the prediction.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.order != self.dim:
            raise ValueError("a decomposition has order == dim")

    def prediction(self) -> float:
        return self.baseline + self.total()


@lru_cache(maxsize=None)
def _bernoulli_floats(n: int) -> np.ndarray:
    return frozen([float(bernoulli(k)) for k in range(n + 1)])


@lru_cache(maxsize=None)
def _mixing_matrix(dim: int) -> np.ndarray:
    """C(a, m) as float64 for 0 <= a < m <= dim, each rounded once from the exact value."""
    out = np.zeros((dim + 1, dim + 1))
    for m in range(dim + 1):
        for a in range(m):
            out[a, m] = float(coeff_c(a, m))
    return frozen(out)


def _layer_supersets(values: np.ndarray, pc: np.ndarray, c: int, dim: int) -> np.ndarray:
    """Per mask S, the sum of values[T] over supersets T of S with |T| = c."""
    return _kernels.zeta_supersets(np.where(pc == c, values, 0.0), dim)


def shapley_gam(table: ValueTable) -> ShapleyGam:
    """The functional decomposition of a value table at its point.

    One alternating-sign inversion of the table, O(d * 2**d). This is
    the preferred entry into everything else: any order-n index is a
    linear combination of these components.
    """
    components = _kernels.moebius_subsets(table.values, table.dim)
    baseline = float(components[0])
    components[0] = 0.0
    return ShapleyGam(
        dim=table.dim,
        order=table.dim,
        baseline=baseline,
        values=components,
        point=table.point,
        provenance=PROVENANCE_DIRECT,
    )


def _indices_from_gam(gam: ShapleyGam, orders) -> list[InteractionIndex]:
    """The coefficient route for every order at once; each entry sums its layers in ascending c."""
    d = gam.dim
    pc = _kernels.popcount_table(d)
    mix = _mixing_matrix(d)
    masks = [np.flatnonzero(pc == s) for s in range(max(orders) + 1)]
    phis = [gam.values.copy() for _ in orders]
    for c in range(min(orders) + 1, d + 1):
        sums = _layer_supersets(gam.values, pc, c, d)
        for order, phi in zip(orders, phis):
            if order < c:
                for s in range(1, order + 1):
                    phi[masks[s]] += mix[order - s, c - s] * sums[masks[s]]
    out = []
    for order in orders:
        phi = phis.pop(0)  # freed once its index holds the copy
        phi[pc > order] = 0.0
        out.append(
            InteractionIndex(
                dim=d,
                order=order,
                baseline=gam.baseline,
                values=phi,
                point=gam.point,
                provenance=PROVENANCE_FROM_GAM,
            )
        )
    return out


def n_shapley_from_gam(gam: ShapleyGam, order: int) -> InteractionIndex:
    """Order-n index as a linear combination of decomposition components.

    Phi_S = f_S plus, for every strict superset T with |T| > order, the
    component f_T weighted by the exact mixing coefficient for headroom
    order - |S| and distance |T| - |S|. At order 1 this is the familiar
    even split: each interaction is shared equally by its members.
    """
    if not 1 <= order <= gam.dim:
        raise ValueError(f"order must be in [1, dim={gam.dim}], got {order}")
    return _indices_from_gam(gam, [order])[0]


def n_shapley_all_orders(gam: ShapleyGam, orders=None) -> list[InteractionIndex]:
    """Indices of every order 1..dim, sharing each layer's superset sweep.

    ``orders``, ascending orders out of 1..dim, keeps only those. Each
    comes out bit for bit as it does among all orders: its entries add
    the same layers, in ascending c, whichever other orders are asked for.
    """
    return _indices_from_gam(gam, range(1, gam.dim + 1) if orders is None else orders)


def reduce_order(phi: InteractionIndex, order: int) -> InteractionIndex:
    """Project an index down to a smaller order.

    Inverts the defining recursion one level at a time: dropping from
    level q to q-1 subtracts, from every coalition S with |S| < q,
    B_(q-|S|) times the sum of the level-q entries over supersets of S
    of size q, then discards the size-q layer. No coefficients beyond
    the Bernoulli numbers are involved, and the result agrees with
    computing the smaller order directly.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > phi.order:
        raise ValueError(
            f"cannot reduce an order-{phi.order} index to larger order {order}"
        )
    if order == phi.order:
        return phi
    d = phi.dim
    pc = _kernels.popcount_table(d)
    bern = _bernoulli_floats(d)
    masks = [np.flatnonzero(pc == s) for s in range(phi.order)]
    cur = phi.values.copy()
    for q in range(phi.order, order, -1):
        super_sums = _layer_supersets(cur, pc, q, d)
        for s in range(1, q):
            cur[masks[s]] -= bern[q - s] * super_sums[masks[s]]
        cur[pc == q] = 0.0
    return InteractionIndex(
        dim=d,
        order=order,
        baseline=phi.baseline,
        values=cur,
        point=phi.point,
        provenance=phi.provenance,
    )




# ---------------------------------------------------------------------------
# Cross-check routes: used by ``nshapley check`` and the tests only
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _delta_weights(dim: int) -> np.ndarray:
    """weights[s, t] = (d-t-s)! t! / (d-s+1)! as float64, exact before rounding.

    Factorial ratios are formed as rationals and rounded once; float
    factorial quotients lose integer exactness near d = 19.
    """
    w = np.zeros((dim + 1, dim + 1))
    for s in range(dim + 1):
        for t in range(dim - s + 1):
            w[s, t] = float(
                Fraction(factorial(dim - t - s) * factorial(t), factorial(dim - s + 1))
            )
    return frozen(w)


def delta_all(table: ValueTable) -> np.ndarray:
    """Contribution measure of every nonempty coalition (index 0 stays 0).

    For each S, the factorially weighted double subset sum over the raw
    value table: for each outside coalition T, the alternating sum over
    L within S of v(L | T), weighted by (d-|T|-|S|)! |T|! / (d-|S|+1)!.
    Equals the harmonically discounted sum of all decomposition
    components containing S. O(4**dim).
    """
    return _kernels.delta_weighted(table.values, table.dim, _delta_weights(table.dim))


def _direct_indices(table: ValueTable, levels: list[np.ndarray]) -> list[InteractionIndex]:
    return [
        InteractionIndex(
            dim=table.dim,
            order=order,
            baseline=float(table.values[0]),
            values=values,
            point=table.point,
            provenance=PROVENANCE_DIRECT,
        )
        for order, values in enumerate(levels, start=1)
    ]


def n_shapley_recursive(
    table: ValueTable, max_order: int, deltas: np.ndarray | None = None
) -> list[InteractionIndex]:
    """Indices of orders 1..max_order by the literal Bernoulli-weighted recursion.

    Level n assigns the contribution measure to coalitions of size n
    and corrects every smaller coalition of the level-(n-1) index by
    B_(n-|S|) times the sum of the measures of its size-n supersets.
    Each level is built once from the one before, one cardinality class
    of coalitions S at a time: the supersets S | K, for K running over
    the size-(n-|S|) submasks of S's complement in decreasing mask
    order, are added one K at a time from 0.0 for the whole class.
    ``deltas`` is ``delta_all(table)``, computed here unless given.
    """
    d = table.dim
    if not 1 <= max_order <= d:
        raise ValueError(f"order must be in [1, dim={d}], got {max_order}")
    if deltas is None:
        deltas = delta_all(table)
    pc = _kernels.popcount_table(d)
    bern = _bernoulli_floats(d)
    full = (1 << d) - 1
    masks = [np.flatnonzero(pc == s) for s in range(max_order)]
    levels = [np.where(pc == 1, deltas, 0.0)]
    for level in range(2, max_order + 1):
        cur = np.where(pc == level, deltas, 0.0)
        for s in range(1, level):
            want = level - s
            comps = _kernels.spread_by_size(full ^ masks[s], d - s)
            acc = np.zeros(masks[s].size)
            for k in comps[:, pc[: 1 << (d - s)] == want][:, ::-1].T:
                acc += deltas[masks[s] | k]
            cur[masks[s]] = levels[-1][masks[s]] + bern[want] * acc
        levels.append(cur)
    return _direct_indices(table, levels)


def n_shapley_explicit(
    table: ValueTable, max_order: int, deltas: np.ndarray | None = None
) -> list[InteractionIndex]:
    """Indices of orders 1..max_order by the closed Bernoulli-weighted sum
    over the contribution measure: Phi_S = sum_k B_k * (sum of measures of
    the supersets of S at distance k), k up to order - |S|.

    Unrolls the recursion; must agree with it entrywise. The order-n
    sum for S is the order-(n-1) sum plus one term, so the superset
    sweep of layer n serves every order from n up. ``deltas`` is
    ``delta_all(table)``, computed here unless given.
    """
    d = table.dim
    if not 1 <= max_order <= d:
        raise ValueError(f"order must be in [1, dim={d}], got {max_order}")
    if deltas is None:
        deltas = delta_all(table)
    pc = _kernels.popcount_table(d)
    bern = _bernoulli_floats(d)
    levels = [np.zeros(deltas.size) for _ in range(max_order)]
    masks = [np.flatnonzero(pc == s) for s in range(max_order + 1)]
    accs = [None] * (max_order + 1)  # accs[s]: the running sums for size s
    for c in range(1, max_order + 1):
        sums = _layer_supersets(deltas, pc, c, d)
        accs[c] = sums[masks[c]]  # k = 0 term, B_0 = 1
        for s in range(1, c):
            accs[s] += bern[c - s] * sums[masks[s]]
        for s in range(1, c + 1):
            levels[c - 1][masks[s]] = accs[s]
    return _direct_indices(table, levels)


def classic_shapley_oracle(table: ValueTable) -> np.ndarray:
    """Per-feature attributions by the textbook permutation-weighted sum.

    Phi_i = sum over T not containing i of |T|! (d-|T|-1)! / d! times
    the marginal v(T + i) - v(T), brute force over all coalitions.
    Deliberately naive and capped at dim 12; this is the ground truth
    the order-1 index is checked against.
    """
    d = table.dim
    if d > 12:
        raise ValueError(f"the brute-force oracle is capped at dim 12, got {d}")
    v = table.values
    pc = _kernels.popcount_table(d)
    weights = np.array(
        [float(Fraction(factorial(t) * factorial(d - t - 1), factorial(d))) for t in range(d)]
    )
    out = np.empty(d)
    all_masks = np.arange(1 << d)
    for i in range(d):
        bit = 1 << i
        rest = all_masks[(all_masks & bit) == 0]
        marginals = v[rest | bit] - v[rest]
        out[i] = float(np.dot(weights[pc[rest]], marginals))
    return out


@dataclass(frozen=True)
class RecoveryReport:
    """How close a decomposition is to having no components above a given order.

    ``max_component_above_order`` is the largest |f_S| with |S| greater
    than the order (0 when the order equals the dimension), and
    ``worst_subset_above_order`` the mask attaining it (0 if none).
    ``max_attribution_gap`` is the largest |Phi_S - f_S| over the kept
    coalitions: when the tail truly vanishes, the order-n index
    reproduces the components themselves.
    """

    dim: int
    order: int
    max_component_above_order: float
    worst_subset_above_order: int
    max_attribution_gap: float


def recovery_check(gam: ShapleyGam, phi: InteractionIndex) -> RecoveryReport:
    """Above-order component mass and attribution gap of ``gam`` against
    its order-n index ``phi``, as ``n_shapley_from_gam(gam, n)`` returns it."""
    above = np.where(_kernels.popcount_table(gam.dim) > phi.order, np.abs(gam.values), 0.0)
    worst_mask = int(np.argmax(above))
    gap = np.abs(phi.values - gam.values)[phi.masks()].max()
    return RecoveryReport(
        dim=gam.dim,
        order=phi.order,
        max_component_above_order=float(above[worst_mask]),
        worst_subset_above_order=worst_mask,
        max_attribution_gap=float(gap),
    )
