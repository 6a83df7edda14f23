"""Dataset-level summaries of per-point explanations.

Two views are provided: the mass-weighted mean coalition size of the
decomposition components (how interacting a function is, point by
point) and partial-dependence series of one coalition's attribution
against a feature's value (how close attributions are to being a
function of that feature alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from .core import InteractionIndex, ShapleyGam
from .lattice import frozen

__all__ = [
    "DegreeReport",
    "OrderMasses",
    "order_masses",
    "interaction_degree",
    "DependenceSeries",
    "partial_dependence",
]


@dataclass(frozen=True)
class DegreeReport:
    """Interaction-degree summary over a set of explained points.

    The per-point degree is sum |S| * |f_S| / sum |f_S| over nonempty
    subsets, which lies in [0, d], equals 1 for purely additive
    functions, equals n for pure order-n interactions, and is 0 by
    convention when every component vanishes (a constant function).
    ``mean_degree`` averages the per-point degrees; ``pooled_degree``
    instead weights by pooling all component mass across points. Both
    are reported because either aggregation is defensible.
    ``order_mass_share[k]`` is the fraction of pooled |f_S| mass at
    cardinality k (all zeros for a constant model); shares sum to 1
    otherwise and are invariant under positive rescaling of the model.
    """

    per_point: np.ndarray
    mean_degree: float
    pooled_degree: float
    quantiles: Mapping[str, float]
    order_mass_share: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_point", frozen(self.per_point))
        object.__setattr__(self, "order_mass_share", frozen(self.order_mass_share))
        object.__setattr__(self, "quantiles", MappingProxyType(dict(self.quantiles)))
        numbers = [self.per_point, self.order_mass_share, self.mean_degree, self.pooled_degree]
        if not all(np.isfinite(v).all() for v in [*numbers, *self.quantiles.values()]):
            raise ValueError("a degree report holds finite numbers only")


@dataclass(frozen=True)
class OrderMasses:
    """One point's sums of |f_S| by order, the true sums being ``masses * 2**exponent``.

    ``masses`` holds d+1 float64 sums, the one at k over the coalitions
    of k members. ``exponent`` is 0 unless the order-weighted total
    would overflow: the weights are then scaled by 2**-exponent, with
    exponent = d + the bit length of d, which keeps that total of 2**d
    entries below the largest float. The degree and the shares are
    ratios, so the scale does not change them.
    """

    masses: np.ndarray
    exponent: int

    @property
    def dim(self) -> int:
        return self.masses.size - 1


def _order_masses(values: np.ndarray, pc: np.ndarray, orders: np.ndarray) -> OrderMasses:
    weights = np.abs(values)
    masses = np.bincount(pc, weights=weights, minlength=orders.size)
    with np.errstate(over="ignore"):
        if np.isfinite((orders * masses).sum()):
            return OrderMasses(masses, 0)
    e = orders.size - 1 + (orders.size - 1).bit_length()
    return OrderMasses(np.bincount(pc, weights=np.ldexp(weights, -e), minlength=orders.size), e)


def order_masses(gam: ShapleyGam) -> OrderMasses:
    """The masses ``interaction_degree`` folds for ``gam``'s point."""
    return _order_masses(gam.values, _kernels.popcount_table(gam.dim), np.arange(gam.dim + 1))


def _pool(a: np.ndarray, ea: int, b: np.ndarray, eb: int, orders: np.ndarray):
    """a * 2**ea + b * 2**eb as ``(masses, e)``.

    ``e`` is the larger exponent, raised by 2 when the order-weighted
    total of the sum would overflow; a and b each have a finite one.
    """
    e = max(ea, eb)
    with np.errstate(over="ignore"):
        pooled = np.ldexp(a, ea - e) + np.ldexp(b, eb - e)
        if not np.isfinite((orders * pooled).sum()):
            e += 2
            pooled = np.ldexp(a, ea - e) + np.ldexp(b, eb - e)
    return pooled, e


def interaction_degree(gams: Iterable[ShapleyGam | OrderMasses]) -> DegreeReport:
    """Aggregate the degree of variable interaction over explained points.

    ``gams`` may be any iterable, a generator included: each
    decomposition is folded into d+1 masses by order as it arrives and
    is not kept, so memory does not grow with the number of points. An
    item may also be a point's ``OrderMasses`` already taken (by
    ``order_masses``, in another process, say); it is folded in its
    place, so the report is the one of the decompositions themselves.
    Masses whose sums would overflow are summed at an exact power-of-two
    scale, so a finite decomposition always has a finite degree.
    """
    dim = None
    per_point = []
    for gam in gams:
        if dim is None:
            dim = gam.dim
            pc = _kernels.popcount_table(dim)
            orders = np.arange(dim + 1)
            pooled_by_order, pooled_e = np.zeros(dim + 1), 0
        elif gam.dim != dim:
            raise ValueError("all decompositions must share one dimension")
        masses = gam if isinstance(gam, OrderMasses) else _order_masses(gam.values, pc, orders)
        mass_by_order = masses.masses
        pooled_by_order, pooled_e = _pool(
            pooled_by_order, pooled_e, mass_by_order, masses.exponent, orders
        )
        total = mass_by_order.sum()
        if total == 0.0:
            per_point.append(0.0)
        else:
            per_point.append(float((orders * mass_by_order).sum() / total))
    if dim is None:
        raise ValueError("need at least one decomposition")
    per_point = np.array(per_point)
    pooled_total = pooled_by_order.sum()
    if pooled_total == 0.0:
        pooled_degree = 0.0
        shares = np.zeros(dim + 1)
    else:
        pooled_degree = float((orders * pooled_by_order).sum() / pooled_total)
        shares = pooled_by_order / pooled_total
    qs = np.quantile(per_point, [0.0, 0.25, 0.5, 0.75, 1.0])
    quantiles = {
        "min": float(qs[0]),
        "q25": float(qs[1]),
        "median": float(qs[2]),
        "q75": float(qs[3]),
        "max": float(qs[4]),
    }
    return DegreeReport(
        per_point=per_point,
        mean_degree=float(per_point.mean()),
        pooled_degree=pooled_degree,
        quantiles=quantiles,
        order_mass_share=shares,
    )


@dataclass(frozen=True)
class DependenceSeries:
    """Scatter of one feature's attribution against the feature's value."""

    feature: int
    order: int
    x: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        x = frozen(self.x)
        phi = frozen(self.phi)
        if x.shape != phi.shape or x.ndim != 1:
            raise ValueError("x and phi must be aligned 1-d arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(phi))):
            raise ValueError("series entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "phi", phi)

    def __len__(self) -> int:
        return self.x.size


def partial_dependence(indices: Sequence[InteractionIndex], feature: int) -> DependenceSeries:
    """One (x_i, Phi_i) pair per explained point, in input order.

    For an order-1-representable function the points of this series
    fall on a single curve; residual vertical spread at repeated x_i
    values measures how much interaction the order subsumed.
    """
    if len(indices) == 0:
        return DependenceSeries(feature=feature, order=1, x=np.empty(0), phi=np.empty(0))
    dim = indices[0].dim
    order = indices[0].order
    if any(ix.dim != dim or ix.order != order for ix in indices):
        raise ValueError("all indices must share one dimension and order")
    if not 0 <= feature < dim:
        raise ValueError(f"feature {feature} out of range for dim={dim}")
    bit = 1 << feature
    xs = np.empty(len(indices))
    phis = np.empty(len(indices))
    for i, index in enumerate(indices):
        if index.point is None:
            raise ValueError("every index needs its explained point attached")
        xs[i] = index.point[feature]
        phis[i] = index.value(bit)
    return DependenceSeries(feature=feature, order=order, x=xs, phi=phis)
