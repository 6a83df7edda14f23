"""Independent exact-rational oracles used by the test suite.

Everything here is deliberately naive and implemented from first
principles with Fractions only: direct alternating subset sums, the
factorially weighted contribution measure, the Bernoulli-weighted
recursion, and the permutation-weighted per-feature attribution. None
of it shares code with the package under test.

``scatter`` and ``entries`` convert between the ``{mask: value}``
mappings the tests write by hand and an index's dense ``values`` array.
``oracle_record`` and ``oracle_csv`` are the dict-per-record and
line-per-coalition writers the streamed results writers replaced,
kept as the reference their bytes must match.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def submasks(mask: int):
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
