"""Exact rational constants behind interaction attributions.

Bernoulli numbers weight the higher-order corrections that make
truncated interaction attributions sum to the prediction, and the
coefficients ``coeff_c(n, m)`` say how strongly a decomposition
component sitting ``m`` features above a coalition bleeds into that
coalition's attribution. Both families are computed in arbitrary
precision rational arithmetic; conversion to float happens only where
the calling code multiplies them into model outputs (``core`` rounds
each coefficient to float64 once when it builds its mixing matrix).
Numerators of Bernoulli numbers grow super-exponentially, so
fixed-width arithmetic is not an option here.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

__all__ = ["bernoulli", "coeff_c"]

# Grow-only memo of B_0, B_1, ... shared by all callers for the process
# lifetime. Entries are immutable Fractions; the lock only serialises
# growth so concurrent readers never observe a partially built prefix.
_bernoulli_cache: list[Fraction] = [Fraction(1)]
_cache_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n, with the convention B_1 = -1/2.

    Uses the recursion B_n = -1/(n+1) * sum_{k<n} C(n+1, k) B_k and
    memoizes every value computed along the way. B_n = 0 for odd n >= 3,
    so those entries are stored directly and skipped in the sum.
    """
    if n < 0:
        raise ValueError(f"Bernoulli numbers need n >= 0, got {n}")
    if n < len(_bernoulli_cache):
        return _bernoulli_cache[n]
    with _cache_lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            if m > 1 and m % 2:
                _bernoulli_cache.append(Fraction(0))
                continue
            acc = Fraction(0)
            for k in range(m):
                if k > 1 and k % 2:
                    continue
                acc += comb(m + 1, k) * _bernoulli_cache[k]
            _bernoulli_cache.append(Fraction(-1, m + 1) * acc)
    return _bernoulli_cache[n]


def coeff_c(n: int, m: int) -> Fraction:
    """Exact mixing coefficient C(n, m) = sum_{k=0}^{n} C(m, k) B_k / (1 + m - k).

    In the linear map from a functional decomposition to order-limited
    attributions, a component ``m`` features above the target coalition
    enters with weight C(h, m), where ``h`` is the headroom between the
    coalition size and the attribution order. C(0, m) = 1/(m+1) is the
    even split of an interaction onto its members.

    Calls with m < n are rejected: the defining sum would divide by
    zero at k = m + 1, and no caller has a meaning for that regime.
    """
    if n < 0 or m < 0:
        raise ValueError(f"coeff_c needs n, m >= 0, got ({n}, {m})")
    if m < n:
        raise ValueError(f"coeff_c requires m >= n, got ({n}, {m})")
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(comb(m, k)) * bernoulli(k) / (1 + m - k)
    return total
