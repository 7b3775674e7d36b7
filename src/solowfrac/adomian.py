"""Adomian polynomial coefficients for the power nonlinearity k -> k**mu.

With the generalized power-series ansatz k = sum_n c_n * t**(n*alpha), every
order-n Adomian polynomial of k**mu collapses to a single monomial
a_n * t**(n*alpha), where a_n is the n-th coefficient of the formal power
series (sum_i c_i x**i)**mu.  That scalar sequence is what this module
computes: the Miller recurrence is the production path, a Richardson
finite-difference differentiator is kept as an independent test oracle.

The collapse relies on each series term being a single monomial in t**alpha,
which holds for this model's ansatz but is not a property of Adomian
polynomials in general.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

__all__ = ["adomian_power_coeffs", "adomian_bruteforce_oracle"]

FD_ACCURACY_LIMIT = 6  # finite differences degrade quickly past the 6th derivative
# Small step + extended precision: the surviving truncation term scales like
# a_{n+6} * h**6, and a_{n+6} can reach ~1e7 when the random polynomial has a
# zero near the origin.  h = 1e-3 pushes that term below 1e-10 while 50-digit
# evaluation removes the subtraction round-off that would otherwise dominate.
_FD_STEP = 1e-3
_FD_DPS = 50


def _check_c0(c: Sequence[float]) -> None:
    if not c:
        raise ValueError("coefficient vector must be non-empty")
    if not c[0] > 0:
        raise ValueError(f"leading coefficient must be positive, got {c[0]}")


def adomian_power_coeffs(mu: float, c: Sequence[float]) -> list[float]:
    """Coefficients of (sum_i c_i x**i)**mu via the Miller recurrence.

    a_0 = c_0**mu and, for n >= 1,

        a_n = (1 / (n c_0)) * sum_{j=1..n} (j*mu - (n - j)) c_j a_{n-j}.

    Exact for analytic nonlinearities, O(N^2), and identical term-by-term to
    the Adomian polynomials of k**mu under the homogeneous series ansatz.
    """
    _check_c0(c)
    c0 = c[0]
    a = [c0 ** mu]
    for n in range(1, len(c)):
        s = 0.0
        for j in range(1, n + 1):
            s += (j * mu - (n - j)) * c[j] * a[n - j]
        a.append(s / (n * c0))
    return a


def _central_derivative(f, n: int, h) -> "mp.mpf":
    """Central-difference estimate of the n-th derivative of f at 0."""
    import mpmath as mp

    s = mp.mpf(0)
    for i in range(n + 1):
        s += (-1) ** i * math.comb(n, i) * f((mp.mpf(n) / 2 - i) * h)
    return s / h ** n


def adomian_bruteforce_oracle(mu: float, c: Sequence[float], n: int) -> float:
    """a_n by direct differentiation of x -> (sum_i c_i x**i)**mu at x = 0.

    Central differences with 3-level Richardson extrapolation (h, h/2, h/4),
    eliminating the h^2 and h^4 error terms.  Evaluated in 50-digit
    arithmetic so the step can be small enough to tame the h**6 truncation
    term without round-off taking over.  Test oracle only; accuracy falls
    off past n = 6.
    """
    _check_c0(c)
    if n > FD_ACCURACY_LIMIT:
        warnings.warn(
            f"finite-difference Adomian oracle is unreliable for n={n} > {FD_ACCURACY_LIMIT}",
            stacklevel=2,
        )
    if n == 0:
        return c[0] ** mu

    import mpmath as mp

    with mp.workdps(_FD_DPS):
        def f(x):
            base = mp.mpf(0)
            for i in reversed(range(len(c))):
                base = base * x + c[i]
            return base ** mp.mpf(mu)

        h = mp.mpf(_FD_STEP)
        d1 = _central_derivative(f, n, h)
        d2 = _central_derivative(f, n, h / 2)
        d3 = _central_derivative(f, n, h / 4)
        r1 = (4 * d2 - d1) / 3
        r2 = (4 * d3 - d2) / 3
        return float(((16 * r2 - r1) / 15) / math.factorial(n))
