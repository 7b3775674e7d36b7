"""Adomian polynomial coefficients for the power nonlinearity k -> k**mu.

With the generalized power-series ansatz k = sum_n c_n * t**(n*alpha), every
order-n Adomian polynomial of k**mu collapses to a single monomial
a_n * t**(n*alpha), where a_n is the n-th coefficient of the formal power
series (sum_i c_i x**i)**mu.  That scalar sequence is what this module
computes, by the Miller recurrence.  An independent finite-difference
oracle lives in the test suite (tests/adomian_fd_oracle.py).

The collapse relies on each series term being a single monomial in t**alpha,
which holds for this model's ansatz but is not a property of Adomian
polynomials in general.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["adomian_power_coeffs"]


def adomian_power_coeffs(mu: float, c: Sequence[float]) -> list[float]:
    """Coefficients of (sum_i c_i x**i)**mu via the Miller recurrence.

    a_0 = c_0**mu and, for n >= 1,

        a_n = (1 / (n c_0)) * sum_{j=1..n} (j*mu - (n - j)) c_j a_{n-j}.

    Exact for analytic nonlinearities, O(N^2), and identical term-by-term to
    the Adomian polynomials of k**mu under the homogeneous series ansatz.
    """
    if not c:
        raise ValueError("coefficient vector must be non-empty")
    c0 = c[0]
    if not c0 > 0:
        raise ValueError(f"leading coefficient must be positive, got {c0}")
    a = [c0 ** mu]
    for n in range(1, len(c)):
        s = 0.0
        for j in range(1, n + 1):
            s += (j * mu - (n - j)) * c[j] * a[n - j]
        a.append(s / (n * c0))
    return a
