"""Adomian polynomial coefficients for the power nonlinearity k -> k**mu.

With the generalized power-series ansatz k = sum_n c_n * t**(n*alpha), every
order-n Adomian polynomial of k**mu collapses to a single monomial
a_n * t**(n*alpha), where a_n is the n-th coefficient of the formal power
series (sum_i c_i x**i)**mu.  That scalar sequence is what this module
computes, by the Miller recurrence, one term at a time: ``miller_step`` adds
a_n in O(n), so N terms cost O(N^2).  An independent finite-difference
oracle lives in the test suite (tests/adomian_fd_oracle.py).

The collapse relies on each series term being a single monomial in t**alpha,
which holds for this model's ansatz but is not a property of Adomian
polynomials in general.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["adomian_power_coeffs", "miller_step"]


def miller_step(mu: float, c: Sequence[float], a: Sequence[float]) -> float:
    """The next coefficient a_n, n = len(a) >= 1, of (sum_i c_i x**i)**mu:

        a_n = (1 / (n c_0)) * sum_{j=1..n} (j*mu - (n - j)) c_j a_{n-j}.

    It reads only c_0..c_n and a_0..a_{n-1}, so a prefix of c fixes the same
    prefix of a, term for term.
    """
    n = len(a)
    s = 0.0
    for j in range(1, n + 1):
        s += (j * mu - (n - j)) * c[j] * a[n - j]
    return s / (n * c[0])


def adomian_power_coeffs(mu: float, c: Sequence[float]) -> list[float]:
    """Coefficients a_0..a_{len(c)-1} of (sum_i c_i x**i)**mu.

    a_0 = c_0**mu and each later term is one ``miller_step``.  Exact for
    analytic nonlinearities, O(N^2), and identical term-by-term to the
    Adomian polynomials of k**mu under the homogeneous series ansatz.
    """
    if not c:
        raise ValueError("coefficient vector must be non-empty")
    c0 = c[0]
    if not c0 > 0:
        raise ValueError(f"leading coefficient must be positive, got {c0}")
    a = [c0 ** mu]
    for _ in range(1, len(c)):
        a.append(miller_step(mu, c, a))
    return a
