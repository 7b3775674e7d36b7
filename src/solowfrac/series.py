"""Truncated transform/decomposition series solution of the model.

The solution is sought as a generalized power series

    k(t) = sum_{n=0..N} c_n * t**(n*alpha),

whose coefficients follow from the variational-iteration scheme in transform
space combined with the Adomian decomposition of the k**mu nonlinearity.
Inverting the monomial transform at each order gives the scalar recursion

    c_0     = k0,
    c_{n+1} = (p * a_n - q * c_n) * Gamma(n*alpha + 1) / Gamma((n+1)*alpha + 1),

with a_n the Adomian coefficient of k**mu at order n.  For alpha = 1 this is
the classical Taylor recursion c_{n+1} = (p*a_n - q*c_n) / (n+1).

The ansatz's Adomian coefficients collapse to one O(n) ``miller_step`` each.

The series is a local expansion: evaluations carry a trust flag based on the
size of the last retained term.
"""

from __future__ import annotations

import math

from .model import ModelParams

__all__ = [
    "build_series",
    "check_order",
    "eval_series",
    "miller_step",
    "DEFAULT_ORDER",
    "MAX_ORDER",
    "TRUST_TOL",
]

DEFAULT_ORDER = 5
MAX_ORDER = 64
# Measured, not derived: at alpha = 1 and order 5 over p in [0.2, 1],
# q in [0.1, 0.4], mu in [0.1, 0.9], k0 in [0.5, 2], t in [0, 2], 0.02 keeps
# trusted points within 1e-2 of the exact solution (tests/test_series.py);
# 0.05 let them drift up to 2.6e-2.  Outside that box the rule has no stated bound.
TRUST_TOL = 0.02


def check_order(order: int) -> None:
    """Reject a truncation order outside [1, MAX_ORDER]."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")


def miller_step(mu: float, c: list[float], a: list[float]) -> float:
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


def build_series(params: ModelParams, order: int = DEFAULT_ORDER) -> tuple[float, ...]:
    """Series coefficients c_0 = k0, ..., c_order, in O(order^2); c_n multiplies
    t**(n*alpha).

    ArithmeticError names the first order whose coefficient is not finite.
    """
    check_order(order)
    alpha, mu, p, q = params.alpha, params.mu, params.p, params.q
    c = [params.k0]
    a = [params.k0 ** mu]
    # An initial condition exactly on a fixed point must yield an exactly
    # constant series, so the first rate is pinned to zero in that case and
    # the recursion propagates the zeros on its own.
    rate = 0.0 if params.at_equilibrium() else params.rhs(params.k0)
    gamma_n = 1.0  # Gamma(n*alpha + 1) at n = 0
    for n in range(order):
        if n:
            a.append(miller_step(mu, c, a))
            rate = p * a[n] - q * c[n]
        # Gamma(n*alpha + 1) / Gamma((n+1)*alpha + 1); arguments <= 65, Gamma overflows past 171.6
        gamma_next = math.gamma((n + 1) * alpha + 1.0)
        c.append(rate * (gamma_n / gamma_next))
        gamma_n = gamma_next
        if not math.isfinite(c[-1]):
            raise ArithmeticError(f"series coefficient at order {n + 1} is {c[-1]}: "
                                  "the series overflows double precision")
    return tuple(c)


def eval_series(coeffs: tuple[float, ...], alpha: float, t: float) -> tuple[float, bool]:
    """Evaluate sum_n coeffs[n] * t**(n*alpha), the truncated series, at t >= 0.

    Returns (value, trusted).  The evaluation is trusted when the sum is
    finite and the last retained term is small against the value itself:

        |c_N * t**(N*alpha)| <= TRUST_TOL * |sum|.

    Against the value, not against k0: on a decaying solution the value
    falls far below k0, and a term small beside k0 is not small beside it.
    Untrusted values are returned, not rejected.
    """
    if t < 0:
        raise ValueError(f"series evaluation requires t >= 0, got {t}")
    if t == 0.0:
        return coeffs[0], True
    x = t ** alpha
    total = 0.0
    power = 1.0
    last_term = 0.0
    for c_n in coeffs:
        last_term = c_n * power
        total += last_term
        power *= x
    trusted = math.isfinite(total) and abs(last_term) <= TRUST_TOL * abs(total)
    return total, trusted
