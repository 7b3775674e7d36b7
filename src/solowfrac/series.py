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

The series is a local expansion: evaluations carry a trust flag based on the
size of the last retained term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .adomian import adomian_power_coeffs
from .model import ModelParams
from .special import gamma_ratio, ln_gamma

__all__ = [
    "SeriesSolution",
    "build_series",
    "check_order",
    "eval_series",
    "classical_taylor_check",
    "fractional_low_order_coeffs",
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


@dataclass(frozen=True)
class SeriesSolution:
    """Immutable truncated series: coeffs[n] multiplies t**(n*alpha)."""

    params: ModelParams
    order: int
    coeffs: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")


def check_order(order: int) -> None:
    """Reject a truncation order outside [1, MAX_ORDER]."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")


def build_series(params: ModelParams, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """Series coefficients up to the requested truncation order.

    ArithmeticError names the first order whose coefficient is not finite.
    """
    check_order(order)
    alpha = params.alpha
    c = [params.k0]
    # An initial condition exactly on a fixed point must yield an exactly
    # constant series, so the first rate is pinned to zero in that case and
    # the recursion propagates the zeros on its own.
    rate0 = 0.0 if params.at_equilibrium() else params.rhs(params.k0)
    for n in range(order):
        if n == 0:
            rate = rate0
        else:
            a = adomian_power_coeffs(params.mu, c)
            rate = params.p * a[n] - params.q * c[n]
        c.append(rate * gamma_ratio(n * alpha + 1.0, (n + 1) * alpha + 1.0))
        if not math.isfinite(c[-1]):
            raise ArithmeticError(f"series coefficient at order {n + 1} is {c[-1]}: "
                                  "the series overflows double precision")
    return SeriesSolution(params=params, order=order, coeffs=tuple(c))


def eval_series(sol: SeriesSolution, t: float) -> tuple[float, bool]:
    """Evaluate the truncated series at t >= 0.

    Returns (value, trusted).  The evaluation is trusted when the last
    retained term is small against the solution scale:

        |c_N * t**(N*alpha)| / max(|k0|, |sum|) <= TRUST_TOL.

    Untrusted values are returned, not rejected.
    """
    if t < 0:
        raise ValueError(f"series evaluation requires t >= 0, got {t}")
    alpha = sol.params.alpha
    if t == 0.0:
        return sol.coeffs[0], True
    x = t ** alpha
    total = 0.0
    power = 1.0
    last_term = 0.0
    for c_n in sol.coeffs:
        last_term = c_n * power
        total += last_term
        power *= x
    scale = max(abs(sol.params.k0), abs(total))
    trusted = abs(last_term) <= TRUST_TOL * scale
    return total, trusted


def classical_taylor_check(params: ModelParams, order: int = 3) -> list[float]:
    """Closed-form Taylor coefficients of the classical (alpha = 1) model.

    Derived directly from the ODE: with B = p*k0**mu - q*k0 and
    D = p*mu*k0**(mu-1) - q,

        c1 = B
        c2 = B * D / 2!
        c3 = B * (D**2 + p*mu*(mu-1)*k0**(mu-2) * B) / 3!

    Only orders up to 3 have been worked out by hand; this exists purely to
    cross-check ``build_series``.
    """
    if params.alpha != 1.0:
        raise ValueError("classical Taylor check requires alpha = 1")
    if not 1 <= order <= 3:
        raise ValueError(f"closed forms are available for order in [1, 3], got {order}")
    p, q, mu, k0 = params.p, params.q, params.mu, params.k0
    b = 0.0 if params.at_equilibrium() else params.rhs(k0)
    d = params.rhs_derivative(k0)
    out = [k0, b]
    if order >= 2:
        out.append(b * d / 2.0)
    if order >= 3:
        out.append(b * (d * d + p * mu * (mu - 1.0) * k0 ** (mu - 2.0) * b) / 6.0)
    return out


def fractional_low_order_coeffs(params: ModelParams) -> list[float]:
    """Closed forms of c0..c3 for arbitrary alpha, from the exact recursion.

    With B, D as in ``classical_taylor_check``:

        c1 = B / Gamma(alpha + 1)
        c2 = B * D / Gamma(2*alpha + 1)
        c3 = B * (D**2 + (p*mu*(mu-1)/2) * k0**(mu-2) * B * R) / Gamma(3*alpha + 1)

    where R = Gamma(2*alpha + 1) / Gamma(alpha + 1)**2 is the factor the
    curvature (c1**2) contribution picks up from the monomial transforms.
    R = 2 at alpha = 1, reducing c3 to the classical Taylor coefficient.
    """
    p, q, mu, alpha, k0 = params.p, params.q, params.mu, params.alpha, params.k0
    b = 0.0 if params.at_equilibrium() else params.rhs(k0)
    d = params.rhs_derivative(k0)
    g1 = math.exp(ln_gamma(alpha + 1.0))
    g2 = math.exp(ln_gamma(2.0 * alpha + 1.0))
    g3 = math.exp(ln_gamma(3.0 * alpha + 1.0))
    r = g2 / (g1 * g1)
    c1 = b / g1
    c2 = b * d / g2
    c3 = b * (d * d + 0.5 * p * mu * (mu - 1.0) * k0 ** (mu - 2.0) * b * r) / g3
    return [k0, c1, c2, c3]
