"""The classical reference solution and the Gauss-Legendre rule.

`exact_classical_value` is k(t) at alpha = 1 from the Bernoulli substitution
v = k**(1-mu), which linearizes dk/dt = p*k**mu - q*k.  `_leggauss` serves the
ABM's history modes and `verify`'s convolution check.  Both live apart from
the ABM, so that `exact` solves and `verify` compile none of its code.
"""

from __future__ import annotations

import functools
import math

from .model import ModelParams

__all__ = ["exact_classical_value"]


def exact_classical_value(params: ModelParams, t: float) -> float:
    """Closed-form k(t) for alpha = 1.

    k(t) = v**(1/(1-mu)) with v = v0 + (p/q - v0) * (1 - exp(-q*(1-mu)*t))
    and v0 = k0**(1-mu).  1 - exp(-x) is -expm1(-x), so a small q*(1-mu)*t
    does not cancel.  Verified against an adaptive ODE integrator in the test
    suite before anything else relies on it.  ValueError at alpha != 1;
    OverflowError past double range.
    """
    if params.alpha != 1.0:
        raise ValueError(f"exact classical solver requires alpha = 1, got {params.alpha}")
    one_minus_mu = 1.0 - params.mu
    v0 = params.k0 ** one_minus_mu
    v = v0 + (params.p / params.q - v0) * -math.expm1(-params.q * one_minus_mu * t)
    try:
        k = v ** (1.0 / one_minus_mu)
    except OverflowError:
        k = math.inf
    if not k < math.inf:  # inf, or nan from p/q = inf
        raise OverflowError(f"exact k(t) = v**(1/(1-mu)) overflows double precision "
                            f"at p={params.p}, q={params.q}, mu={params.mu}")
    return k


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=8)
def _leggauss(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from the Tricomi-type guess cos(pi(i+3/4)/(n+1/2))
    for each positive root; the negative roots are their mirror images.
    """
    positive = []  # descending
    for i in range(nodes // 2):
        x = math.cos(math.pi * (i + 0.75) / (nodes + 0.5))
        for _ in range(100):
            p, dp = _legendre(nodes, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        positive.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    center = [(0.0, 2.0 / _legendre(nodes, 0.0)[1] ** 2)] if nodes % 2 else []
    pairs = [(-x, w) for x, w in positive] + center + positive[::-1]
    return tuple(x for x, _ in pairs), tuple(w for _, w in pairs)
