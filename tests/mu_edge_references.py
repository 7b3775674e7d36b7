"""Exact alpha < 1 solutions of the model at the edges of mu.

At mu = 0 the model is linear, D^alpha k = p - q*k, with
k = p/q + (k0 - p/q) * E_alpha(-q t^alpha).  At mu = 1 it is
D^alpha k = (p - q) * k, with k = k0 * E_alpha((p - q) t^alpha); p < q keeps
the argument <= 0 (Kilbas, Srivastava & Trujillo, 2006, ch. 4; Podlubny,
Fractional Differential Equations, 1999).  `ModelParams` admits mu = EDGE_EPS
and mu = 1 - EDGE_EPS, where k**mu differs from the edge by O(EDGE_EPS * |ln k|),
so these are the solutions of those parameter sets to about 1e-14.  E_alpha
is `transforms.mittag_leffler`, which the suite gates against 40-digit values.
"""

import pytest

from solowfrac.model import ModelParams
from solowfrac.transforms import mittag_leffler

EDGE_EPS = 1e-14


def linear_edge_value(params: ModelParams, t: float) -> float:
    """k(t) at mu = EDGE_EPS: p/q + (k0 - p/q) * E_alpha(-q t^alpha)."""
    if params.mu != EDGE_EPS:
        raise ValueError(f"linear edge needs mu = {EDGE_EPS}, got {params.mu}")
    ratio = params.p / params.q
    return ratio + (params.k0 - ratio) * mittag_leffler(params.alpha, -params.q * t ** params.alpha)


def power_edge_value(params: ModelParams, t: float) -> float:
    """k(t) at mu = 1 - EDGE_EPS and p < q: k0 * E_alpha((p - q) t^alpha)."""
    if params.mu != 1.0 - EDGE_EPS or not params.p < params.q:
        raise ValueError(f"power edge needs mu = 1 - {EDGE_EPS} and p < q, got {params}")
    return params.k0 * mittag_leffler(params.alpha, (params.p - params.q) * t ** params.alpha)


def edge_cases(alphas, edges=("mu0", "mu1")):
    """(params, reference) for pytest at each alpha and edge, k0 on both sides of p/q."""
    return [
        pytest.param(ModelParams(p=p, q=q, mu=mu, alpha=alpha, k0=k0), reference,
                     id=f"{name}-alpha={alpha:g}-k0={k0:g}")
        for name, p, q, mu, reference in [("mu0", 0.5, 0.2, EDGE_EPS, linear_edge_value),
                                          ("mu1", 0.2, 0.5, 1.0 - EDGE_EPS, power_edge_value)]
        if name in edges
        for alpha in alphas
        for k0 in (0.5, 4.0)
    ]


EDGE_CASES = edge_cases((0.3, 0.5, 0.8, 0.95))
