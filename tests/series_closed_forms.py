"""Hand-derived closed forms of the low-order series coefficients.

They come from the model equation directly and share no code with the
series engine (`solowfrac.series.build_series`) that they check.
"""

import math

from solowfrac.model import ModelParams
from solowfrac.special import ln_gamma


def rhs_derivative(params: ModelParams, k: float) -> float:
    """d/dk of the model's right-hand side p*k**mu - q*k."""
    return params.p * params.mu * k ** (params.mu - 1.0) - params.q


def classical_taylor_check(params: ModelParams, order: int = 3) -> list[float]:
    """Closed-form Taylor coefficients of the classical (alpha = 1) model.

    Derived directly from the ODE: with B = p*k0**mu - q*k0 and
    D = p*mu*k0**(mu-1) - q,

        c1 = B
        c2 = B * D / 2!
        c3 = B * (D**2 + p*mu*(mu-1)*k0**(mu-2) * B) / 3!

    Only orders up to 3 have been worked out by hand.
    """
    if params.alpha != 1.0:
        raise ValueError("classical Taylor check requires alpha = 1")
    if not 1 <= order <= 3:
        raise ValueError(f"closed forms are available for order in [1, 3], got {order}")
    p, q, mu, k0 = params.p, params.q, params.mu, params.k0
    b = 0.0 if params.at_equilibrium() else params.rhs(k0)
    d = rhs_derivative(params, k0)
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
    d = rhs_derivative(params, k0)
    g1 = math.exp(ln_gamma(alpha + 1.0))
    g2 = math.exp(ln_gamma(2.0 * alpha + 1.0))
    g3 = math.exp(ln_gamma(3.0 * alpha + 1.0))
    r = g2 / (g1 * g1)
    c1 = b / g1
    c2 = b * d / g2
    c3 = b * (d * d + 0.5 * p * mu * (mu - 1.0) * k0 ** (mu - 2.0) * b * r) / g3
    return [k0, c1, c2, c3]
