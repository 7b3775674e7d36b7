"""Fixed points of the model and their stability classification."""

from __future__ import annotations

from .model import ModelParams

__all__ = ["find_equilibria"]

UNSTABLE = "unstable"
STABLE = "asymptotically stable"


def find_equilibria(params: ModelParams) -> dict:
    """Both fixed points of p*k**mu - q*k with stability by linearization.

    Returns the dict with keys `k_zero_stability`, `k_star`,
    `k_star_stability`, `derivative_at_star` and `inflection_candidate`.
    The sign of d/dk [p*k**mu - q*k] at the fixed point decides: positive
    means unstable, negative asymptotically stable.  At k_star the derivative
    equals q*(mu - 1) < 0, taken in that form, so it stays finite where k_star
    underflows to 0.  At k = 0 the derivative diverges to +inf for mu < 1 (any
    small positive perturbation grows), hence unstable.

    `inflection_candidate` is the capital level maximizing the growth rate,
    (p*mu/q)**(1/(1-mu)); trajectories starting below it have their steepest
    ascent there.  It is reported alongside the equilibria and is distinct
    from k_star whenever mu < 1.
    """
    return {
        "k_zero_stability": UNSTABLE,
        "k_star": params.k_star,
        "k_star_stability": STABLE,
        "derivative_at_star": params.q * (params.mu - 1.0),
        "inflection_candidate": (params.p * params.mu / params.q) ** (1.0 / (1.0 - params.mu)),
    }
