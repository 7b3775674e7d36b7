"""Fixed points of the model and their stability classification."""

from __future__ import annotations

from .model import ModelParams, Record

__all__ = ["EquilibriumReport", "find_equilibria"]

UNSTABLE = "unstable"
STABLE = "asymptotically stable"


class EquilibriumReport(Record):
    """Fixed points with linearization-based stability classification.

    `inflection_candidate` is the capital level maximizing the growth rate,
    (p*mu/q)**(1/(1-mu)); trajectories starting below it have their steepest
    ascent there.  It is reported alongside the equilibria and is distinct
    from k_star whenever mu < 1.
    """

    __slots__ = ("k_zero_stability", "k_star", "k_star_stability", "derivative_at_star",
                 "inflection_candidate")


def find_equilibria(params: ModelParams) -> EquilibriumReport:
    """Both fixed points of p*k**mu - q*k with stability by linearization.

    The sign of d/dk [p*k**mu - q*k] at the fixed point decides: positive
    means unstable, negative asymptotically stable.  At k_star the derivative
    equals q*(mu - 1) < 0, taken in that form, so it stays finite where k_star
    underflows to 0.  At k = 0 the derivative diverges to +inf for mu < 1 (any
    small positive perturbation grows), hence unstable.
    """
    k_star = params.k_star
    return EquilibriumReport(
        k_zero_stability=UNSTABLE,
        k_star=k_star,
        k_star_stability=STABLE,
        derivative_at_star=params.q * (params.mu - 1.0),
        inflection_candidate=(params.p * params.mu / params.q) ** (1.0 / (1.0 - params.mu)),
    )

