"""Model parameters for the capital-accumulation equation.

The state variable is the capital-labour ratio k(t), governed by

    D^alpha k = p * k**mu - q * k,    k(0) = k0,

where D^alpha is the Caputo derivative of order alpha in (0, 1] (alpha = 1
recovers the classical ODE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["ModelParams", "REFERENCE_PARAMS"]


@dataclass(frozen=True)
class ModelParams:
    """One model instance: productivity p, depreciation q, elasticity mu,
    fractional order alpha, initial capital-labour ratio k0."""

    p: float
    q: float
    mu: float
    alpha: float = 1.0
    k0: float = 1.0

    def __post_init__(self):
        check_positive("p", self.p)
        check_positive("q", self.q)
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        check_positive("k0", self.k0)

    @property
    def k_star(self) -> float:
        """Nonzero equilibrium (p/q)**(1/(1-mu)); OverflowError past double range."""
        try:
            k = (self.p / self.q) ** (1.0 / (1.0 - self.mu))
        except OverflowError:
            k = math.inf
        if k == math.inf:
            raise OverflowError(f"k_star = (p/q)**(1/(1-mu)) overflows double precision "
                                f"at p={self.p}, q={self.q}, mu={self.mu}")
        return k

    def rhs(self, k: float) -> float:
        """Right-hand side p*k**mu - q*k."""
        return self.p * k ** self.mu - self.q * k

    def rhs_derivative(self, k: float) -> float:
        """d/dk of the right-hand side."""
        return self.p * self.mu * k ** (self.mu - 1.0) - self.q

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)

    def at_equilibrium(self) -> bool:
        """True when k0 sits exactly (in floating point) on a fixed point."""
        return self.rhs(self.k0) == 0.0 or self.k0 == self.k_star


def check_positive(name: str, value: float) -> None:
    """ValueError unless `value` is positive and finite."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


# Desk-scale reference set used throughout tests and presets.
REFERENCE_PARAMS = ModelParams(p=0.5, q=0.2, mu=1.0 / 3.0, alpha=1.0, k0=1.0)


def validate_times(times) -> list[float]:
    """Strictly increasing, nonnegative time grid as a list of floats."""
    ts = [float(t) for t in times]
    if not ts:
        raise ValueError("time grid must be non-empty")
    if ts[0] < 0:
        raise ValueError(f"times must be nonnegative, got {ts[0]}")
    for a, b in zip(ts, ts[1:]):
        if not b > a:
            raise ValueError("times must be strictly increasing")
    if not all(map(math.isfinite, ts)):
        raise ValueError("times must be finite")
    return ts
