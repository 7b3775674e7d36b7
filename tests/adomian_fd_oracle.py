"""The Adomian coefficients of k -> k**mu, two ways, for the tests.

`adomian_power_coeffs` runs the Miller recurrence that `build_series` uses
(`solowfrac.series.miller_step`) over a whole coefficient vector.
`adomian_bruteforce_oracle` differentiates x -> (sum_i c_i x**i)**mu at
x = 0 directly, in extended precision, so it shares no code with the
recurrence it checks.
"""

import math
import warnings
from collections.abc import Sequence

import mpmath as mp

from solowfrac.series import miller_step

FD_ACCURACY_LIMIT = 6  # finite differences degrade quickly past the 6th derivative
# Small step + extended precision: the surviving truncation term scales like
# a_{n+6} * h**6, and a_{n+6} can reach ~1e7 when the random polynomial has a
# zero near the origin.  h = 1e-3 pushes that term below 1e-10 while 50-digit
# evaluation removes the subtraction round-off that would otherwise dominate.
FD_STEP = 1e-3
FD_DPS = 50


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


def _central_derivative(f, n: int, h) -> mp.mpf:
    """Central-difference estimate of the n-th derivative of f at 0."""
    s = mp.mpf(0)
    for i in range(n + 1):
        s += (-1) ** i * math.comb(n, i) * f((mp.mpf(n) / 2 - i) * h)
    return s / h ** n


def adomian_bruteforce_oracle(mu: float, c: Sequence[float], n: int) -> float:
    """a_n by direct differentiation of x -> (sum_i c_i x**i)**mu at x = 0.

    Central differences with 3-level Richardson extrapolation (h, h/2, h/4),
    eliminating the h^2 and h^4 error terms.  Evaluated in 50-digit
    arithmetic so the step can be small enough to tame the h**6 truncation
    term without round-off taking over.  Accuracy falls off past n = 6.
    """
    if not c or not c[0] > 0:
        raise ValueError(f"leading coefficient must be positive, got {c[:1]}")
    if n > FD_ACCURACY_LIMIT:
        warnings.warn(
            f"finite-difference Adomian oracle is unreliable for n={n} > {FD_ACCURACY_LIMIT}",
            stacklevel=2,
        )
    if n == 0:
        return c[0] ** mu

    with mp.workdps(FD_DPS):
        def f(x):
            base = mp.mpf(0)
            for i in reversed(range(len(c))):
                base = base * x + c[i]
            return base ** mp.mpf(mu)

        h = mp.mpf(FD_STEP)
        d1 = _central_derivative(f, n, h)
        d2 = _central_derivative(f, n, h / 2)
        d3 = _central_derivative(f, n, h / 4)
        r1 = (4 * d2 - d1) / 3
        r2 = (4 * d3 - d2) / 3
        return float(((16 * r2 - r1) / 15) / math.factorial(n))
