"""Log-gamma for real x > 0.

Every series coefficient, the ABM weights and the transform oracles funnel
through ``ln_gamma``: the Lanczos approximation on [1e-3, 1e4] and, below
1e-3, ln Gamma(x) = ln Gamma(x + 1) - ln x, which keeps it finite and
accurate down to the smallest positive double.  Only ``math`` does the
arithmetic.  The Mittag-Leffler function lives in ``transforms``, its only
caller, so a series request compiles none of it.
"""

from __future__ import annotations

import math

__all__ = ["ln_gamma"]

# Lanczos approximation, g = 7, 9 terms.  Relative accuracy is a few ulp,
# comfortably within the 1e-12 budget on [1e-3, 1e4].
_LANCZOS_G = 7.0
_LANCZOS_COEFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Below this the Lanczos sum's first term c/(x - 1.0 + 1) loses x's digits,
# and it divides by zero for x under 1.1e-16, so ln Gamma(x + 1) - ln x is used.
_LN_GAMMA_SHIFT_BELOW = 1e-3


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (Lanczos, g=7, 9 terms;
    ln Gamma(x + 1) - ln x below 1e-3)."""
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    if x < _LN_GAMMA_SHIFT_BELOW:
        return ln_gamma(x + 1.0) - math.log(x)
    acc = _LANCZOS_COEFS[0]
    for i, c in enumerate(_LANCZOS_COEFS[1:], start=1):
        acc += c / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(acc)
