"""Gamma-family and Mittag-Leffler evaluation.

Every series coefficient and every transform oracle in this package funnels
through ``ln_gamma`` / ``gamma_ratio``; ``mittag_leffler`` backs the transform
identity checks. All functions are pure and thread-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "MLParams",
    "ln_gamma",
    "gamma_ratio",
    "mittag_leffler",
    "ML_Z_MAX_POS",
    "ML_Z_MAX_NEG",
    "ML_ALPHA_MIN_NEG",
]

# Lanczos approximation, g = 7, 9 terms.  Relative accuracy is a few ulp for
# real x > 0, comfortably within the 1e-12 budget on [1e-3, 1e4].
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

# Supported Mittag-Leffler domain.  Positive arguments additionally require
# the value to be representable in double precision (z**(1/alpha) bounded).
# Negative arguments are limited by Taylor cancellation; three routes cover
# them (double Taylor, asymptotic tail expansion, arbitrary precision), so
# the negative cap is generous.  alpha = 1 is the exponential exactly.
ML_Z_MAX_POS = 50.0
ML_Z_MAX_NEG = 100.0
ML_ALPHA_MIN_NEG = 0.3
_ML_OVERFLOW_EXPONENT = 700.0  # exp(700) is near the double-precision ceiling
_ML_DOUBLE_PEAK_LIMIT = math.log(1e3)  # accumulated eps * peak stays below ~1e-12
_ML_ASYM_TERM_TOL = 1e-12
_ML_SPECTRAL_AGREE_TOL = 1e-12


@dataclass(frozen=True)
class MLParams:
    """Order and argument for a Mittag-Leffler evaluation."""

    alpha: float
    z: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"Mittag-Leffler order must be positive, got {self.alpha}")
        if not math.isfinite(self.z):
            raise ValueError(f"Mittag-Leffler argument must be finite, got {self.z}")


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (Lanczos, g=7, 9 terms)."""
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    acc = _LANCZOS_COEFS[0]
    for i, c in enumerate(_LANCZOS_COEFS[1:], start=1):
        acc += c / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(acc)


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) via the log domain, immune to overflow of either factor."""
    if not (a > 0 and b > 0):
        raise ValueError(f"gamma_ratio requires positive arguments, got a={a}, b={b}")
    return math.exp(ln_gamma(a) - ln_gamma(b))


def _ml_peak_log_term(alpha: float, absz: float) -> float:
    """Log of the largest Taylor term of E_alpha at |z|.

    The continuous maximiser of n*log|z| - lnGamma(alpha*n + 1) sits near
    n* = |z|**(1/alpha) / alpha; evaluating there is accurate enough for the
    precision/overflow guards this feeds.
    """
    if absz <= 1.0:
        return 0.0
    n_star = max(1.0, absz ** (1.0 / alpha) / alpha)
    return n_star * math.log(absz) - ln_gamma(alpha * n_star + 1.0)


def _ml_taylor_double(alpha: float, z: float) -> float:
    """Compensated (Kahan) Taylor summation in double precision."""
    total = 1.0
    comp = 0.0
    term = 1.0
    n = 0
    while True:
        n += 1
        # term_n = z**n / Gamma(alpha*n + 1)
        term = term * z * gamma_ratio(alpha * (n - 1) + 1.0, alpha * n + 1.0)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-16 * max(1.0, abs(total)) and n * alpha > abs(z) ** (1.0 / alpha):
            break
        if n > 100000:
            break
    return total


def _ml_taylor_mp(alpha: float, z: float, extra_digits: int) -> float:
    """Arbitrary-precision Taylor summation for the cancellation-heavy region."""
    import mpmath as mp

    with mp.workdps(25 + extra_digits):
        a = mp.mpf(alpha)
        zz = mp.mpf(z)
        total = mp.mpf(1)
        power = mp.mpf(1)
        n = 1
        while True:
            power *= zz
            term = power / mp.gamma(a * n + 1)
            total += term
            if abs(term) < mp.mpf(10) ** (-(25 + extra_digits)) * max(1, abs(total)) and n * alpha > abs(z) ** (1.0 / alpha):
                break
            n += 1
            if n > 500000:
                break
        return float(total)


def _ml_asymptotic_negative(alpha: float, z: float) -> tuple[float, float]:
    """Large-|z| tail expansion for z < 0, 0 < alpha < 1.

    E_alpha(z) ~ sum_{m>=1} (-1)^{m+1} |z|**(-m) / Gamma(1 - alpha*m).

    The series is asymptotic: terms shrink, then diverge.  Sums up to the
    smallest term and returns (value, smallest_term) so the caller can judge
    whether the achievable accuracy suffices.  1/Gamma at negative arguments
    is computed through the reflection formula in the log domain.
    """
    x = -z
    log_x = math.log(x)
    total = 0.0
    smallest = math.inf
    prev_env = math.inf
    for m in range(1, 80):
        s = alpha * m
        # 1/Gamma(1 - s) = sin(pi*(1 - s)) * Gamma(s) / pi
        sin_term = math.sin(math.pi * (1.0 - s))
        log_env = ln_gamma(s) - m * log_x - math.log(math.pi)
        if log_env > 700.0:
            break
        # Truncation quality is governed by the sin-free envelope: sin can
        # pass near zero and produce a deceptively tiny individual term.
        env = math.exp(log_env)
        if env > prev_env:
            break  # divergence onset; stop before the smallest term is lost
        total += (-1) ** (m + 1) * sin_term * env
        prev_env = env
        smallest = min(smallest, env)
        if env < 1e-18:
            break
    return total, smallest


def _ml_spectral_negative(alpha: float, z: float, n: int) -> float:
    """Spectral (complete-monotonicity) integral for z < 0, 0 < alpha < 1.

    E_alpha(-x) = integral_0^inf exp(-r * x**(1/alpha)) * K(r) dr with the
    spectral density

        K(r) = (1/pi) * r**(alpha-1) * sin(alpha*pi)
               / (r**(2*alpha) + 2 * r**alpha * cos(alpha*pi) + 1).

    Evaluated by a double-exponential rule after scaling r so the
    exponential decay has unit rate.  The kernel narrows into a spike as
    alpha -> 1; callers must compare two node counts and fall back when
    they disagree.
    """
    import numpy as np

    x = -z
    scale = x ** (1.0 / alpha)
    u = np.linspace(-4.5, 4.5, n)
    h = u[1] - u[0]
    s = np.exp(u - np.exp(-u))  # s = r * scale
    jac = h * s * (1.0 + np.exp(-u))
    r = s / scale
    sin_a = math.sin(alpha * math.pi)
    cos_a = math.cos(alpha * math.pi)
    density = (r ** (alpha - 1.0) * sin_a / math.pi) / (
        r ** (2.0 * alpha) + 2.0 * r ** alpha * cos_a + 1.0
    )
    return float(np.dot(jac, np.exp(-s) * density / scale))


def mittag_leffler(p: MLParams) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) on the supported domain.

    Route selection: exp(z) at alpha = 1; compensated double-precision Taylor
    while the peak term leaves enough significand for 1e-10 absolute accuracy;
    the asymptotic tail expansion for strongly negative z with alpha < 1; and
    arbitrary-precision Taylor summation for the remaining cancellation band.
    Raises ValueError outside the supported (alpha, z) region so the caller
    can fall back to a numerical solver or reduce t.
    """
    return _ml_eval(p.alpha, p.z)


@functools.lru_cache(maxsize=65536)
def _ml_eval(alpha: float, z: float) -> float:
    # Memoised: the verification quadratures re-evaluate the same (alpha, z)
    # pairs across refinement levels and complementary identities.
    if not 0 < alpha <= 2:
        raise ValueError(f"Mittag-Leffler order outside supported (0, 2], got {alpha}")
    if z > ML_Z_MAX_POS:
        raise ValueError(f"argument {z} exceeds supported maximum {ML_Z_MAX_POS}")
    if alpha == 1.0:
        if z < -_ML_OVERFLOW_EXPONENT:
            return 0.0
        return math.exp(z)
    if z < -ML_Z_MAX_NEG:
        raise ValueError(f"argument {z} below supported minimum {-ML_Z_MAX_NEG}")
    if z < 0 and alpha < ML_ALPHA_MIN_NEG:
        raise ValueError(
            f"negative arguments require alpha >= {ML_ALPHA_MIN_NEG}, got alpha={alpha}"
        )
    if z == 0.0:
        return 1.0

    peak = _ml_peak_log_term(alpha, abs(z))
    if z > 0:
        if peak > _ML_OVERFLOW_EXPONENT:
            raise ValueError(
                f"E_{alpha}({z}) overflows double precision (peak log-term {peak:.1f})"
            )
        return _ml_taylor_double(alpha, z)
    if peak <= _ML_DOUBLE_PEAK_LIMIT:
        return _ml_taylor_double(alpha, z)
    if alpha < 1.0:
        value, smallest_term = _ml_asymptotic_negative(alpha, z)
        if smallest_term <= _ML_ASYM_TERM_TOL:
            return value
        coarse = _ml_spectral_negative(alpha, z, 400)
        fine = _ml_spectral_negative(alpha, z, 800)
        if abs(fine - coarse) <= _ML_SPECTRAL_AGREE_TOL:
            return fine
    # Residual band (alpha near 1, where the spectral kernel is a spike):
    # the Taylor series there needs only ~|z| terms, so extended precision
    # stays cheap.
    extra = int(peak / math.log(10.0)) + 10
    return _ml_taylor_mp(alpha, z, extra)
