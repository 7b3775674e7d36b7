"""Gamma-family and Mittag-Leffler evaluation.

Every series coefficient and every transform oracle in this package funnels
through ``ln_gamma``; ``mittag_leffler``'s kernel ``_ml_eval`` backs the
transform identity checks, which evaluate it once per quadrature node.
Two routes serve E_alpha(z) besides exp at alpha = 1: a compensated Taylor
sum near z = 0 and for z > 0, and a trapezoid rule on a Hankel-type contour
for z < 0 with alpha < 1.  Only ``math`` and ``cmath`` do the arithmetic.

What depends on alpha alone is computed once per alpha and kept in a table
for the 8 most recently used orders: the contour's 33 pairs
(weight * s**alpha, s**alpha), and the Taylor sum's gamma ratios
Gamma(alpha*(n-1) + 1) / Gamma(alpha*n + 1), grown to the longest sum yet
needed, which the sum's 100,000-term cap bounds.  Each z then costs one
complex division per contour node and no cmath.exp, or no ln_gamma call per
Taylor term, with products and sums in the same order as without the
tables, so the values are bit for bit the same.  All functions are pure and
thread-safe: a contour table is an immutable tuple, and a Taylor table
grows only under its own lock, so two threads never interleave their terms.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading

from .model import Record

__all__ = [
    "MLParams",
    "ln_gamma",
    "mittag_leffler",
    "ML_Z_MAX_POS",
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

# Supported Mittag-Leffler domain: z <= ML_Z_MAX_POS, and for z > 0 the value
# must be representable in double precision (z**(1/alpha) bounded).  alpha = 1
# is the exponential exactly.
ML_Z_MAX_POS = 50.0
_ML_OVERFLOW_EXPONENT = 700.0  # exp(700) is near the double-precision ceiling
_ML_DOUBLE_PEAK_LIMIT = math.log(1e3)  # accumulated eps * peak stays below ~1e-12
# Below this |z| the Taylor sum is used for every alpha: the contour's error
# is up to 3e-13 absolute everywhere, so near z = 0 it can return values above 1.
_ML_TAYLOR_ABS_Z = 0.5
_ML_TAYLOR_MAX_TERMS = 100000
_ML_TABLE_ALPHAS = 8  # orders whose per-alpha tables are kept


class MLParams(Record):
    """Order and argument for a Mittag-Leffler evaluation."""

    __slots__ = ("alpha", "z")

    def _validate(self):
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


def _ml_peak_log_term(alpha: float, absz: float) -> float:
    """Log of the largest Taylor term of E_alpha at |z|.

    The continuous maximiser of n*log|z| - lnGamma(alpha*n + 1) sits near
    n* = |z|**(1/alpha) / alpha; evaluating there is accurate enough for the
    precision/overflow guards this feeds.
    """
    if absz <= 1.0:
        return 0.0
    try:
        n_star = max(1.0, absz ** (1.0 / alpha) / alpha)
    except OverflowError:
        n_star = math.inf
    if n_star == math.inf:
        return math.inf  # above every guard
    return n_star * math.log(absz) - ln_gamma(alpha * n_star + 1.0)


class _TaylorRatios:
    """ratios[n-1] = Gamma(alpha*(n-1) + 1) / Gamma(alpha*n + 1) for n = 1, 2, ...

    Each ratio costs one ln_gamma call, the first time any sum at this alpha
    needs it.  Only `grow` appends, and it holds the lock, so the list never
    holds two threads' terms out of order; readers index below its length.
    """

    __slots__ = ("alpha", "ratios", "_ln_gamma_last", "_lock")

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.ratios: list[float] = []
        self._ln_gamma_last = ln_gamma(1.0)
        self._lock = threading.Lock()

    def grow(self, n: int) -> None:
        """Extend `ratios` to at least n entries."""
        with self._lock:
            while len(self.ratios) < n:
                ln_gamma_n = ln_gamma(self.alpha * (len(self.ratios) + 1) + 1.0)
                self.ratios.append(math.exp(self._ln_gamma_last - ln_gamma_n))
                self._ln_gamma_last = ln_gamma_n


@functools.lru_cache(maxsize=_ML_TABLE_ALPHAS)
def _ml_taylor_table(alpha: float) -> _TaylorRatios:
    return _TaylorRatios(alpha)


def _ml_taylor_double(alpha: float, z: float) -> float:
    """Compensated (Kahan) Taylor summation in double precision."""
    table = _ml_taylor_table(alpha)
    ratios = table.ratios
    total = 1.0
    comp = 0.0
    term = 1.0
    n = 0
    while True:
        n += 1
        if n > len(ratios):
            table.grow(n)
        # term_n = z**n / Gamma(alpha*n + 1)
        term = term * z * ratios[n - 1]
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-16 * max(1.0, abs(total)) and n * alpha > abs(z) ** (1.0 / alpha):
            break
        if n > _ML_TAYLOR_MAX_TERMS:
            break
    return total


def _ml_contour_nodes() -> tuple[tuple[complex, complex], ...]:
    """(log s, weight) at u = k*h, k = 0..n, on the parabola s = m(1 + iu)**2.

    n = 32, m = pi*n/12 and h = 3/n (Weideman & Trefethen, Math. Comp. 76,
    2007).  ds = 2im(1 + iu) du over 2*pi*i leaves m*h/pi per node, and the
    weight also holds exp(s) * (1 + iu) / s.  The integrand at -u is the
    conjugate of that at u, so u > 0 counts twice in place of k = -n..-1.
    """
    n = 32
    m = math.pi * n / 12.0
    h = 3.0 / n
    nodes = []
    for k in range(n + 1):
        w = complex(1.0, k * h)
        s = m * w * w
        weight = (1.0 if k == 0 else 2.0) * m * h / math.pi
        nodes.append((cmath.log(s), weight * cmath.exp(s) * w / s))
    return tuple(nodes)


_ML_CONTOUR = _ml_contour_nodes()


@functools.lru_cache(maxsize=_ML_TABLE_ALPHAS)
def _ml_contour_table(alpha: float) -> tuple[tuple[complex, complex], ...]:
    """(weight * s**alpha, s**alpha) at each contour node, for `_ml_contour`."""
    table = []
    for log_s, weight in _ML_CONTOUR:
        s_alpha = cmath.exp(alpha * log_s)
        table.append((weight * s_alpha, s_alpha))
    return tuple(table)


def _ml_contour(alpha: float, z: float) -> float:
    """E_alpha(z) for z < 0 and 0 < alpha < 1: the trapezoid rule for the
    Laplace inverse of s**(alpha-1) / (s**alpha - z) at t = 1 (Garrappa,
    SIAM J. Numer. Anal. 53(3), 2015).

    For z < 0 and alpha < 1 the denominator has no zero on the principal
    sheet, so the contour integral is the whole value.  Measured error:
    below 3e-13 absolute for alpha in [1e-4, 0.999], z in [-1000, -0.01].
    """
    total = 0.0
    for weighted, s_alpha in _ml_contour_table(alpha):
        total += (weighted / (s_alpha - z)).real
    return total


def mittag_leffler(p: MLParams) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) on the supported domain.

    Route selection: exp(z) at alpha = 1; a contour integral for z < -0.5
    with alpha < 1; otherwise the compensated double-precision Taylor sum,
    which for z > 0 is guarded against overflow and for z < 0 with alpha > 1
    against cancellation.  Raises ValueError outside the supported (alpha, z)
    region.
    """
    return _ml_eval(p.alpha, p.z)


def _ml_eval(alpha: float, z: float) -> float:
    if not 0 < alpha <= 2:
        raise ValueError(f"Mittag-Leffler order outside supported (0, 2], got {alpha}")
    if z > ML_Z_MAX_POS:
        raise ValueError(f"argument {z} exceeds supported maximum {ML_Z_MAX_POS}")
    if alpha == 1.0:
        return math.exp(z)  # underflows to 0.0 without raising
    if z < -_ML_TAYLOR_ABS_Z and alpha < 1.0:
        return _ml_contour(alpha, z)
    peak = _ml_peak_log_term(alpha, abs(z))
    if z > 0 and peak > _ML_OVERFLOW_EXPONENT:
        raise ValueError(
            f"E_{alpha}({z}) overflows double precision (peak log-term {peak:.1f})"
        )
    if z < 0 and peak > _ML_DOUBLE_PEAK_LIMIT:
        raise ValueError(f"E_{alpha}({z}) cancels below double precision (peak "
                         f"log-term {peak:.1f}); such negative arguments need alpha <= 1")
    return _ml_taylor_double(alpha, z)
