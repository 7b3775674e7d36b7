"""Gamma-family and Mittag-Leffler evaluation.

Every series coefficient and every transform oracle in this package funnels
through ``ln_gamma``; ``mittag_leffler``'s kernel ``_ml_eval`` backs the
transform identity checks, which evaluate it once per quadrature node.
E_alpha(z) is served where the package evaluates it, 0 < alpha <= 1 and
z <= 0, by three routes: exp at alpha = 1, a compensated Taylor sum on
[-0.5, 0], and a trapezoid rule on a Hankel-type contour for z < -0.5.
Only ``math`` and ``cmath`` do the arithmetic.

What depends on alpha alone is computed once per alpha and kept in an
immutable table for the 8 most recently used orders: the contour's 33 pairs
(weight * s**alpha, s**alpha), and the Taylor sum's gamma ratios
Gamma(alpha*(n-1) + 1) / Gamma(alpha*n + 1), as many as any z in [-0.5, 0]
needs.  Each z then costs one complex division per contour node and no
cmath.exp, or no ln_gamma call per Taylor term, with products and sums in
the same order as without the tables, so the values are bit for bit the
same.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import functools
import math

from .model import Record

__all__ = [
    "MLParams",
    "ln_gamma",
    "mittag_leffler",
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

# Below this |z| the Taylor sum is used for every alpha: the contour's error
# is up to 3e-13 absolute everywhere, so near z = 0 it can return values above 1.
_ML_TAYLOR_ABS_Z = 0.5
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


@functools.lru_cache(maxsize=_ML_TABLE_ALPHAS)
def _ml_taylor_table(alpha: float) -> tuple[float, ...]:
    """ratios[n-1] = Gamma(alpha*(n-1) + 1) / Gamma(alpha*n + 1) for n = 1, 2, ...

    The table ends once the running bound 0.5**n * prod(ratios) is <= 1e-16.
    Float multiplication is monotone, so at |z| <= 0.5 every term of
    `_ml_taylor_double` is at or below that bound, and its stop rule has
    fired by the last entry: the rule's second clause,
    n*alpha > |z|**(1/alpha), holds from n = 1, as |z|**(1/alpha)/alpha <= 0.53.
    """
    ratios = []
    ln_gamma_last = ln_gamma(1.0)
    bound = 1.0
    while bound > 1e-16:
        ln_gamma_n = ln_gamma(alpha * (len(ratios) + 1) + 1.0)
        ratio = math.exp(ln_gamma_last - ln_gamma_n)
        ratios.append(ratio)
        ln_gamma_last = ln_gamma_n
        bound = bound * _ML_TAYLOR_ABS_Z * ratio
    return tuple(ratios)


def _ml_taylor_double(alpha: float, z: float) -> float:
    """Compensated (Kahan) Taylor summation in double precision, for -0.5 <= z <= 0."""
    total = 1.0
    comp = 0.0
    term = 1.0
    for n, ratio in enumerate(_ml_taylor_table(alpha), start=1):
        # term_n = z**n / Gamma(alpha*n + 1)
        term = term * z * ratio
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-16 * max(1.0, abs(total)) and n * alpha > abs(z) ** (1.0 / alpha):
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
    """One-parameter Mittag-Leffler function E_alpha(z) for 0 < alpha <= 1, z <= 0.

    Routes: exp(z) at alpha = 1; for alpha < 1, the contour integral for
    z < -0.5 and the compensated double-precision Taylor sum on [-0.5, 0].
    The contour's error bound, 3e-13, is absolute, so a value below ~1e-10
    (alpha near 1, z << 0) has no relative accuracy.  Raises ValueError for
    alpha outside (0, 1] and for z > 0 or NaN.
    """
    return _ml_eval(p.alpha, p.z)


def _ml_eval(alpha: float, z: float) -> float:
    if not 0 < alpha <= 1:
        raise ValueError(f"Mittag-Leffler order outside supported (0, 1], got {alpha}")
    if not z <= 0:
        raise ValueError(f"Mittag-Leffler argument outside supported z <= 0, got {z}")
    if alpha == 1.0:
        return math.exp(z)  # underflows to 0.0 without raising
    if z < -_ML_TAYLOR_ABS_Z:
        return _ml_contour(alpha, z)
    return _ml_taylor_double(alpha, z)
