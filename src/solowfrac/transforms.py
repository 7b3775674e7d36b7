"""Numerical integral-transform kernel used as a verification surface.

The transform of interest is S[k](u) = integral_0^inf k(t*u) * exp(-t) dt.
Nothing in the solver path depends on these quadratures; they exist to
machine-check every identity the series derivation relies on: the
first-derivative rule, the Caputo rule, the convolution property and the
Mittag-Leffler transform pair.

Quadrature: double-exponential rule on the half line (t = exp(x - exp(-x))),
in pure Python: 201 nodes, checked against the 101-node rule on every
second node (step halving, Takahasi & Mori, Publ. RIMS 9, 1974).  Plain
Gauss-Laguerre was measured at only ~1e-4 accuracy for the t**alpha-type
endpoint behaviour these checks exercise, far off the 1e-6 refinement
target, so the double-exponential rule is used throughout.

The Mittag-Leffler function E_alpha(z) lives here, beside the identity
checks that are its only caller, so that only `verify` compiles it.  It is
served where the package evaluates it, 0 < alpha <= 1 and z <= 0, by three
routes: exp at alpha = 1, a compensated Taylor sum on [-0.5, 0], and a
trapezoid rule on a Hankel-type contour for z < -0.5.  What depends on
alpha alone is computed once per alpha and kept in an immutable table for
the 8 most recently used orders: the contour's 33 pairs
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
import warnings
from collections.abc import Callable, Sequence
from operator import mul

from .model import ModelParams, Record, check_positive
from .oracles import _leggauss, exact_classical_value
from .special import ln_gamma

__all__ = [
    "mittag_leffler",
    "sumudu_numeric",
    "sumudu_monomial",
    "VerificationReport",
    "verify_ml_identities",
    "verify_derivative_rule",
    "verify_convolution",
    "run_all_verifications",
]

# Below this |z| the Taylor sum is used for every alpha: the contour's error
# is up to 3e-13 absolute everywhere, so near z = 0 it can return values above 1.
_ML_TAYLOR_ABS_Z = 0.5
_ML_TABLE_ALPHAS = 8  # orders whose per-alpha tables are kept


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


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) for 0 < alpha <= 1, z <= 0.

    Routes: exp(z) at alpha = 1; for alpha < 1, the contour integral for
    z < -0.5 and the compensated double-precision Taylor sum on [-0.5, 0].
    The contour's error bound, 3e-13, is absolute, so a value below ~1e-10
    (alpha near 1, z << 0) has no relative accuracy.  Raises ValueError for
    alpha outside (0, 1] and for z > 0 or NaN.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"Mittag-Leffler order outside supported (0, 1], got {alpha}")
    if not z <= 0:
        raise ValueError(f"Mittag-Leffler argument outside supported z <= 0, got {z}")
    if alpha == 1.0:
        return math.exp(z)  # underflows to 0.0 without raising
    if z < -_ML_TAYLOR_ABS_Z:
        return _ml_contour(alpha, z)
    return _ml_taylor_double(alpha, z)


QUAD_NODES = 201  # odd, so every second node is the 101-node rule
QUAD_AGREEMENT_TOL = 1e-6
# Gauss-Legendre nodes per `_convolve`: at every DE node of weight >= 1e-30 the suite's
# pairs 1*1, t*1, exp(-t)*t are 1.0e-14 relative off their closed forms (64: 9.8e-15; 12: 8.4e-10).
CONV_NODES = 16
IDENTITY_TOL = 1e-5
_DE_LOWER, _DE_UPPER = -4.5, 4.5


@functools.lru_cache(maxsize=8)
def _de_nodes(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    h = (_DE_UPPER - _DE_LOWER) / (n - 1)
    t, weight = [], []
    for i in range(n):
        x = _DE_LOWER + i * h
        ti = math.exp(x - math.exp(-x))
        t.append(ti)
        weight.append(h * ti * (1.0 + math.exp(-x)) * math.exp(-ti))
    return tuple(t), tuple(weight)


def _de_points(u: float) -> list[float]:
    """The QUAD_NODES quadrature points t*u at which S[f](u) evaluates f."""
    if not u > 0:
        raise ValueError(f"transform variable must be positive, got {u}")
    return [ti * u for ti in _de_nodes(QUAD_NODES)[0]]


def _de_sum(values: list[float], u: float) -> float:
    """`sumudu_numeric`'s checked sum, given f's values at `_de_points(u)`."""
    terms = list(map(mul, _de_nodes(QUAD_NODES)[1], values))
    fine = math.fsum(terms)
    coarse = 2.0 * math.fsum(terms[::2])
    if abs(fine - coarse) > QUAD_AGREEMENT_TOL * max(1.0, abs(fine)):
        warnings.warn(
            f"transform quadrature refinements disagree by "
            f"{abs(fine - coarse):.2e} at u={u}",
            stacklevel=3,
        )
    return fine


def sumudu_numeric(f: Callable[[float], float], u: float) -> float:
    """Transform value S[f](u) by half-line quadrature.

    Evaluates f once at each of the QUAD_NODES (201) double-exponential nodes
    and returns the compensated sum of the full rule.  Every second node, with
    twice the weight, is the 101-node rule; a warning is issued when the two
    disagree by more than 1e-6 times max(1, |S[f](u)|): absolute below 1,
    relative above.  f must be evaluable on (0, ~90*u] and of exponential
    order below 1/u.
    """
    return _de_sum(list(map(f, _de_points(u))), u)


def sumudu_monomial(gamma: float, u: float) -> float:
    """Closed-form transform of t**gamma: Gamma(gamma + 1) * u**gamma."""
    if gamma < 0:
        raise ValueError(f"monomial exponent must be nonnegative, got {gamma}")
    if not u > 0:
        raise ValueError(f"transform variable must be positive, got {u}")
    if gamma == 0.0:
        return 1.0
    return math.exp(ln_gamma(gamma + 1.0)) * u ** gamma


class VerificationReport(Record):
    """Per-point deviations of one identity check, filled in by `add`.

    The one record whose content grows: `rows` is a list, so a report is not
    hashable, and each report starts with a list of its own.
    """

    __slots__ = ("name", "tol", "rows")

    def __init__(self, name: str, tol: float, rows: list[tuple[str, float]] | None = None):
        super().__init__(name, tol, [] if rows is None else rows)

    def add(self, label: str, deviation: float) -> None:
        self.rows.append((label, abs(deviation)))

    @property
    def max_deviation(self) -> float:
        return max((d for _, d in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol

    def as_dict(self) -> dict:
        """Name, tolerance, verdict, largest deviation and (label, deviation) rows."""
        return {"name": self.name, "tol": self.tol, "passed": self.passed,
                "max_deviation": self.max_deviation, "rows": self.rows}

    def failing_rows(self) -> list[tuple[str, float]]:
        return [(lbl, d) for lbl, d in self.rows if d > self.tol]


def verify_ml_identities(alpha: float, a: float, u_grid: Sequence[float]) -> VerificationReport:
    """Transform pair of the relaxation profile E_alpha(-a*t**alpha).

    (i)  S[E_alpha(-a t^alpha)](u)       = 1 / (1 + a u^alpha)
    (ii) S[1 - E_alpha(-a t^alpha)](u)   = a u^alpha / (1 + a u^alpha)

    (ii) is the exact complement of (i): its closed form is derived, and its
    quadrature sums 1 - v over the values v of (i), one E_alpha call per node.
    """
    check_positive("relaxation rate", a)  # the order is checked by the first E_alpha call
    report = VerificationReport(name=f"mittag-leffler pair (alpha={alpha}, a={a})", tol=IDENTITY_TOL)
    for u in u_grid:
        closed_i = 1.0 / (1.0 + a * u ** alpha)
        profile = [mittag_leffler(alpha, -a * t ** alpha) for t in _de_points(u)]
        report.add(f"(i)  u={u:g}", _de_sum(profile, u) - closed_i)
        closed_ii = a * u ** alpha / (1.0 + a * u ** alpha)
        report.add(f"(ii) u={u:g}", _de_sum([1.0 - v for v in profile], u) - closed_ii)
    return report


def verify_derivative_rule(
    params: ModelParams,
    u_grid: Sequence[float],
    monomial_exponent: float = 1.5,
) -> VerificationReport:
    """First-derivative and Caputo-derivative transform rules.

    Classical part: with k the exact classical solution, k' equals the model
    right-hand side, and quadrature must confirm

        S[k'](u) = (S[k](u) - k0) / u.

    Caputo part: for the monomial t**beta the Caputo derivative of order
    alpha is Gamma(beta+1)/Gamma(beta+1-alpha) * t**(beta-alpha), and
    quadrature must confirm

        S[D^alpha k](u) = u**(-alpha) * (S[k](u) - k(0)).
    """
    report = VerificationReport(name="derivative rules", tol=IDENTITY_TOL)
    classical = params.with_(alpha=1.0)
    for u in u_grid:
        k = [exact_classical_value(classical, t) for t in _de_points(u)]
        lhs = _de_sum(list(map(classical.rhs, k)), u)
        rhs = (_de_sum(k, u) - classical.k0) / u
        report.add(f"first-derivative u={u:g}", lhs - rhs)

    beta = monomial_exponent
    alpha = params.alpha
    if beta <= alpha:
        raise ValueError(f"monomial exponent {beta} must exceed alpha {alpha}")
    caputo_scale = math.exp(ln_gamma(beta + 1.0) - ln_gamma(beta + 1.0 - alpha))
    for u in u_grid:
        lhs = sumudu_numeric(lambda t: caputo_scale * t ** (beta - alpha), u)
        rhs = u ** (-alpha) * (sumudu_numeric(lambda t: t ** beta, u) - 0.0)
        report.add(f"caputo beta={beta:g} alpha={alpha:g} u={u:g}", lhs - rhs)
    return report


def _convolve(psi: Callable[[float], float], zeta: Callable[[float], float], t: float) -> float:
    """(psi * zeta)(t) by Gauss-Legendre on [0, t]."""
    if t == 0.0:
        return 0.0
    x, w = _leggauss(CONV_NODES)
    half = 0.5 * t
    total = 0.0  # a loop, not sum() over a generator: no frame resumed per node
    for wi, xi in zip(w, x):
        si = half * (xi + 1.0)
        total += wi * psi(t - si) * zeta(si)
    return half * total


def verify_convolution(
    psi: Callable[[float], float],
    zeta: Callable[[float], float],
    u: float,
) -> VerificationReport:
    """Convolution rule S[(psi * zeta)](u) = u * S[psi](u) * S[zeta](u).

    `_convolve`'s CONV_NODES-node rule is exact for polynomial integrands up
    to degree 31, so psi and zeta must be smooth on [0, ~90*u].
    """
    report = VerificationReport(name=f"convolution (u={u:g})", tol=IDENTITY_TOL)
    lhs = sumudu_numeric(lambda t: _convolve(psi, zeta, t), u)
    rhs = u * sumudu_numeric(psi, u) * sumudu_numeric(zeta, u)
    report.add(f"u={u:g}", lhs - rhs)
    return report


def run_all_verifications(params: ModelParams | None = None) -> list[VerificationReport]:
    """Full identity suite on the documented grids; drives the CLI `verify`."""
    from .model import REFERENCE_PARAMS

    params = params or REFERENCE_PARAMS.with_(alpha=0.8)
    u_grid = (0.1, 0.5, 1.0)

    unit = VerificationReport(name="unit preservation", tol=IDENTITY_TOL)
    for u in u_grid:
        unit.add(f"S[1] u={u:g}", sumudu_numeric(lambda t: 1.0, u) - 1.0)

    monomials = VerificationReport(name="monomial transforms", tol=IDENTITY_TOL)
    for g in (0.0, 0.5, 1.0, 1.6, 2.0, 3.0):
        for u in u_grid:
            monomials.add(
                f"t^{g:g} u={u:g}",
                sumudu_numeric(lambda t: t ** g, u) - sumudu_monomial(g, u),
            )

    reports = [
        unit,
        monomials,
        verify_ml_identities(alpha=1.0, a=1.0, u_grid=u_grid),
        verify_ml_identities(alpha=0.5, a=1.0, u_grid=u_grid),
        verify_ml_identities(alpha=params.alpha, a=2.0, u_grid=u_grid),
        verify_derivative_rule(params, u_grid),
        verify_convolution(lambda t: 1.0, lambda t: 1.0, 0.5),
        verify_convolution(lambda t: t, lambda t: 1.0, 0.5),
        verify_convolution(lambda t: math.exp(-t), lambda t: t, 0.3),
    ]
    return reports
