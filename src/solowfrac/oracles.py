"""Independent reference solutions used for cross-validation.

Two backends that share no code with the series engine:

* the exact classical solution, obtained from the Bernoulli substitution
  v = k**(1-mu) which linearizes dk/dt = p*k**mu - q*k;
* an Adams-Bashforth-Moulton predictor-corrector for the Caputo problem
  (Diethelm, Ford & Freed, Nonlinear Dyn. 29, 2002: product-rectangle
  predictor, product-trapezoid corrector, one corrector iteration).  Memory
  terms younger than WINDOW steps take the exact weights, and each of their
  sums is the builtin `sum`, oldest term first: plain left-to-right addition
  up to CPython 3.11 (3.12 compensates, ~1 ulp off).  On runs longer than
  EXACT_STEPS steps the older terms go through a sum of exponentials (Jiang,
  Zhang, Zhang & Zhang, Commun. Comput. Phys. 21(3), 2017): 52 modes at
  513 steps, 64 at 2,048 and 88 at 16,384, each updated once per step, so a
  run costs O(steps * (WINDOW + modes)) instead of O(steps^2).  Over alpha
  in (0, 1] the modes reproduce the old terms' weights to <= 6.1e-13
  relative (measured up to 16,384 steps; 65,536 steps reach 3.6e-12), and a
  run stays within ~1e-11 relative of the exact full-history sum (measured
  up to 4,096 steps).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from itertools import repeat
from operator import add, mul

from .model import ModelParams, Record, check_positive, validate_times
from .special import ln_gamma

__all__ = ["Trajectory", "solve_exact_classical", "solve_abm_fractional"]

MIN_ABM_STEPS = 16
# Exact weights for memory terms younger than WINDOW steps.  A 2,048-step
# run at alpha = 0.8 took 31.9 ms at 128, 27.1 at 64, 23.2 at 32 and 24.5 at
# 16 (2 * WINDOW + 3 * modes = 412, 320, 256 and 260 products per step;
# below 32 the modes need one more panel).  Runs of at most EXACT_STEPS steps
# keep their whole history exact and build no modes.  With the modes against
# without, measured: 300 steps 2% slower, 400 16% faster, 512 37% faster.
# EXACT_STEPS stays 512: it keeps every sweep and compare refinement
# (< 512 steps) bit for bit, and those runs (~280 steps) would gain nothing.
WINDOW = 32
EXACT_STEPS = 512
# History quadrature: a Gauss-Jacobi rule on [0, HEAD_SPAN / steps], then
# Gauss-Legendre panels that grow by PANEL_GROWTH up to HISTORY_CUTOFF / WINDOW,
# beyond which e^(-WINDOW x) < 5e-15.  Against 40-digit weights, 16 Jacobi
# nodes over span 27 and 12-node panels with growth 3 reproduced every b_m and
# c_m (m in [WINDOW, steps]) to <= 6.1e-13 relative up to 16,384 steps, where
# the rounding of e^(-x) raised to the age sets the floor (18 nodes: 5.3e-13).
# Span 9 costs one more panel, span 81 passes only with 28 nodes, and
# 10-node panels, or growth 4, left 1e-11.
JACOBI_NODES = 16
HEAD_SPAN = 27.0
PANEL_NODES = 12
PANEL_GROWTH = 3.0
HISTORY_CUTOFF = 33.0


class Trajectory(Record):
    """Sampled (t, k) pairs from one backend."""

    __slots__ = ("times", "values", "method")

    def _validate(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")


def exact_classical_value(params: ModelParams, t: float) -> float:
    """Closed-form k(t) for alpha = 1.

    k(t) = [p/q + (k0**(1-mu) - p/q) * exp(-q*(1-mu)*t)]**(1/(1-mu)).

    Verified against an adaptive ODE integrator in the test suite before
    anything else relies on it.  OverflowError past double range.
    """
    one_minus_mu = 1.0 - params.mu
    ratio = params.p / params.q
    v = ratio + (params.k0 ** one_minus_mu - ratio) * math.exp(-params.q * one_minus_mu * t)
    try:
        k = v ** (1.0 / one_minus_mu)
    except OverflowError:
        k = math.inf
    if not k < math.inf:  # inf, or nan from p/q = inf
        raise OverflowError(f"exact k(t) = v**(1/(1-mu)) overflows double precision "
                            f"at p={params.p}, q={params.q}, mu={params.mu}")
    return k


def solve_exact_classical(params: ModelParams, times: Sequence[float]) -> Trajectory:
    """Exact classical trajectory on the given strictly increasing grid."""
    if params.alpha != 1.0:
        raise ValueError(f"exact classical solver requires alpha = 1, got {params.alpha}")
    ts = validate_times(times)
    vals = [exact_classical_value(params, t) for t in ts]
    return Trajectory(times=tuple(ts), values=tuple(vals), method="exact-classical")


def solve_abm_fractional(params: ModelParams, t_end: float, steps: int) -> Trajectory:
    """Adams-Bashforth-Moulton solution of the Caputo initial-value problem.

    Uniform grid of `steps` intervals on [0, t_end].  Memory terms younger
    than WINDOW steps use the exact weights; on runs longer than EXACT_STEPS
    steps older terms use the exponential modes of `_history_modes`.  Runs of
    at most EXACT_STEPS steps, and the first WINDOW + 1 steps of any run, are
    therefore the plain full-history sum; past that a run stays within ~1e-11
    relative of it (measured; the tests gate 1e-10).  ArithmeticError when a
    step leaves capital nonpositive or non-finite.
    """
    check_positive("t_end", t_end)
    if steps < MIN_ABM_STEPS:
        raise ValueError(f"steps must be at least {MIN_ABM_STEPS}, got {steps}")

    alpha = params.alpha
    h = t_end / steps
    h_alpha = h ** alpha
    inv_gamma_a = math.exp(-ln_gamma(alpha))
    inv_gamma_a2 = math.exp(-ln_gamma(alpha + 2.0))

    k = [params.k0]
    f0 = params.rhs(params.k0)
    f_tail = []  # f[1:]; f[0] has weights of its own in both rules
    window = steps if steps <= EXACT_STEPS else WINDOW
    # Weights b_m = (m+1)^a - m^a for ages window-1..0 and
    # c_m = (m+1)^(a+1) + (m-1)^(a+1) - 2 m^(a+1) for ages window..1, oldest first.
    b_rev = [(m + 1) ** alpha - m ** alpha for m in range(window - 1, -1, -1)]
    c_rev = [(m + 1) ** (alpha + 1.0) + (m - 1) ** (alpha + 1.0) - 2.0 * m ** (alpha + 1.0)
             for m in range(window, 0, -1)]
    hist_b = hist_c = 0.0
    pow_n = 0.0  # n ** alpha
    for n in range(steps):
        pow_next = (n + 1) ** alpha
        if n <= window:
            recent, b_w, c_w = f_tail, b_rev[window - n:], c_rev[window - n:]
        else:
            recent, b_w, c_w = f_tail[n - window:], b_rev, c_rev
            hist_b = sum(map(mul, wb, hist))
            hist_c = sum(map(mul, wc, hist))
        # Predictor: product-rectangle rule; f[0] and the history start the sum.
        acc = sum(map(mul, b_w, recent), (pow_next - pow_n) * f0 + hist_b)
        k_pred = params.k0 + inv_gamma_a * (h_alpha / alpha) * acc
        if not 0.0 < k_pred < math.inf:
            _bad_capital("predictor", k_pred, h * (n + 1))
        # Corrector: product-trapezoid rule, likewise.
        acc = sum(map(mul, c_w, recent),
                  (n ** (alpha + 1.0) - (n - alpha) * pow_next) * f0 + hist_c)
        k_next = params.k0 + inv_gamma_a2 * h_alpha * (params.rhs(k_pred) + acc)
        if not 0.0 < k_next < math.inf:
            _bad_capital("corrector", k_next, h * (n + 1))
        k.append(k_next)
        f_tail.append(params.rhs(k_next))
        if n == window:
            decay, wb, wc = _history_modes(alpha, steps)
            hist = [0.0] * len(decay)
        if n >= window:  # f[n + 1 - window] leaves the window for the modes
            hist = list(map(add, map(mul, decay, hist), repeat(f_tail[n - window])))
        pow_n = pow_next

    times = tuple(i * h for i in range(steps + 1))
    return Trajectory(times=times, values=tuple(k), method="abm-fractional")


def _history_modes(alpha: float, steps: int) -> tuple[list[float], list[float], list[float]]:
    """Decays e^(-x_i) and weights wb_i, wc_i of the history's modes.

    b_(WINDOW+a) ~ sum_i wb_i e^(-a x_i) and c_(WINDOW+1+a) ~ sum_i wc_i e^(-a x_i)
    for 0 <= a <= steps - WINDOW.  For alpha < 1 both weights are Laplace
    integrals over s^(-alpha) / Gamma(1 - alpha):
    b_m = alpha * int e^(-m s) g(s) s^(-alpha) ds / Gamma(1 - alpha) and
    c_m = alpha (alpha+1) * int e^(-(m-1) s) g(s)^2 s^(-alpha) ds / Gamma(1 - alpha),
    g(s) = (1 - e^(-s)) / s, whose nodes are the modes.  At alpha = 1,
    b_m = 1 and c_m = 2: one mode with x = 0.
    """
    if alpha == 1.0:
        return [1.0], [1.0], [2.0]
    top = HEAD_SPAN / steps
    t, w = _jacgauss(JACOBI_NODES, -alpha)
    nodes = [0.5 * top * (1.0 + ti) for ti in t]
    weights = [(0.5 * top) ** (1.0 - alpha) * wi for wi in w]
    t, w = _leggauss(PANEL_NODES)
    lo = top
    while lo < HISTORY_CUTOFF / WINDOW:
        half = 0.5 * (PANEL_GROWTH - 1.0) * lo
        for ti, wi in zip(t, w):
            s = lo + half * (1.0 + ti)
            nodes.append(s)
            weights.append(half * wi * s ** -alpha)
        lo *= PANEL_GROWTH
    decay, wb, wc = [], [], []
    scale = alpha / math.gamma(1.0 - alpha)
    for s, weight in zip(nodes, weights):
        g = -math.expm1(-s) / s
        e = scale * weight * math.exp(-WINDOW * s)
        decay.append(math.exp(-s))
        wb.append(e * g)
        wc.append(e * (alpha + 1.0) * g * g)
    return decay, wb, wc


def _bad_capital(stage: str, k: float, t: float):
    if k <= 0:
        raise ArithmeticError(
            f"ABM {stage} produced nonpositive capital {k} at "
            f"t={t:.6g}; the model is only meaningful for k > 0"
        )
    raise ArithmeticError(f"ABM {stage} produced non-finite capital {k} at t={t:.6g}")


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=8)
def _leggauss(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n from the Tricomi-type guess cos(pi(i+3/4)/(n+1/2))
    for each positive root; the negative roots are their mirror images.
    """
    positive = []  # descending
    for i in range(nodes // 2):
        x = math.cos(math.pi * (i + 0.75) / (nodes + 0.5))
        for _ in range(100):
            p, dp = _legendre(nodes, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        positive.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    center = [(0.0, 2.0 / _legendre(nodes, 0.0)[1] ** 2)] if nodes % 2 else []
    pairs = [(-x, w) for x, w in positive] + center + positive[::-1]
    return tuple(x for x, _ in pairs), tuple(w for _, w in pairs)


def _jacobi(n: int, beta: float, x: float) -> tuple[float, float]:
    """P_n^(0,beta)(x) and its derivative by the three-term recurrence."""
    p_prev, p = 1.0, 0.5 * ((beta + 2.0) * x - beta)
    for k in range(2, n + 1):
        s = 2 * k + beta
        p_prev, p = p, ((s - 1.0) * (s * (s - 2.0) * x - beta * beta) * p
                        - 2.0 * (k - 1) * (k - 1 + beta) * s * p_prev) / (2 * k * (k + beta) * (s - 2.0))
    s = 2 * n + beta
    return p, n * (2.0 * (n + beta) * p_prev - (beta + s * x) * p) / (s * (1.0 - x * x))


def _jacgauss(nodes: int, beta: float) -> tuple[list[float], list[float]]:
    """Gauss-Jacobi nodes (ascending) and weights for (1+t)^beta on [-1, 1], beta > -1.

    Newton's method on P_n^(0,beta), deflated by the roots already found:
    the Legendre-type guesses alone converge to the wrong roots near
    beta = -1.  Christoffel weights 2^(beta+1) / ((1 - t^2) P_n'(t)^2),
    except at the node nearest -1, which takes what the others leave of the
    mass 2^(beta+1) / (beta+1): as beta -> -1 that node carries almost all
    of it, and 1 + t there holds too few significant digits.
    """
    roots = []
    for i in range(nodes):
        x = math.cos(math.pi * (i + 0.75) / (nodes + 0.5 * (beta + 1.0)))
        for _ in range(100):
            p, dp = _jacobi(nodes, beta, x)
            step = p / (dp - p * sum(1.0 / (x - r) for r in roots))
            x -= step
            if abs(step) <= 4e-16:
                break
        roots.append(x)
    roots.sort()
    weights = [2.0 ** (beta + 1.0) / ((1.0 - x * x) * _jacobi(nodes, beta, x)[1] ** 2)
               for x in roots]
    weights[0] = 2.0 ** (beta + 1.0) / (beta + 1.0) - math.fsum(weights[1:])
    return roots, weights
