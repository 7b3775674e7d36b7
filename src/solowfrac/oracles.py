"""The fractional reference solution used for cross-validation.

`solve_abm_fractional` shares no code with the series engine.  It returns
the list of k, as plain floats, on a uniform grid of steps + 1 points from
the Adams-Bashforth-Moulton product-trapezoid corrector for the Caputo
problem (Diethelm, Ford & Freed, Nonlinear Dyn. 29, 2002), solved at each
step by a safeguarded scalar Newton method rather than once from a predictor
(Garrappa, Mathematics 6(2), 2018).  Memory terms younger than WINDOW steps
take the exact weights, and their sum is the builtin `sum`, oldest term
first: plain left-to-right addition up to CPython 3.11 (3.12 compensates,
~1 ulp off).  Older terms go through a sum of exponentials (Jiang, Zhang, Zhang
& Zhang, Commun. Comput. Phys. 21(3), 2017), whose nodes come from one Gauss
rule in ln s (Beylkin & Monzon, Appl. Comput. Harmon. Anal. 28(2), 2010): 33
modes at 280 steps, 44 at 2,048 and 56 at 16,384, each kept times its weight
and updated once per step, so a run costs WINDOW + 2 * modes products per
step instead of O(steps) (104 at 2,048 steps); each process builds the modes
once per (alpha, steps), and a sweep's cells share them.  Over alpha in
(0, 1] the modes reproduce the old terms' weights to <= 6.0e-13 relative
(measured from 17 up to 16,384 steps; 65,536 steps reach 3.6e-12), and a run
stays within 5.5e-15 relative of the exact full-history sum (measured up to
4,096 steps).  The classical reference, `exact_classical_value`, lives in
`exact` and is re-exported here beside it.
"""

from __future__ import annotations

import functools
import math
from operator import mul

from .exact import _leggauss, exact_classical_value
from .model import ModelParams, check_positive

__all__ = ["exact_classical_value", "solve_abm_fractional"]

MIN_ABM_STEPS = 16
# Exact weights for memory terms younger than WINDOW steps; older ones go
# through the modes on every run, at WINDOW + 2 * modes products per step.
# On the Newton corrector, a 2,048-step run at alpha = 0.3 and 0.8 took
# 10.6-10.7 ms (median) at 16 against 10.9-11.1 at 32, faster in 71 and 65 of
# 80 interleaved pairs (one CPU, 2-core machine); the values agree to 1.2e-15.
WINDOW = 16
# Newton on the corrector: a step ends once a correction is at most
# NEWTON_TOL * k, which quadratic convergence leaves ~1e-20 * k off the root.
# It takes 2.0-2.1 iterations per step (measured over item 4's parameter box);
# a tolerance at the rounding level, 1e-16, stalled until NEWTON_CAP.
NEWTON_TOL = 1e-10
NEWTON_CAP = 64
# History quadrature: a Gauss-Jacobi rule on [0, HEAD_SPAN / steps], then one
# Gauss-Legendre rule in y = ln s up to HISTORY_CUTOFF / WINDOW, beyond which
# e^(-WINDOW x) < 5e-15.  In y the integrand e^(-m s) g(s) s^(1-alpha) is
# smooth and slowly varying, so the rule takes ceil(LOG_NODE_DENSITY * width)
# nodes for the width of its y-interval, and at least MIN_LOG_NODES: 17 at 280
# steps, 21 at 513, 28 at 2,048 and 40 at 16,384.  Against 40-digit weights,
# 16 Jacobi nodes over span 27 and that rule reproduced every b_m and c_m
# (m in [WINDOW, steps]) to <= 6.0e-13 relative from 17 up to 16,384 steps,
# where the rounding of e^(-x) raised to the age sets the floor.  A density
# of 5 left 1.4e-12 at 513 steps, and 4.5 2.9e-11.  Without the floor the
# 5-9 nodes of a run shorter than 160 steps left up to 1.4e-10 (at 32 steps,
# alpha = 1e-4); a floor of 12 still left 1.1e-12 at 128 steps.
JACOBI_NODES = 16
HEAD_SPAN = 27.0
LOG_NODE_DENSITY = 5.5
MIN_LOG_NODES = 16
HISTORY_CUTOFF = 33.0


def solve_abm_fractional(params: ModelParams, t_end: float, steps: int) -> list[float]:
    """Adams-Bashforth-Moulton solution of the Caputo initial-value problem.

    The list of k at t = i * (t_end / steps) for i = 0..steps.  Each step
    solves the product-trapezoid corrector k = k0 + c (f(k) + A_n),
    c = h^alpha / Gamma(alpha + 2), where A_n holds f(k0) and the memory:
    terms younger than WINDOW steps with the exact weights and older ones
    through the exponential modes of `_history_modes`.  The first WINDOW + 1
    steps are therefore the plain full-history corrector; past that a run
    stays within ~1e-14 relative of it (measured; the tests gate 1e-10).
    g(k) = k - c f(k) - k0 - c A_n is convex for mu < 1, so Newton's method
    from the linear extrapolation 2 k_n - k_(n-1) (k_n when that is not
    positive and finite) reaches its largest root: where g' <= 0 the iterate
    jumps to twice the minimum of g, and where a step would leave k <= 0 it
    halves.  A step ends once its Newton correction is at most NEWTON_TOL * k.
    ArithmeticError, naming the stiffness c q, when no positive root turns up
    within NEWTON_CAP iterations, or when capital becomes non-finite.
    """
    check_positive("t_end", t_end)
    if steps < MIN_ABM_STEPS:
        raise ValueError(f"steps must be at least {MIN_ABM_STEPS}, got {steps}")

    alpha, p, q, mu, k0 = params.alpha, params.p, params.q, params.mu, params.k0
    h = t_end / steps
    c = h ** alpha / math.gamma(alpha + 2.0)
    pmu = p * mu
    k = [k0]
    f0 = params.rhs(k0)
    # f[1:] after WINDOW zeros, so f_tail[n:] is always the window; f[0] has
    # a weight of its own.  Adding 0.0 leaves every sum's bits.
    f_tail = [0.0] * WINDOW
    c_rev = _window_weights(alpha)
    decay, wc = _history_modes(alpha, steps)
    u = [0.0] * len(decay)  # the modes times their weights: the history is sum(u)
    x = k0
    for n in range(steps):
        acc = sum(map(mul, c_rev, f_tail[n:]),
                  (n ** (alpha + 1.0) - (n - alpha) * (n + 1) ** alpha) * f0 + sum(u))
        rest = k0 + c * acc
        for _ in range(NEWTON_CAP):
            x_mu = x ** mu
            slope = 1.0 - c * (pmu * x_mu / x - q)
            if not slope > 0.0:  # left of g's minimum k_m = x (1 - slope/(1+cq))^(1/(1-mu))
                try:
                    x *= 2.0 * (1.0 - slope / (1.0 + c * q)) ** (1.0 / (1.0 - mu))
                except OverflowError:
                    x = math.inf
                if not x < math.inf:
                    break
                continue
            step = (x - c * (p * x_mu - q * x) - rest) / slope
            if step >= x:
                x *= 0.5
                continue
            x -= step
            if abs(step) <= NEWTON_TOL * x:
                break
        else:
            if x < math.inf:  # c q = h q / 2 at alpha = 1, so t_end q / 2 steps make it 1
                more = f"; {t_end * q / 2:.6g} steps make it 1" if alpha == 1.0 else ""
                raise ArithmeticError(f"ABM corrector found no positive capital within {NEWTON_CAP} "
                                      f"Newton iterations at t={h * (n + 1):.6g}: "
                                      f"stiffness c*q = {c * q:.3g}{more}")
        if not x < math.inf:
            raise ArithmeticError(f"ABM corrector produced non-finite capital {x} at t={h * (n + 1):.6g}")
        k.append(x)
        f_tail.append(params.rhs(x))
        f_old = f_tail[n]  # f[n + 1 - WINDOW] leaves the window for the modes
        u = [d * v + w * f_old for d, v, w in zip(decay, u, wc)]
        x += x - k[n]
        if not 0.0 < x < math.inf:
            x = k[n + 1]
    return k


@functools.lru_cache(maxsize=8)
def _window_weights(alpha: float) -> tuple[float, ...]:
    """Corrector weights c_m = (m+1)^b + (m-1)^b - 2 m^b, b = alpha + 1, for
    ages WINDOW..1, oldest first, without the formula's cancellation.

    From m = 4 on, c_m = 2 m^b sum_(j>=1) C(b, 2j) m^(-2j), whose terms are
    all positive; each C(b, 2j) holds b - 1 as alpha.  Below that,
    c_m = e(m+1) + e(m-1) - 2 e(m) with e(i) = i (i^alpha - 1) from expm1.
    Against 40-digit values: <= 5.2e-15 relative (measured at alpha from 1e-4
    to 1), where the plain formula is 1.0e-9 off at alpha = 1e-4, m = 16.
    """
    binom = [alpha * (alpha + 1.0) / 2.0]  # C(b, 2j) for j = 1..14
    for j in range(2, 15):
        binom.append(binom[-1] * (alpha + 3 - 2 * j) * (alpha + 2 - 2 * j) / ((2 * j - 1) * 2 * j))
    e = lambda i: i * math.expm1(alpha * math.log(max(i, 1)))
    weights = []
    for m in range(WINDOW, 0, -1):
        if m < 4:
            weights.append(e(m + 1) + e(m - 1) - 2.0 * e(m))
            continue
        total = 0.0
        for coeff in reversed(binom):
            total = (total + coeff) / (m * m)
        weights.append(2.0 * m * m ** alpha * total)
    return tuple(weights)


@functools.lru_cache(maxsize=8)
def _history_modes(alpha: float, steps: int) -> tuple[tuple[float, ...], ...]:
    """Decays e^(-x_i) and weights wc_i of the history's modes.

    Built once per (alpha, steps) in each process, as tuples that no run can change.

    c_(WINDOW+1+a) ~ sum_i wc_i e^(-a x_i) for 0 <= a <= steps - WINDOW - 1.
    For alpha < 1 the weight is a Laplace integral over s^(-alpha) / Gamma(1 - alpha):
    c_m = alpha (alpha+1) * int e^(-(m-1) s) g(s)^2 s^(-alpha) ds / Gamma(1 - alpha),
    g(s) = (1 - e^(-s)) / s, whose nodes are the modes: a Gauss-Jacobi rule
    for the s^(-alpha) singularity near 0, then one Gauss-Legendre rule in
    y = ln s, where ds = s dy.  At alpha = 1, c_m = 2: one mode with x = 0.
    A run keeps each mode times its weight, so its history term is their sum.
    """
    if alpha == 1.0:
        return (1.0,), (2.0,)
    top = HEAD_SPAN / steps
    t, w = _jacgauss(JACOBI_NODES, -alpha)
    nodes = [0.5 * top * (1.0 + ti) for ti in t]
    weights = [(0.5 * top) ** (1.0 - alpha) * wi for wi in w]
    lo, hi = math.log(top), math.log(HISTORY_CUTOFF / WINDOW)
    half = 0.5 * (hi - lo)
    t, w = _leggauss(max(MIN_LOG_NODES, math.ceil(LOG_NODE_DENSITY * (hi - lo))))
    for ti, wi in zip(t, w):
        s = math.exp(lo + half * (1.0 + ti))
        nodes.append(s)
        weights.append(half * wi * s ** (1.0 - alpha))
    decay, wc = [], []
    scale = alpha * (alpha + 1.0) / math.gamma(1.0 - alpha)
    for s, weight in zip(nodes, weights):
        g = -math.expm1(-s) / s if s else 1.0  # a Jacobi node at -1 for alpha within ~1e-14 of 1
        decay.append(math.exp(-s))
        wc.append(scale * weight * math.exp(-WINDOW * s) * g * g)
    return tuple(decay), tuple(wc)


def _jacobi(n: int, beta: float, x: float, terms: list) -> tuple[float, float]:
    """P_n^(0,beta)(x) and (1 - x^2) times its derivative by the three-term
    recurrence, whose x-free factors for k = 2..n are `terms` (see
    `_jacgauss`).  No division by 1 - x^2: a node next to -1 rounds to it
    for beta within ~2e-14 of -1."""
    p_prev, p = 1.0, 0.5 * ((beta + 2.0) * x - beta)
    for s1, s_s2, beta2, back, den in terms:
        p_prev, p = p, (s1 * (s_s2 * x - beta2) * p - back * p_prev) / den
    s = 2 * n + beta
    return p, n * (2.0 * (n + beta) * p_prev - (beta + s * x) * p) / s


def _jacgauss(nodes: int, beta: float) -> tuple[list[float], list[float]]:
    """Gauss-Jacobi nodes (ascending) and weights for (1+t)^beta on [-1, 1], beta > -1.

    Newton's method on P_n^(0,beta), deflated by the roots already found:
    the Legendre-type guesses alone converge to the wrong roots near
    beta = -1.  Christoffel weights 2^(beta+1) / ((1 - t^2) P_n'(t)^2),
    except at the node nearest -1, which takes what the others leave of the
    mass 2^(beta+1) / (beta+1): as beta -> -1 that node carries almost all
    of it, and 1 + t there holds too few significant digits.
    """
    # (s - 1, s (s - 2), beta^2, 2 (k-1)(k-1+beta) s, 2k (k+beta)(s - 2)), s = 2k + beta
    terms = [(s - 1.0, s * (s - 2.0), beta * beta, 2.0 * (k - 1) * (k - 1 + beta) * s,
              2 * k * (k + beta) * (s - 2.0)) for k in range(2, nodes + 1) for s in [2 * k + beta]]
    roots = []
    for i in range(nodes):
        x = math.cos(math.pi * (i + 0.75) / (nodes + 0.5 * (beta + 1.0)))
        for _ in range(100):
            p, dp = _jacobi(nodes, beta, x, terms)
            one_x2 = 1.0 - x * x
            step = p * one_x2 / (dp - p * one_x2 * sum([1.0 / (x - r) for r in roots]))
            x -= step
            if abs(step) <= 4e-16:
                break
        roots.append(x)
    roots.sort()
    weights = [2.0 ** (beta + 1.0) * (1.0 - x * x) / _jacobi(nodes, beta, x, terms)[1] ** 2
               for x in roots[1:]]
    weights.insert(0, 2.0 ** (beta + 1.0) / (beta + 1.0) - math.fsum(weights))
    return roots, weights
