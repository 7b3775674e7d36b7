"""Independent reference solutions used for cross-validation.

Two backends that share no code with the series engine:

* the exact classical solution, obtained from the Bernoulli substitution
  v = k**(1-mu) which linearizes dk/dt = p*k**mu - q*k;
* an Adams-Bashforth-Moulton predictor-corrector for the Caputo problem
  (product-rectangle predictor, product-trapezoid corrector, one corrector
  iteration, full history).  Its weight tables are built once per run, and
  each memory sum is the builtin `sum`, oldest history term first: plain
  left-to-right addition up to CPython 3.11 (3.12 compensates, ~1 ulp off).
"""

from __future__ import annotations

import math
import warnings
from operator import mul

from .model import ModelParams, Record, check_positive, validate_times
from .special import ln_gamma

__all__ = ["Trajectory", "solve_exact_classical", "solve_abm_fractional"]

MIN_ABM_STEPS = 16


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


def solve_abm_fractional(
    params: ModelParams,
    t_end: float,
    steps: int,
    refine_check: bool = False,
) -> Trajectory:
    """Adams-Bashforth-Moulton solution of the Caputo initial-value problem.

    Uniform grid of `steps` intervals on [0, t_end].  Full-history memory
    term from precomputed weight tables, O(steps^2) overall.  ArithmeticError
    when a step leaves capital nonpositive or non-finite.
    With refine_check=True a (steps, 2*steps) comparison at t_end emits a
    warning when the two disagree by more than 1e-3 relative.
    """
    check_positive("t_end", t_end)
    if steps < MIN_ABM_STEPS:
        raise ValueError(f"steps must be at least {MIN_ABM_STEPS}, got {steps}")

    traj = _abm_run(params, t_end, steps)
    if refine_check:
        fine = _abm_run(params, t_end, 2 * steps)
        rel = abs(fine.values[-1] - traj.values[-1]) / max(abs(fine.values[-1]), 1e-300)
        if rel > 1e-3:
            warnings.warn(
                f"ABM refinement check: steps={steps} vs {2 * steps} differ by "
                f"{rel:.2e} relative at t_end; increase steps",
                stacklevel=2,
            )
    return traj


def _abm_run(params: ModelParams, t_end: float, steps: int) -> Trajectory:
    alpha = params.alpha
    h = t_end / steps
    h_alpha = h ** alpha
    inv_gamma_a = math.exp(-ln_gamma(alpha))
    inv_gamma_a2 = math.exp(-ln_gamma(alpha + 2.0))

    k = [params.k0]
    f = [params.rhs(params.k0)]
    f_tail = []  # f[1:], the corrector's history

    pow_a = [j ** alpha for j in range(steps + 2)]
    pow_a1 = [j ** (alpha + 1.0) for j in range(steps + 2)]
    # Weights b_m = (m+1)^a - m^a and c_m = (m+1)^(a+1) + (m-1)^(a+1) - 2 m^(a+1),
    # reversed so that from index steps - 1 - n they line up with f and f_tail.
    b_rev = [pow_a[m + 1] - pow_a[m] for m in range(steps - 1, -1, -1)]
    c_rev = [pow_a1[m + 1] + pow_a1[m - 1] - 2.0 * pow_a1[m] for m in range(steps - 1, 0, -1)]

    for n in range(steps):
        # Predictor: product-rectangle rule.
        acc = sum(map(mul, b_rev[steps - 1 - n:], f), 0.0)
        k_pred = params.k0 + inv_gamma_a * (h_alpha / alpha) * acc
        if not 0.0 < k_pred < math.inf:
            _bad_capital("predictor", k_pred, h * (n + 1))
        # Corrector: product-trapezoid rule, its j = 0 term as the start.
        acc = sum(map(mul, c_rev[steps - 1 - n:], f_tail),
                  (pow_a1[n] - (n - alpha) * pow_a[n + 1]) * f[0])
        k_next = params.k0 + inv_gamma_a2 * h_alpha * (params.rhs(k_pred) + acc)
        if not 0.0 < k_next < math.inf:
            _bad_capital("corrector", k_next, h * (n + 1))
        k.append(k_next)
        f.append(params.rhs(k_next))
        f_tail.append(f[-1])

    times = tuple(i * h for i in range(steps + 1))
    return Trajectory(times=times, values=tuple(k), method="abm-fractional")


def _bad_capital(stage: str, k: float, t: float):
    if k <= 0:
        raise ArithmeticError(
            f"ABM {stage} produced nonpositive capital {k} at "
            f"t={t:.6g}; the model is only meaningful for k > 0"
        )
    raise ArithmeticError(f"ABM {stage} produced non-finite capital {k} at t={t:.6g}")
