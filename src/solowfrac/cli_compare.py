"""`solowfrac compare`: the series against its oracle on the trusted region."""

import math
import sys

from .cli import _params

ORACLE_NAMES = {"exact": "exact-classical", "abm": "abm-fractional"}


def run(flags, s) -> int:
    tol, order = s["tol"], s["order"]
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    from .sweep import run_solve

    rows = run_solve(_params(s), s["t_max"], s["samples"], "both", order)
    # t-major then method: each even row is the series, the next its oracle
    series, oracle = rows[0::2], rows[1::2]
    pairs = [(t, k, ref) for (t, _, k, ok, _), (_, _, ref, _, _) in zip(series, oracle) if ok]
    if zeros := [t for t, _, ref in pairs if ref == 0.0]:
        raise ArithmeticError(f"oracle k(t) underflows to 0.0 at t={zeros[0]!r}: no relative gap")
    gaps = [abs(k - ref) / abs(ref) for _, k, ref in pairs]
    worst = max([0.0, *gaps])  # from 0.0 first, so a NaN gap is never the worst
    sys.stdout.write(
        f"series (order {order}) vs {ORACLE_NAMES[oracle[0][4]]}: "
        f"{len(gaps)}/{len(series)} trusted points, "
        f"max relative gap {worst:.3e} (tol {tol:.1e})\n"
    )
    # t = 0 is always trusted, so it alone does not make a comparison
    return 0 if worst <= tol and any(ok for t, _, _, ok, _ in series if t > 0) else 1
