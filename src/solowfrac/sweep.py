"""Single solves and parameter-sweep grids with deterministic CSV emission.

A sweep varies one parameter (p, q, mu or alpha) over a linear range and
tabulates k(t) over a time grid for each value, producing the flat records
behind the 3-D surface figures.  Every command turns parameters and a time
grid into values through `evaluate`, one method at a time.  Cells (one per
axis value and method) are pure, so the emitted CSV does not depend on the
order they are evaluated in and is byte-identical across runs.
"""

from __future__ import annotations

import math

from .model import REFERENCE_PARAMS, ModelParams, Record, check_positive
from .series import DEFAULT_ORDER, build_series, check_order, eval_series

__all__ = [
    "SweepConfig",
    "SweepGrid",
    "Row",
    "PRESETS",
    "evaluate",
    "methods_for",
    "run_solve",
    "run_sweep",
    "time_grid",
    "rows_to_csv",
    "sidecar_metadata",
    "gnuplot_script",
]

CSV_HEADER = "t,axis,k,trusted,method"
AXES = ("p", "q", "mu", "alpha")
METHODS = ("series", "abm", "exact", "both")

# t, axis value, k, trusted, method
Row = tuple[float, float, float, bool, str]


def methods_for(method: str, alpha: float, axis: str | None = None) -> list[str]:
    """The single methods behind `method`.

    `both` is the series plus an oracle: the exact classical solution when
    every cell has alpha = 1, otherwise the ABM solver.
    """
    if method != "both":
        return [method]
    return ["series", "exact" if alpha == 1.0 and axis != "alpha" else "abm"]


class SweepConfig(Record):
    """One sweep: `base` with `axis` over `axis_range` (lo, hi, count), on the
    time grid `t_range` (t_max, count), which always starts at t = 0."""

    __slots__ = ("base", "axis", "axis_range", "t_range", "order", "method")
    _defaults = {"order": DEFAULT_ORDER, "method": "series"}

    def _validate(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        check_order(self.order)
        lo, hi, count = self.axis_range
        if count < 2:
            raise ValueError(f"axis count must be at least 2, got {count}")
        if not hi > lo:
            raise ValueError("axis range must be increasing")
        t_max, t_count = self.t_range
        check_positive("t_max", t_max)
        if t_count < 2:
            raise ValueError(f"time count must be at least 2, got {t_count}")
        # The whole axis must produce valid parameter sets.
        for v in (lo, hi):
            self.base.with_(**{self.axis: v})

    def axis_values(self) -> list[float]:
        """`count` values from lo to hi, ending on hi: lo + (count - 1) * step can pass it."""
        lo, hi, count = self.axis_range
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count - 1)] + [hi]

    def times(self) -> list[float]:
        return time_grid(*self.t_range)

    def methods(self) -> list[str]:
        return methods_for(self.method, self.base.alpha, self.axis)

    def as_dict(self) -> dict:
        """The fields as JSON-ready values, `base` as a dict of its own."""
        return {**super().as_dict(), "base": self.base.as_dict(),
                "axis_range": list(self.axis_range), "t_range": list(self.t_range)}


class SweepGrid(Record):
    """Rows of one sweep; `failures` holds (axis value, method, reason) per failed cell."""

    __slots__ = ("config", "rows", "failures")
    _defaults = {"failures": ()}


# Figure-replication presets.  Axis ranges are artifact choices within
# standard economic ranges; t in [0, 2] with 41 points, 21 axis values,
# truncation order 5.
PRESETS: dict[str, SweepConfig] = {
    "fig-ktq": SweepConfig(
        base=REFERENCE_PARAMS, axis="q", axis_range=(0.1, 0.4, 21),
        t_range=(2.0, 41),
    ),
    "fig-ktp": SweepConfig(
        base=REFERENCE_PARAMS, axis="p", axis_range=(0.2, 1.0, 21),
        t_range=(2.0, 41),
    ),
    "fig-ktmu": SweepConfig(
        base=REFERENCE_PARAMS, axis="mu", axis_range=(0.1, 0.9, 21),
        t_range=(2.0, 41),
    ),
    "fig-ktq-frac": SweepConfig(
        base=REFERENCE_PARAMS.with_(alpha=0.8), axis="q", axis_range=(0.1, 0.4, 21),
        t_range=(2.0, 41),
    ),
    "fig-ktalpha": SweepConfig(
        base=REFERENCE_PARAMS.with_(alpha=0.8), axis="alpha", axis_range=(0.3, 1.0, 21),
        t_range=(2.0, 41),
    ),
}


def evaluate(params: ModelParams, times: list[float], method: str,
             order: int = DEFAULT_ORDER) -> tuple[list[float], list[bool], str | None]:
    """Values and trust flags of one method (`series`, `exact` or `abm`) on `times`.

    The third item is None on success.  When the solver fails it is the
    reason, and the cell is all NaN and untrusted.  ABM steps on a
    refinement of `times` (at least 256 steps) and samples it, so for `abm`
    the grid must be uniform and start at 0.
    """
    if method not in ("series", "exact", "abm"):
        raise ValueError(f"unknown method {method!r}")
    try:
        if method == "series":
            coeffs = build_series(params, order)
            pairs = [eval_series(coeffs, params.alpha, t) for t in times]
            return [k for k, _ in pairs], [trusted for _, trusted in pairs], None
        if method == "exact":
            from .exact import exact_classical_value  # series cells skip it, exact ones the ABM

            values = [exact_classical_value(params, t) for t in times]
        else:
            from .oracles import solve_abm_fractional

            per = max(1, math.ceil(256 / (len(times) - 1)))
            values = solve_abm_fractional(params, times[-1], (len(times) - 1) * per)[::per]
        return values, [True] * len(times), None
    except (ValueError, ArithmeticError) as exc:
        return [math.nan] * len(times), [False] * len(times), str(exc)


def time_grid(t_max: float, samples: int) -> list[float]:
    """`samples` uniform times from 0 to `t_max`; ValueError on a degenerate grid."""
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    check_positive("t_max", t_max)
    if (samples - 1) * t_max == math.inf:  # i * t_max would reach it
        raise ValueError(f"t_max * (samples - 1) overflows: t_max={t_max}, samples={samples}")
    return [i * t_max / (samples - 1) for i in range(samples)]


def run_solve(params: ModelParams, t_max: float, samples: int,
              method: str, order: int = DEFAULT_ORDER) -> list[Row]:
    """Single trajectory as flat rows, t-major then method.

    The axis column is fixed to 0.0 (no swept parameter).  Validation and
    solver failures raise ValueError (the CLI maps them to exit code 2).
    """
    times = time_grid(t_max, samples)
    check_order(order)
    cells = []
    for m in methods_for(method, params.alpha):
        values, trusted, reason = evaluate(params, times, m, order)
        if reason is not None:
            raise ValueError(reason)
        cells.append((m, values, trusted))
    return [(t, 0.0, values[i], trusted[i], m)
            for i, t in enumerate(times) for m, values, trusted in cells]


def run_sweep(config: SweepConfig) -> SweepGrid:
    """Evaluate the full grid; deterministic t-major, then axis, then method order.

    A cell whose solver fails gives NaN, untrusted rows, and its reason is
    kept in `failures`.
    """
    times = config.times()
    cells = [(v, m) for v in config.axis_values() for m in config.methods()]
    results = [
        evaluate(config.base.with_(**{config.axis: v}), times, m, config.order)
        for v, m in cells
    ]
    rows = tuple(
        (t, v, values[i], trusted[i], m)
        for i, t in enumerate(times)
        for (v, m), (values, trusted, _) in zip(cells, results)
    )
    failures = tuple((v, m, reason) for (v, m), (_, _, reason) in zip(cells, results)
                     if reason is not None)
    return SweepGrid(config=config, rows=rows, failures=failures)


def rows_to_csv(rows: list[Row], axis: bool = True) -> str:
    """CSV text: header `t,axis,k,trusted,method`, LF endings, 17 significant digits.

    Single solves pass axis=False: their axis column is fixed, so it is dropped.
    """
    lines = [CSV_HEADER if axis else "t,k,trusted,method"]
    if axis:
        # A sweep repeats each t and axis value across a whole row block, so
        # each distinct one is formatted once (t >= 0 and axis values > 0:
        # no -0.0 shares a key with 0.0).
        text = {x: "%.17g" % x for x in {row[0] for row in rows} | {row[1] for row in rows}}
        lines += [f"{text[t]},{text[v]},{k:.17g},{'true' if trusted else 'false'},{method}"
                  for t, v, k, trusted, method in rows]
    else:
        lines += ["%.17g,%.17g,%s,%s" % (t, k, "true" if trusted else "false", method)
                  for t, _, k, trusted, method in rows]
    return "\n".join(lines) + "\n"


def sidecar_metadata(grid: SweepGrid) -> str:
    """Deterministic JSON sidecar describing the run (no timestamps).

    `failures` lists the cells whose solver failed, with the reason; it is
    present only when some cell failed.
    """
    from .jsontext import dumps  # only sweeps with --out write a sidecar

    meta = {
        "format": "solowfrac sweep grid v1",
        "csv_header": CSV_HEADER,
        "config": grid.config.as_dict(),
        "row_count": len(grid.rows),
    }
    if grid.failures:
        meta["failures"] = [{"axis": v, "method": m, "reason": reason}
                            for v, m, reason in grid.failures]
    return dumps(meta) + "\n"


def gnuplot_script(csv_path: str, config: SweepConfig) -> str:
    """Companion gnuplot script: one k(t, axis) surface per method of the grid."""
    quoted = csv_path.replace("'", "''")  # gnuplot's escape inside single quotes
    surfaces = ", ".join(
        f"'{quoted}' every ::1 using 1:2:(strcol(5) eq '{m}' ? $3 : 1/0) "
        f"with lines title '{m} k(t, {config.axis})'"
        for m in config.methods()
    )
    return "\n".join([
        "set datafile separator ','",
        f"set dgrid3d {config.t_range[1]},{config.axis_range[2]}",
        "set hidden3d",
        "set xlabel 't'",
        f"set ylabel '{config.axis}'",
        "set zlabel 'k'",
        f"splot {surfaces}",
        "pause -1",
    ]) + "\n"
