"""Command-line frontend: solve, sweep, equilibria, verify, compare.

Exit codes: 0 success, 1 verification/comparison failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .model import REFERENCE_PARAMS, ModelParams
from .series import DEFAULT_ORDER
from .sweep import (PRESETS, SweepConfig, gnuplot_script, rows_to_csv, run_solve, run_sweep,
                    sidecar_metadata)

# Flat key=value config files.  Values feed the same validation as the flags.
CONFIG_KEYS = {
    "p": float, "q": float, "mu": float, "alpha": float, "k0": float,
    "order": int, "t_max": float, "samples": int, "method": str,
    "axis": str, "axis_min": float, "axis_max": float, "axis_count": int,
    "t_count": int, "preset": str,
}
MODEL_KEYS = {"p", "q", "mu", "alpha", "k0"}
# The keys each subcommand reads; any other key in its config file is refused.
COMMAND_KEYS = {
    "solve": MODEL_KEYS | {"order", "t_max", "samples", "method"},
    "sweep": MODEL_KEYS | {"preset", "axis", "axis_min", "axis_max", "axis_count",
                           "t_max", "t_count", "order", "method"},
    "equilibria": MODEL_KEYS,
    "verify": MODEL_KEYS,
    "compare": MODEL_KEYS | {"order", "t_max", "samples"},
}


def _read_config(path: str, command: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in COMMAND_KEYS[command]:
            raise ValueError(f"{path}:{lineno}: {command!r} does not read key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=float, default=None, help="productivity coefficient (> 0)")
    sp.add_argument("--q", type=float, default=None, help="depreciation/labour-growth rate (> 0)")
    sp.add_argument("--mu", type=float, default=None, help="capital elasticity in (0, 1)")
    sp.add_argument("--alpha", type=float, default=None, help="fractional order in (0, 1]")
    sp.add_argument("--k0", type=float, default=None, help="initial capital-labour ratio (> 0)")
    sp.add_argument("--config", default=None, help="flat key=value config file")


def _merged(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _params_from(args, config: dict, base: ModelParams = REFERENCE_PARAMS) -> ModelParams:
    """Model parameters: flag, then config file, then `base`."""
    return ModelParams(
        p=_merged(args, config, "p", base.p),
        q=_merged(args, config, "q", base.q),
        mu=_merged(args, config, "mu", base.mu),
        alpha=_merged(args, config, "alpha", base.alpha),
        k0=_merged(args, config, "k0", base.k0),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solowfrac",
        description="Series and oracle solvers for the classical and "
                    "Caputo-fractional Solow-Swan capital accumulation model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single trajectory to CSV")
    _add_param_flags(p_solve)
    p_solve.add_argument("--order", type=int, default=None, help=f"series truncation (default {DEFAULT_ORDER})")
    p_solve.add_argument("--t-max", type=float, default=None, dest="t_max")
    p_solve.add_argument("--samples", type=int, default=None)
    p_solve.add_argument("--method", choices=["series", "abm", "exact", "both"], default=None)
    p_solve.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="parameter sweep grid to CSV")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_sweep.add_argument("--axis", choices=["p", "q", "mu", "alpha"], default=None)
    p_sweep.add_argument("--axis-min", type=float, default=None, dest="axis_min")
    p_sweep.add_argument("--axis-max", type=float, default=None, dest="axis_max")
    p_sweep.add_argument("--axis-count", type=int, default=None, dest="axis_count")
    p_sweep.add_argument("--t-max", type=float, default=None, dest="t_max")
    p_sweep.add_argument("--t-count", type=int, default=None, dest="t_count")
    p_sweep.add_argument("--order", type=int, default=None)
    p_sweep.add_argument("--method", choices=["series", "abm", "exact", "both"], default=None)
    p_sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_sweep.add_argument("--gnuplot-script", default=None, dest="gnuplot_script",
                         help="also write a companion gnuplot script to this path")

    p_eq = sub.add_parser("equilibria", help="fixed points and stability")
    _add_param_flags(p_eq)
    p_eq.add_argument("--json", action="store_true", help="print JSON instead of a table")
    p_eq.add_argument("--out", default=None, help="also write the JSON report here")

    p_verify = sub.add_parser("verify", help="run all transform identity checks")
    _add_param_flags(p_verify)
    p_verify.add_argument("--json", action="store_true",
                          help="print the parameters and every report's rows as JSON")

    p_cmp = sub.add_parser("compare", help="series vs oracle on the trusted region")
    _add_param_flags(p_cmp)
    p_cmp.add_argument("--order", type=int, default=None)
    p_cmp.add_argument("--t-max", type=float, default=None, dest="t_max")
    p_cmp.add_argument("--samples", type=int, default=None)
    p_cmp.add_argument("--tol", type=float, default=1e-3, help="max allowed relative gap")

    return parser


def _cmd_solve(args, config) -> int:
    params = _params_from(args, config)
    rows = run_solve(
        params,
        t_max=_merged(args, config, "t_max", 2.0),
        samples=int(_merged(args, config, "samples", 41)),
        method=_merged(args, config, "method", "series"),
        order=int(_merged(args, config, "order", DEFAULT_ORDER)),
    )
    csv_text = rows_to_csv(rows, axis=False)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


# Sweep fields without a preset.  The axis and its range have no default.
SWEEP_DEFAULTS = {"axis_count": 21, "t_max": 2.0, "t_count": 41,
                  "order": DEFAULT_ORDER, "method": "series"}


def _preset_fields(preset: SweepConfig) -> dict:
    (lo, hi, count), (t_max, t_count) = preset.axis_range, preset.t_range
    return {"axis": preset.axis, "axis_min": lo, "axis_max": hi, "axis_count": count,
            "t_max": t_max, "t_count": t_count, "order": preset.order,
            "method": preset.method}


def _sweep_config_from(args, config) -> SweepConfig:
    """Each field from its flag, then the config file, then the preset, then the default."""
    name = _merged(args, config, "preset", None)
    if name is not None and name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    preset = PRESETS.get(name)
    fallback = SWEEP_DEFAULTS if preset is None else _preset_fields(preset)
    value = {key: _merged(args, config, key, fallback.get(key))
             for key in ("axis", "axis_min", "axis_max", "axis_count", "t_max", "t_count",
                         "order", "method")}
    if value["axis"] is None:
        raise ValueError("sweep requires --preset or --axis with a range")
    if value["axis_min"] is None or value["axis_max"] is None:
        raise ValueError("sweep requires --axis-min and --axis-max")
    return SweepConfig(
        base=_params_from(args, config, REFERENCE_PARAMS if preset is None else preset.base),
        axis=value["axis"],
        axis_range=(value["axis_min"], value["axis_max"], value["axis_count"]),
        t_range=(value["t_max"], value["t_count"]),
        order=value["order"],
        method=value["method"],
    )


def _cmd_sweep(args, config) -> int:
    if args.gnuplot_script and not args.out:
        raise ValueError("--gnuplot-script requires --out: the script plots that CSV file")
    sweep_cfg = _sweep_config_from(args, config)
    grid = run_sweep(sweep_cfg)
    csv_text = rows_to_csv(grid.rows)
    if args.out:
        out = Path(args.out)
        out.write_text(csv_text)
        Path(str(out) + ".meta.json").write_text(sidecar_metadata(grid))
        if args.gnuplot_script:
            Path(args.gnuplot_script).write_text(gnuplot_script(str(out), sweep_cfg))
    else:
        sys.stdout.write(csv_text)
    return 0


def _render_equilibria_table(report, params) -> str:
    rows = [
        ("fixed point k = 0", "0", report.k_zero_stability),
        ("fixed point k* = (p/q)^(1/(1-mu))", "%.12g" % report.k_star, report.k_star_stability),
        ("RHS derivative at k*", "%.12g" % report.derivative_at_star, ""),
        ("inflection candidate (pmu/q)^(1/(1-mu))", "%.12g" % report.inflection_candidate, ""),
    ]
    width = max(len(r[0]) for r in rows)
    lines = [f"equilibria for p={params.p:g} q={params.q:g} mu={params.mu:g}"]
    for name, val, note in rows:
        lines.append(f"  {name:<{width}s}  {val:>16s}  {note}")
    return "\n".join(lines)


def _cmd_equilibria(args, config) -> int:
    import json

    from .equilibrium import find_equilibria

    params = _params_from(args, config)
    report = find_equilibria(params)
    if args.json:
        sys.stdout.write(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_equilibria_table(report, params) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_verify(args, config) -> int:
    params = _params_from(args, config, REFERENCE_PARAMS.with_(alpha=0.8))
    from .transforms import run_all_verifications

    reports = run_all_verifications(params)
    if args.json:
        import json

        passed = all(rep.passed for rep in reports)
        sys.stdout.write(json.dumps({"params": params.as_dict(), "passed": passed,
                                     "reports": [rep.as_dict() for rep in reports]},
                                    indent=2, sort_keys=True) + "\n")
        return 0 if passed else 1
    failed = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        sys.stdout.write(f"{status}  {rep.name:<42s} max deviation {rep.max_deviation:.3e} "
                         f"(tol {rep.tol:.1e})\n")
        if not rep.passed:
            failed.append(rep)
    if failed:
        sys.stdout.write("failing identities:\n")
        for rep in failed:
            for label, dev in rep.failing_rows():
                sys.stdout.write(f"  {rep.name}: {label} deviation {dev:.3e}\n")
        return 1
    return 0


ORACLE_NAMES = {"exact": "exact-classical", "abm": "abm-fractional"}


def _cmd_compare(args, config) -> int:
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {args.tol}")
    order = int(_merged(args, config, "order", 8))
    rows = run_solve(_params_from(args, config), _merged(args, config, "t_max", 0.5),
                     int(_merged(args, config, "samples", 21)), "both", order)
    # t-major then method: each even row is the series, the next its oracle
    series, oracle = rows[0::2], rows[1::2]
    gaps = [abs(k - ref) / abs(ref)
            for (_, _, k, ok, _), (_, _, ref, _, _) in zip(series, oracle) if ok]
    worst = max([0.0, *gaps])  # from 0.0 first, so a NaN gap is never the worst
    sys.stdout.write(
        f"series (order {order}) vs {ORACLE_NAMES[oracle[0][4]]}: "
        f"{len(gaps)}/{len(series)} trusted points, "
        f"max relative gap {worst:.3e} (tol {args.tol:.1e})\n"
    )
    return 0 if worst <= args.tol and gaps else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "equilibria": _cmd_equilibria,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config, args.command) if getattr(args, "config", None) else {}
        return _COMMANDS[args.command](args, config)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
