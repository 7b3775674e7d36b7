"""Command-line frontend: solve, sweep, equilibria, verify, compare.

Exit codes: 0 success, 1 verification/comparison failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from os.path import normpath

from .model import REFERENCE_PARAMS, ModelParams
from .series import DEFAULT_ORDER
from .sweep import (AXES, METHODS, PRESETS, SweepConfig, gnuplot_script, rows_to_csv, run_solve,
                    run_sweep, sidecar_metadata)

# Each subcommand's value settings, key -> type.  The flag is the key with
# `-` for `_`; a config file sets the same value with a `key = value` line.
MODEL_KEYS = dict.fromkeys(ModelParams.__slots__, float)
COMMAND_KEYS = {
    "solve": {**MODEL_KEYS, "order": int, "t_max": float, "samples": int, "method": str},
    "sweep": {**MODEL_KEYS, "preset": str, "axis": str, "axis_min": float, "axis_max": float,
              "axis_count": int, "t_max": float, "t_count": int, "order": int, "method": str},
    "equilibria": MODEL_KEYS,
    "verify": MODEL_KEYS,
    "compare": {**MODEL_KEYS, "order": int, "t_max": float, "samples": int, "tol": float},
}
# Each setting that no flag, config line or preset gives.  A sweep's preset,
# axis and axis range have no default.
_REFERENCE = REFERENCE_PARAMS.as_dict()
DEFAULTS = {
    "solve": {**_REFERENCE, "order": DEFAULT_ORDER, "t_max": 2.0, "samples": 41, "method": "series"},
    "sweep": {**_REFERENCE, "axis_count": 21, "t_max": 2.0, "t_count": 41,
              "order": DEFAULT_ORDER, "method": "series"},
    "equilibria": _REFERENCE,
    "verify": {**_REFERENCE, "alpha": 0.8},
    "compare": {**_REFERENCE, "order": 8, "t_max": 0.5, "samples": 21, "tol": 1e-3},
}
CHOICES = {"preset": sorted(PRESETS), "axis": AXES, "method": METHODS}
HELP = {
    "p": "productivity coefficient (> 0)",
    "q": "depreciation/labour-growth rate (> 0)",
    "mu": "capital elasticity in (0, 1)",
    "alpha": "fractional order in (0, 1]",
    "k0": "initial capital-labour ratio (> 0)",
    "order": "series truncation (default {order})",
    "tol": "max allowed relative gap",
}
SUMMARY = {
    "solve": "single trajectory to CSV",
    "sweep": "parameter sweep grid to CSV",
    "equilibria": "fixed points and stability",
    "verify": "run all transform identity checks",
    "compare": "series vs oracle on the trusted region",
}


def _read_config(path: str, command: str) -> dict:
    with open(path) as f:
        text = f.read()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not any(key in keys for keys in COMMAND_KEYS.values()):
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in COMMAND_KEYS[command]:
            raise ValueError(f"{path}:{lineno}: {command!r} does not read key {key!r}")
        try:
            values[key] = COMMAND_KEYS[command][key](val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solowfrac",
        description="Series and oracle solvers for the classical and "
                    "Caputo-fractional Solow-Swan capital accumulation model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for command, summary in SUMMARY.items():
        sp = subparsers[command] = sub.add_parser(command, help=summary)
        for key, kind in COMMAND_KEYS[command].items():
            sp.add_argument("--" + key.replace("_", "-"), type=kind, choices=CHOICES.get(key),
                            help=HELP.get(key, "").format_map(DEFAULTS[command]))
            if key == "k0":  # --config follows the model flags on every subcommand
                sp.add_argument("--config", help="flat key=value config file")
    for command in ("solve", "sweep"):
        subparsers[command].add_argument("--out", help="output CSV path (default stdout)")
    subparsers["sweep"].add_argument("--gnuplot-script",
                                     help="also write a companion gnuplot script to this path")
    subparsers["equilibria"].add_argument("--json", action="store_true",
                                          help="print JSON instead of a table")
    subparsers["equilibria"].add_argument("--out", help="also write the JSON report here")
    subparsers["verify"].add_argument("--json", action="store_true",
                                      help="print the parameters and every report's rows as JSON")
    return parser


def _settings(args) -> dict:
    """Each value setting from its flag, then the config file, then the preset, then the default."""
    keys = COMMAND_KEYS[args.command]
    config = _read_config(args.config, args.command) if args.config else {}
    flags = {key: value for key in keys if (value := getattr(args, key)) is not None}
    preset = PRESETS.get(flags.get("preset", config.get("preset")))  # sweep refuses unknown names
    fields = {}
    if preset is not None:
        (lo, hi, count), (t_max, t_count) = preset.axis_range, preset.t_range
        fields = {**preset.base.as_dict(), "axis": preset.axis, "axis_min": lo, "axis_max": hi,
                  "axis_count": count, "t_max": t_max, "t_count": t_count,
                  "order": preset.order, "method": preset.method}
    return {**DEFAULTS[args.command], **fields, **config, **flags}


def _params(settings: dict) -> ModelParams:
    return ModelParams(*(settings[key] for key in MODEL_KEYS))


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _cmd_solve(args, s) -> int:
    rows = run_solve(_params(s), s["t_max"], s["samples"], s["method"], s["order"])
    csv_text = rows_to_csv(rows, axis=False)
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_sweep(args, s) -> int:
    if args.gnuplot_script and not args.out:
        raise ValueError("--gnuplot-script requires --out: the script plots that CSV file")
    if s.get("preset") not in (None, *PRESETS):
        raise ValueError(f"unknown preset {s['preset']!r}; choose from {sorted(PRESETS)}")
    if s.get("axis") is None:
        raise ValueError("sweep requires --preset or --axis with a range")
    if s.get("axis_min") is None or s.get("axis_max") is None:
        raise ValueError("sweep requires --axis-min and --axis-max")
    sweep_cfg = SweepConfig(_params(s), s["axis"], (s["axis_min"], s["axis_max"], s["axis_count"]),
                            (s["t_max"], s["t_count"]), s["order"], s["method"])
    grid = run_sweep(sweep_cfg)
    csv_text = rows_to_csv(grid.rows)
    if args.out:
        _write(args.out, csv_text)
        _write(args.out + ".meta.json", sidecar_metadata(grid))
        if args.gnuplot_script:
            # the script names the CSV in normal form: `./out//g.csv` as `out/g.csv`
            _write(args.gnuplot_script, gnuplot_script(normpath(args.out), sweep_cfg))
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


def _cmd_equilibria(args, s) -> int:
    import json

    from .equilibrium import find_equilibria

    params = _params(s)
    report = find_equilibria(params)
    text = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text if args.json else _render_equilibria_table(report, params) + "\n")
    if args.out:
        _write(args.out, text)
    return 0


def _cmd_verify(args, s) -> int:
    params = _params(s)
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


def _cmd_compare(args, s) -> int:
    tol, order = s["tol"], s["order"]
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    rows = run_solve(_params(s), s["t_max"], s["samples"], "both", order)
    # t-major then method: each even row is the series, the next its oracle
    series, oracle = rows[0::2], rows[1::2]
    gaps = [abs(k - ref) / abs(ref)
            for (_, _, k, ok, _), (_, _, ref, _, _) in zip(series, oracle) if ok]
    worst = max([0.0, *gaps])  # from 0.0 first, so a NaN gap is never the worst
    sys.stdout.write(
        f"series (order {order}) vs {ORACLE_NAMES[oracle[0][4]]}: "
        f"{len(gaps)}/{len(series)} trusted points, "
        f"max relative gap {worst:.3e} (tol {tol:.1e})\n"
    )
    return 0 if worst <= tol and gaps else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "equilibria": _cmd_equilibria,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _settings(args))
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
