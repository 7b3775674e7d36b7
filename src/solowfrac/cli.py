"""Command-line frontend: solve, sweep, equilibria, verify, compare.

The command line is parsed from the settings table below: `--flag value` or
`--flag=value`, any unique prefix of a flag, the last of repeated flags
winning, and `-h`/`--help` for the program or a subcommand, generated from
the same table.

Exit codes: 0 success (and help), 1 verification/comparison failure, 2 usage
or validation error.  A usage error, an empty path or an output path in a
directory that does not exist included, exits 2 before any work, with a message
that names the flag.
"""

from __future__ import annotations

import math
import sys
from os.path import dirname, isdir, normpath, realpath

from .model import REFERENCE_PARAMS, ModelParams

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
# Each subcommand's flags that set no value setting, key -> type; bool is a
# switch.  `out` and `gnuplot_script` name files to write, `config` one to read.
OTHER_FLAGS = {
    "solve": {"config": str, "out": str},
    "sweep": {"config": str, "out": str, "gnuplot_script": str},
    "equilibria": {"config": str, "json": bool, "out": str},
    "verify": {"config": str, "json": bool},
    "compare": {"config": str},
}
FLAG_KINDS = {command: {**keys, **OTHER_FLAGS[command]} for command, keys in COMMAND_KEYS.items()}
SIDECAR_SUFFIX = ".meta.json"  # a sweep's sidecar is its --out path plus this
HELP = {
    "p": "productivity coefficient (> 0)",
    "q": "depreciation/labour-growth rate (> 0)",
    "mu": "capital elasticity in (0, 1)",
    "alpha": "fractional order in (0, 1]",
    "k0": "initial capital-labour ratio (> 0)",
    "order": "series truncation",
    "t_max": "end of the time grid [0, t_max]",
    "samples": "points on the time grid",
    "t_count": "points on the time grid",
    "method": "series, the oracle for alpha (exact at 1, abm below), or both",
    "preset": "a figure's settings, under every flag and config line",
    "axis": "the parameter the sweep varies",
    "axis_min": "first value on the sweep axis",
    "axis_max": "last value on the sweep axis",
    "axis_count": "values on the sweep axis",
    "tol": "max allowed relative gap",
    "config": "flat key=value config file",
    "out": "file to write the CSV to (default stdout), or equilibria's JSON report",
    "gnuplot_script": "also write a companion gnuplot script to this path",
    "json": "print JSON (equilibria: the report; verify: parameters and every row)",
}
DESCRIPTION = ("Series and oracle solvers for the classical and Caputo-fractional\n"
               "Solow-Swan capital accumulation model.")
SUMMARY = {
    "solve": "single trajectory to CSV",
    "sweep": "parameter sweep grid to CSV",
    "equilibria": "fixed points and stability",
    "verify": "run all transform identity checks",
    "compare": "series vs oracle on the trusted region",
}


def defaults(command: str) -> dict:
    """Each setting of `command` that no flag, config line or preset gives; a
    sweep's preset, axis and axis range have none.  Only solve and sweep read
    the order default, so only they load `series` for it."""
    reference = REFERENCE_PARAMS.as_dict()
    if command == "solve" or command == "sweep":
        from .series import DEFAULT_ORDER

        grid = ({"t_max": 2.0, "samples": 41} if command == "solve"
                else {"axis_count": 21, "t_max": 2.0, "t_count": 41})
        return {**reference, "order": DEFAULT_ORDER, **grid, "method": "series"}
    return {"equilibria": reference, "verify": {**reference, "alpha": 0.8},
            "compare": {**reference, "order": 8, "t_max": 0.5, "samples": 21, "tol": 1e-3}}[command]


def choices(key: str) -> list | tuple | None:
    """The values that setting `key` may take, None for a setting of any value.
    The lists live in `sweep`, which loads here only for a choice setting."""
    if key not in ("preset", "axis", "method"):
        return None
    from .sweep import AXES, METHODS, PRESETS

    return {"preset": sorted(PRESETS), "axis": AXES, "method": METHODS}[key]


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
            value = COMMAND_KEYS[command][key](val.strip())
            if (allowed := choices(key)) is not None and value not in allowed:
                raise ValueError(f"invalid choice {value!r}; choose from {', '.join(allowed)}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        values[key] = value
    return values


def _is_value(token: str) -> bool:
    """Whether the token after a flag is its value: one that does not start with
    `-`, `-` itself, or a negative number as argparse reads one (`-5`, `-.5`)."""
    if len(token) < 2 or token[0] != "-":
        return True
    whole, dot, frac = token[1:].partition(".")
    return frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()


def _flag(token: str, flags: dict, command: str) -> str:
    """The flag that `token` names, in full or as the unique prefix of a long flag."""
    if token in flags:
        return token
    matches = [flag for flag in flags if token.startswith("--") and flag.startswith(token)]
    if len(matches) > 1:
        raise ValueError(f"ambiguous flag {token}: could match {', '.join(matches)}")
    if not matches:
        raise ValueError(f"{command}: unrecognized argument {token!r}")
    return matches[0]


def parse_args(argv: list[str]) -> tuple[str | None, dict]:
    """The subcommand and its flags' values, key -> value, from a command line.

    The last of repeated flags wins.  `-h`/`--help` gives {"help": True}, with
    the subcommand None for the program's help.  Raises ValueError naming the
    flag, before any work, for every error: an empty path, an output path that
    is a directory or in none, a gnuplot script over the --out CSV or its
    sidecar, and a written file (a sweep's sidecar too) over the --config file.
    """
    command = argv[0] if argv else ""
    if command not in SUMMARY:
        if command == "-h" or len(command) > 2 and "--help".startswith(command):
            return None, {"help": True}
        commands = ", ".join(SUMMARY)
        raise ValueError(f"unknown subcommand {command!r}; choose from {commands}" if argv
                         else f"missing subcommand; choose from {commands}")
    kinds = FLAG_KINDS[command]
    flags = {"-h": "help", "--help": "help", **{"--" + key.replace("_", "-"): key for key in kinds}}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        flag = _flag(name, flags, command)
        key = flags[flag]
        kind = kinds.get(key, bool)
        if kind is bool:  # a switch: --help or --json
            if eq:
                raise ValueError(f"{flag} takes no value, got {token!r}")
            values[key] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                raise ValueError(f"{flag} expects a value")
        try:
            values[key] = kind(value)
        except ValueError:
            raise ValueError(f"{flag}: invalid {kind.__name__} value {value!r}") from None
        if (allowed := choices(key)) is not None and values[key] not in allowed:
            raise ValueError(f"{flag}: invalid choice {value!r}; choose from {', '.join(allowed)}")
    for flag in ("--config", "--out", "--gnuplot-script"):
        if values.get(flags.get(flag)) == "":
            raise ValueError(f"{flag}: empty path")
    for flag in ("--out", "--gnuplot-script"):
        path = values.get(flags.get(flag))
        if path and isdir(path):
            raise ValueError(f"{flag}: {path!r} is a directory")
        if path and not isdir(dirname(path) or "."):
            raise ValueError(f"{flag}: directory of {path!r} does not exist")
    out, script, config = values.get("out"), values.get("gnuplot_script"), values.get("config")
    sidecar = out + SIDECAR_SUFFIX if out and command == "sweep" else None
    if out and script and realpath(script) in (realpath(out), realpath(sidecar)):
        raise ValueError(f"--gnuplot-script: {script!r} is the --out CSV or its sidecar")
    for flag, path, what in (("--out", out, ""), ("--out", sidecar, "the sidecar "),
                             ("--gnuplot-script", script, "")):
        if config and path and realpath(path) == realpath(config):
            raise ValueError(f"{flag}: {what}{path!r} is the --config file")
    return command, values


def usage(command: str | None) -> str:
    """The `--help` text of a subcommand, or of the program when `command` is None."""
    if command is None:
        lines = ["usage: solowfrac {" + ",".join(SUMMARY) + "} [--flag VALUE ...]", "",
                 DESCRIPTION, "", "subcommands:",
                 *(f"  {name:<12s}{summary}" for name, summary in SUMMARY.items()), "",
                 "`solowfrac COMMAND --help` lists a subcommand's flags.  A flag may be",
                 "abbreviated to any unique prefix.  Exit status: 0 success, 1 a failed",
                 "verification or comparison, 2 a usage or validation error."]
        return "\n".join(lines) + "\n"
    lines = [f"usage: solowfrac {command} [--flag VALUE ...]", "", SUMMARY[command], "",
             "flags:", f"  {'-h, --help':<24s}  show this help and exit"]
    default_values = defaults(command)
    for key, kind in FLAG_KINDS[command].items():
        flag = "--" + key.replace("_", "-")
        allowed = choices(key)
        if kind is not bool:
            flag += " " + ("{" + ",".join(allowed) + "}" if allowed is not None else key.upper())
        default = f" (default {default_values[key]})" if key in default_values else ""
        lines.append(f"  {flag:<24s}  " if len(flag) <= 24 else f"  {flag}\n{'':28s}")
        lines[-1] += HELP[key] + default
    return "\n".join(lines) + "\n"


def _settings(command: str, flags: dict) -> dict:
    """Each value setting from its flag, then the config file, then the preset, then the default."""
    keys = COMMAND_KEYS[command]
    config = _read_config(flags["config"], command) if flags.get("config") else {}
    given = {key: value for key, value in flags.items() if key in keys}
    fields = {}
    if name := given.get("preset", config.get("preset")):
        from .sweep import PRESETS

        preset = PRESETS[name]
        (lo, hi, count), (t_max, t_count) = preset.axis_range, preset.t_range
        fields = {**preset.base.as_dict(), "axis": preset.axis, "axis_min": lo, "axis_max": hi,
                  "axis_count": count, "t_max": t_max, "t_count": t_count,
                  "order": preset.order, "method": preset.method}
    return {**defaults(command), **fields, **config, **given}


def _params(settings: dict) -> ModelParams:
    return ModelParams(*(settings[key] for key in MODEL_KEYS))


def _write(path: str | None, text: str) -> None:
    """Write `text` to the file `path`, or to stdout when there is no path."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as f:
        f.write(text)


def _cmd_solve(flags, s) -> int:
    from .sweep import rows_to_csv, run_solve

    rows = run_solve(_params(s), s["t_max"], s["samples"], s["method"], s["order"])
    _write(flags.get("out"), rows_to_csv(rows, axis=False))
    return 0


def _cmd_sweep(flags, s) -> int:
    out, script = flags.get("out"), flags.get("gnuplot_script")
    if script and not out:
        raise ValueError("--gnuplot-script requires --out: the script plots that CSV file")
    if s.get("axis") is None:
        raise ValueError("sweep requires --preset or --axis with a range")
    if s.get("axis_min") is None or s.get("axis_max") is None:
        raise ValueError("sweep requires --axis-min and --axis-max")
    from .sweep import SweepConfig, gnuplot_script, rows_to_csv, run_sweep, sidecar_metadata

    sweep_cfg = SweepConfig(_params(s), s["axis"], (s["axis_min"], s["axis_max"], s["axis_count"]),
                            (s["t_max"], s["t_count"]), s["order"], s["method"])
    grid = run_sweep(sweep_cfg)
    _write(out, rows_to_csv(grid.rows))
    if out:
        _write(out + SIDECAR_SUFFIX, sidecar_metadata(grid))
        if script:
            # the script names the CSV in normal form: `./out//g.csv` as `out/g.csv`
            _write(script, gnuplot_script(normpath(out), sweep_cfg))
    return 0


def _render_equilibria_table(report, params) -> str:
    rows = [
        ("fixed point k = 0", "0", report["k_zero_stability"]),
        ("fixed point k* = (p/q)^(1/(1-mu))", "%.12g" % report["k_star"],
         report["k_star_stability"]),
        ("RHS derivative at k*", "%.12g" % report["derivative_at_star"], ""),
        ("inflection candidate (pmu/q)^(1/(1-mu))", "%.12g" % report["inflection_candidate"], ""),
    ]
    width = max(len(r[0]) for r in rows)
    lines = [f"equilibria for p={params.p:g} q={params.q:g} mu={params.mu:g}"]
    for name, val, note in rows:
        lines.append(f"  {name:<{width}s}  {val:>16s}  {note}")
    return "\n".join(lines)


def _cmd_equilibria(flags, s) -> int:
    from .equilibrium import find_equilibria

    params = _params(s)
    report = find_equilibria(params)
    out = flags.get("out")
    if flags.get("json") or out:
        from .jsontext import dumps

        text = dumps(report) + "\n"
    sys.stdout.write(text if flags.get("json") else _render_equilibria_table(report, params) + "\n")
    if out:
        _write(out, text)
    return 0


def _cmd_verify(flags, s) -> int:
    params = _params(s)
    from .transforms import run_all_verifications

    reports = run_all_verifications(params)
    passed = all(rep["passed"] for rep in reports)
    if flags.get("json"):
        from .jsontext import dumps

        sys.stdout.write(dumps({"params": params.as_dict(), "passed": passed,
                                "reports": reports}) + "\n")
        return 0 if passed else 1
    for rep in reports:
        sys.stdout.write(f"{'PASS' if rep['passed'] else 'FAIL'}  {rep['name']:<42s} "
                         f"max deviation {rep['max_deviation']:.3e} (tol {rep['tol']:.1e})\n")
    if passed:
        return 0
    sys.stdout.write("failing identities:\n")
    for rep in reports:
        for label, dev in rep["rows"]:
            if not dev <= rep["tol"]:  # NaN rows fail too
                sys.stdout.write(f"  {rep['name']}: {label} deviation {dev:.3e}\n")
    return 1


ORACLE_NAMES = {"exact": "exact-classical", "abm": "abm-fractional"}


def _cmd_compare(flags, s) -> int:
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


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "equilibria": _cmd_equilibria,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    try:
        command, flags = parse_args(sys.argv[1:] if argv is None else argv)
        if flags.get("help"):
            sys.stdout.write(usage(command))
            return 0
        return _COMMANDS[command](flags, _settings(command, flags))
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
