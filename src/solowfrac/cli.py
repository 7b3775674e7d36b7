"""Command-line frontend: solve, sweep, equilibria, verify, compare.

The command line is parsed from the settings table below: `--flag value` or
`--flag=value`, any unique prefix of a flag, the last of repeated flags
winning, and `-h`/`--help` for the program or a subcommand, generated from
the same table.

This module is the parser core.  Each subcommand runs from its own module,
`cli_<command>.run(flags, settings)`; the help text (`cli_help`) and the
config file reader (`cli_config`) load only for `--help` and `--config`.  So a
process without a bytecode cache compiles only the code its command runs.

Exit codes: 0 success (and help), 1 verification/comparison failure, 2 usage
or validation error.  A usage error, an empty path or an output path in a
directory that does not exist included, exits 2 before any work, with a message
that names the flag.  So does a file that cannot be read or written.
"""

from __future__ import annotations

import sys
from os.path import dirname, isdir, realpath

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
    flag, before any work, for every error: an empty path, a written file (a
    sweep's sidecar too) that is a directory or in none, a gnuplot script over
    the --out CSV or its sidecar, and a written file over the --config file.
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
    out, script, config = values.get("out"), values.get("gnuplot_script"), values.get("config")
    for flag, path in (("--config", config), ("--out", out), ("--gnuplot-script", script)):
        if path == "":
            raise ValueError(f"{flag}: empty path")
    sidecar = out + SIDECAR_SUFFIX if out and command == "sweep" else None
    written = (("--out", out, ""), ("--out", sidecar, "the sidecar "),
               ("--gnuplot-script", script, ""))
    for flag, path, what in written:
        if path and isdir(path):
            raise ValueError(f"{flag}: {what}{path!r} is a directory")
        if path and not isdir(dirname(path) or "."):
            raise ValueError(f"{flag}: directory of {what}{path!r} does not exist")
    if out and script and realpath(script) in (realpath(out), realpath(sidecar)):
        raise ValueError(f"--gnuplot-script: {script!r} is the --out CSV or its sidecar")
    for flag, path, what in written:
        if config and path and realpath(path) == realpath(config):
            raise ValueError(f"{flag}: {what}{path!r} is the --config file")
    return command, values


def _settings(command: str, flags: dict) -> dict:
    """Each value setting from its flag, then the config file, then the preset, then the default."""
    keys = COMMAND_KEYS[command]
    config = {}
    if flags.get("config"):
        from .cli_config import _read_config

        config = _read_config(flags["config"], command)
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


def _write(path: str | None, text: str, flag: str = "--out", what: str = "") -> None:
    """Write `text` to the file `path`, or to stdout when there is no path.  A
    failed write names the `flag` that gave the path and `what` the file is."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise ValueError(f"{flag}: cannot write {what}{path!r}: {exc.strerror}") from None


def main(argv=None) -> int:
    try:
        command, flags = parse_args(sys.argv[1:] if argv is None else argv)
        if flags.get("help"):
            from .cli_help import usage

            sys.stdout.write(usage(command))
            return 0
        settings = _settings(command, flags)
        # __import__ with a fromlist returns the submodule itself
        return __import__(f"{__package__}.cli_{command}", fromlist=["run"]).run(flags, settings)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
