"""`-h`/`--help` text of the program and of each subcommand, generated from
the settings table in `cli`."""

from .cli import FLAG_KINDS, SUMMARY, choices, defaults

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
