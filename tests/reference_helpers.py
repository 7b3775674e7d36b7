"""Functions that only the test suite calls, kept out of the package so that
no command pays to compile them.  Each is the package's former code, moved
unchanged: `gamma_ratio` from `special` (now on `math.lgamma`, as `special`
and its ln Gamma are gone), `balanced_growth_capital` from
`equilibrium`, `parse_csv` from `sweep` and `build_parser`, the argparse
parser that `cli.parse_args` replaced, from `cli`.
"""

import argparse
import math
import warnings

from solowfrac.cli import COMMAND_KEYS, SUMMARY, choices, defaults
from solowfrac.cli_help import HELP
from solowfrac.model import ModelParams
from solowfrac.oracles import exact_classical_value
from solowfrac.sweep import CSV_HEADER, Row

NEAR_EQUILIBRIUM_REL = 0.01


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) via the log domain, immune to overflow of either factor."""
    if not (a > 0 and b > 0):
        raise ValueError(f"gamma_ratio requires positive arguments, got a={a}, b={b}")
    return math.exp(math.lgamma(a) - math.lgamma(b))


def balanced_growth_capital(params: ModelParams, L0: float, psi: float, t: float) -> float:
    """Asymptotic total capital K(t) = k_star * L0 * exp(psi * t).

    Valid once the capital-labour ratio has settled near k_star; the
    precondition is checked with the exact classical trajectory and a
    warning is emitted when k(t) is still more than 1% away.
    """
    if not L0 > 0:
        raise ValueError(f"L0 must be positive, got {L0}")
    k_star = params.k_star
    k_t = exact_classical_value(params, t)
    if abs(k_t - k_star) / k_star > NEAR_EQUILIBRIUM_REL:
        warnings.warn(
            f"balanced-growth formula applied at t={t} where k(t)={k_t:.6g} is "
            f"{abs(k_t - k_star) / k_star:.1%} away from k_star={k_star:.6g}",
            stacklevel=2,
        )
    return k_star * L0 * math.exp(psi * t)


def parse_csv(text: str) -> tuple[str, list[Row]]:
    """Parse an emitted grid CSV back into rows (round-trip safe)."""
    lines = text.strip("\n").split("\n")
    header = lines[0]
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows: list[Row] = []
    for line in lines[1:]:
        t, axis, k, trusted, method = line.split(",")
        rows.append((float(t), float(axis), float(k), trusted == "true", method))
    return header, rows


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, generated from `cli`'s settings table: the
    reference that `cli.parse_args` is tested against."""
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
            sp.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices(key),
                            help=HELP.get(key, "").format_map(defaults(command)))
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
