"""`solowfrac solve`: one trajectory to CSV."""

from .cli import _params, _write


def run(flags, s) -> int:
    from .sweep import rows_to_csv, run_solve

    rows = run_solve(_params(s), s["t_max"], s["samples"], s["method"], s["order"])
    _write(flags.get("out"), rows_to_csv(rows, axis=False))
    return 0
