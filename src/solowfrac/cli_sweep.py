"""`solowfrac sweep`: a parameter sweep grid to CSV, with its sidecar and
gnuplot script."""

from os.path import normpath

from .cli import SIDECAR_SUFFIX, _params, _write


def run(flags, s) -> int:
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
        _write(out + SIDECAR_SUFFIX, sidecar_metadata(grid), what="the sidecar ")
        if script:
            # the script names the CSV in normal form: `./out//g.csv` as `out/g.csv`
            _write(script, gnuplot_script(normpath(out), sweep_cfg), "--gnuplot-script")
    return 0
