#!/usr/bin/env python3
"""Regenerate every figure-replication sweep grid as CSV (+ sidecar, gnuplot).

Writes, for each preset, <outdir>/<preset>.csv, <preset>.csv.meta.json and
<preset>.gp.  Output is deterministic: rerunning produces byte-identical
files, so the artifacts are diff-friendly.
"""

import argparse
import sys
from pathlib import Path

from solowfrac.sweep import PRESETS, gnuplot_script, rows_to_csv, run_sweep, sidecar_metadata


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures", help="output directory (default: figures/)")
    parser.add_argument("--preset", choices=sorted(PRESETS), action="append",
                        help="restrict to specific presets (repeatable; default all)")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = args.preset or sorted(PRESETS)
    for name in names:
        config = PRESETS[name]
        grid = run_sweep(config)
        csv_path = outdir / f"{name}.csv"
        csv_path.write_text(rows_to_csv(grid.rows))
        (outdir / f"{name}.csv.meta.json").write_text(sidecar_metadata(grid))
        (outdir / f"{name}.gp").write_text(gnuplot_script(str(csv_path), config))
        print(f"{name}: {len(grid.rows)} rows -> {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
