#!/usr/bin/env python3
"""Regenerate every figure-replication sweep grid as CSV (+ sidecar, gnuplot).

Writes, for each preset, <outdir>/<preset>.csv, <preset>.csv.meta.json and
<preset>.gp through `solowfrac sweep --preset`, so the files are those the
CLI writes.  Output is deterministic: rerunning produces byte-identical
files, so the artifacts are diff-friendly.
"""

import argparse
import sys
from pathlib import Path

from solowfrac.cli import main as cli_main
from solowfrac.sweep import PRESETS


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
        csv_path = outdir / f"{name}.csv"
        code = cli_main(["sweep", "--preset", name, "--out", str(csv_path),
                         "--gnuplot-script", str(outdir / f"{name}.gp")])
        if code:
            return code
        rows = len(csv_path.read_text().splitlines()) - 1
        print(f"{name}: {rows} rows -> {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
