#!/usr/bin/env python3
"""Fresh-process medians of the five commands in ROADMAP Open item 1.

    python3 clibench/reconcile.py [--repeats 15]

Run from the root of a checkout.  Each command runs through the benchmark's
own Runner (same spawn, CPU pinning and scaling as run.py), interleaved so
that slow phases of the machine fall on all of them alike.
"""

import argparse
import statistics
import sys
from pathlib import Path

import run

COMMANDS = {
    "solve": ["solve"],
    "sweep --preset fig-ktq": ["sweep", "--preset", "fig-ktq"],
    "sweep --preset fig-ktq-frac --method both": ["sweep", "--preset", "fig-ktq-frac",
                                                  "--method", "both"],
    "verify": ["verify"],
    "compare --alpha 0.8": ["compare", "--alpha", "0.8"],
    "python -c pass": None,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    runner = run.Runner(Path.cwd())
    walls = {name: [] for name in COMMANDS}
    raw = {name: [] for name in COMMANDS}
    try:
        for _ in range(args.repeats):
            for name, cli_args in COMMANDS.items():
                cmd = [sys.executable, "-c", "pass" if cli_args is None else run.ENTRY,
                       *(cli_args or [])]
                result = runner.spawn(cmd)
                if result["code"] != 0:
                    raise RuntimeError(f"{name} exited {result['code']}: {result['stderr']}")
                walls[name].append(result["scaled"] * 1000.0)
                raw[name].append(result["wall"] * 1000.0)
    finally:
        runner.close()
    for name, values in walls.items():
        print(f"{name:<44s} median {statistics.median(values):7.1f} ms scaled, "
              f"{statistics.median(raw[name]):7.1f} ms raw  (n={len(values)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
