"""The benchmark's traced mode still runs the commands it times.

`clibench/bench_trace.py` wraps functions by name, reads `run_solve`'s
method argument, `run_sweep`'s config and rows and `eval_series`'s trust
flag, and replaces `sumudu_numeric`'s integrand, so a refactor
of the package can break it without breaking any command.  Each case runs
the tracer in a fresh process, as the benchmark does, and reads its
counters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solowfrac

SRC = str(Path(solowfrac.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "clibench" / "bench_trace.py"


def traced_counts(tmp_path, *argv):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(TRACER), str(out), *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["counts"]


@pytest.mark.parametrize("argv, csv_writes", [
    (["compare", "--alpha", "0.8"], 0),
    (["solve", "--method", "both", "--alpha", "0.8"], 1),
])
def test_series_and_oracle_go_through_run_solve(tmp_path, argv, csv_writes):
    counts = traced_counts(tmp_path, *argv)
    assert counts["sweep.run_solve.calls"] == 1
    assert counts["sweep.cells"] == 2
    assert counts.get("sweep.rows_to_csv.calls", 0) == csv_writes


def test_verify_runs_traced(tmp_path):
    # the tracer skips a name it cannot find, so a renamed function reads 0 here
    counts = traced_counts(tmp_path, "verify", "--alpha", "0.5")
    assert counts["transforms.verify_convolution.calls"] == 3
    assert counts["transforms.sumudu_numeric.calls"] == 36


@pytest.mark.parametrize("method, cells", [("series", 3), ("both", 6)])
def test_sweep_counts_cells_rows_and_trusted_points(tmp_path, method, cells):
    # t up to 20 at order 5: the early points are trusted, the late ones not
    counts = traced_counts(tmp_path, "sweep", "--axis", "q", "--axis-min", "0.1",
                           "--axis-max", "0.4", "--axis-count", "3", "--t-max", "20",
                           "--t-count", "11", "--method", method, "--out", "grid.csv")
    rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
    trusted = [row.endswith(",true,series") for row in rows if row.endswith(",series")]
    assert 0 < sum(trusted) < len(trusted) == 33
    assert counts["sweep.cells"] == cells
    assert counts["sweep.rows"] == len(rows) == 11 * cells
    assert counts["series.eval_series.calls"] == 33
    assert counts["series.eval_series.trusted"] == sum(trusted)
