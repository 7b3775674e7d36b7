"""The benchmark's traced mode still runs the commands it times.

`clibench/bench_trace.py` wraps functions by name, reads `run_solve`'s
method argument and replaces `sumudu_numeric`'s integrand, so a refactor
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
    counts = traced_counts(tmp_path, "verify", "--alpha", "0.5")
    assert counts["transforms.sumudu_numeric.calls"] > 0
