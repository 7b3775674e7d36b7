"""Import cost: no command loads numpy or mpmath; only the tests use them.

Each check runs in a fresh interpreter, because this test process has
imported both libraries already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import solowfrac

SRC = str(Path(solowfrac.__file__).resolve().parents[1])

GUARDED = [
    ["solve", "--method", "series"],
    ["solve", "--method", "exact"],
    ["solve", "--method", "abm", "--alpha", "0.8"],
    ["sweep", "--preset", "fig-ktq-frac", "--method", "both"],
    ["equilibria", "--json"],
    ["compare", "--alpha", "0.8"],
]

PROGRAM = """
import contextlib, io, json, sys

def heavy():
    return sorted(m for m in ("numpy", "mpmath") if m in sys.modules)

import solowfrac.cli
report = {"import": heavy(), "commands": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = solowfrac.cli.main(argv)
    report["commands"].append([argv, code, heavy()])
report["verify"] = []
for alpha in (None, "0.05", "0.95"):
    argv = ["verify"] + (["--alpha", alpha] if alpha else [])
    with contextlib.redirect_stdout(io.StringIO()):
        report["verify"].append([argv, solowfrac.cli.main(argv), heavy()])
print(json.dumps(report))
"""


def run_fresh(program, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", program, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def test_no_command_loads_numpy_or_mpmath():
    # verify's quadrature is pure Python too
    report = json.loads(run_fresh(PROGRAM, json.dumps(GUARDED)))
    assert report["import"] == []
    for argv, code, heavy in report["commands"]:
        assert code == 0, argv
        assert heavy == [], argv
    for argv, code, heavy in report["verify"]:
        assert code == 0, argv
        assert heavy == [], argv


def test_every_export_resolves_as_attribute():
    out = run_fresh("import json, solowfrac\n"
                    "print(json.dumps([type(getattr(solowfrac, n)).__name__"
                    " for n in solowfrac.__all__]))\n")
    assert len(json.loads(out)) == len(solowfrac.__all__) == 26
    assert not hasattr(solowfrac, "no_such_name")


def test_every_export_resolves_through_star_import():
    out = run_fresh("import json, solowfrac\n"
                    "names = {}\n"
                    "exec('from solowfrac import *', names)\n"
                    "print(json.dumps(sorted(set(solowfrac.__all__) - set(names))))\n")
    assert json.loads(out) == []
