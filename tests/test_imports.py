"""Import cost: no command loads numpy or mpmath, which only the tests use,
nor `dataclasses`, `inspect`, `argparse` (with its `gettext` and `locale`)
or `json`, whose JSON the package's own `jsontext` writes; only `verify`
loads `cmath`; each command loads only the package modules it runs.

Each check runs in a fresh interpreter, because this test process has
imported all of these already.
"""

import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

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

def heavy(allowed=()):
    return sorted(m for m in ("numpy", "mpmath", "dataclasses", "inspect", "argparse", "gettext",
                              "locale", "cmath") if m in sys.modules and m not in allowed)

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
        report["verify"].append([argv, solowfrac.cli.main(argv), heavy(allowed=("cmath",))])
print(json.dumps(report))
"""


def run_fresh(program, *args, options=(), cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, *options, "-c", program, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def test_no_command_loads_numpy_or_mpmath():
    # verify's quadrature is pure Python too.  dataclasses and inspect,
    # ~10 ms of start-up, and argparse, ~3 ms with gettext and locale, stay
    # off every command's path as well; only verify compiles the
    # Mittag-Leffler code and its cmath.  -S skips `site`, whose start-up
    # hooks may load some of these modules on their own.
    for options in ((), ("-S",)):
        report = json.loads(run_fresh(PROGRAM, json.dumps(GUARDED), options=options))
        assert report["import"] == [], options
        for argv, code, heavy in report["commands"] + report["verify"]:
            assert code == 0, (argv, options)
            assert heavy == [], (argv, options)


def test_every_export_resolves_as_attribute():
    out = run_fresh("import json, solowfrac\n"
                    "print(json.dumps([type(getattr(solowfrac, n)).__name__"
                    " for n in solowfrac.__all__]))\n")
    assert len(json.loads(out)) == len(solowfrac.__all__) == 18
    assert not hasattr(solowfrac, "no_such_name")


def test_every_export_resolves_through_star_import():
    out = run_fresh("import json, solowfrac\n"
                    "names = {}\n"
                    "exec('from solowfrac import *', names)\n"
                    "print(json.dumps(sorted(set(solowfrac.__all__) - set(names))))\n")
    assert json.loads(out) == []


def test_every_exported_annotation_resolves():
    # get_type_hints evaluates each annotation string, so a name that appears
    # only in annotations and is never imported raises NameError here.
    targets = []
    for name in solowfrac.__all__:
        obj = getattr(solowfrac, name)
        if not callable(obj):
            continue
        targets.append((name, obj))
        if isinstance(obj, type):
            for attr, member in inspect.getmembers(obj):
                member = member.fget if isinstance(member, property) else member
                if not attr.startswith("_") and callable(member):
                    targets.append((f"{name}.{attr}", member))
    unresolved = []
    for label, target in targets:
        try:
            typing.get_type_hints(target)
        except NameError as exc:
            unresolved.append(f"{label}: {exc}")
    assert unresolved == []


# One command per fresh process: the package modules each command loads.
ONE_COMMAND = """
import contextlib, io, json, sys
import solowfrac.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = solowfrac.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("solowfrac."))]))
"""

SWEEP = ["series", "sweep"]
# Every command loads these two; each other module only the commands that run it.
CORE_MODULES = ["cli", "model"]
COMMAND_MODULES = {
    ("solve", "--method", "series"): SWEEP,
    ("sweep", "--preset", "fig-ktq"): SWEEP,
    ("sweep", "--preset", "fig-ktq", "--out", "o.csv"): SWEEP + ["jsontext"],
    ("solve", "--method", "exact"): SWEEP + ["exact"],
    ("compare", "--alpha", "1"): SWEEP + ["exact"],
    ("solve", "--method", "abm", "--alpha", "0.8"): SWEEP + ["exact", "oracles"],
    ("sweep", "--preset", "fig-ktq-frac", "--method", "both"): SWEEP + ["exact", "oracles"],
    ("compare", "--alpha", "0.8"): SWEEP + ["exact", "oracles"],
    ("equilibria",): ["equilibrium"],
    ("equilibria", "--json"): ["equilibrium", "jsontext"],
    ("verify",): ["exact", "transforms"],
    ("verify", "--json"): ["exact", "jsontext", "transforms"],
    ("--help",): [],
    ("verify", "--help"): [],
}


@pytest.mark.parametrize("argv", COMMAND_MODULES, ids=" ".join)
def test_command_loads_only_the_modules_it_runs(argv, tmp_path):
    # the exact set, so no helper module creeps back onto a request's path
    code, loaded = json.loads(run_fresh(ONE_COMMAND, json.dumps(argv), cwd=tmp_path))
    assert code == 0
    assert loaded == sorted(f"solowfrac.{name}" for name in CORE_MODULES + COMMAND_MODULES[argv])


# argv comes in as plain arguments: this program must not load json itself.
NO_JSON = """
import contextlib, io, sys
import solowfrac.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = solowfrac.cli.main(sys.argv[1:])
print(code, "json" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "abm", "--alpha", "0.8", "--samples", "2049", "--t-max", "2"],
    ["solve", "--method", "both", "--alpha", "0.9"],
    ["compare", "--alpha", "0.8"],
    ["verify"],
], ids=" ".join)
def test_command_without_json_output_does_not_load_json(argv):
    # json costs ~2 ms of start-up, about as much as a preset sweep's own work
    assert run_fresh(NO_JSON, *argv).split() == ["0", "False"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", "fig-ktq-frac", "--method", "both", "--out", "o.csv",
     "--gnuplot-script", "o.gp"],
    ["equilibria", "--json"],
    ["equilibria", "--out", "r.json"],
    ["verify", "--json"],
], ids=" ".join)
def test_command_writing_json_does_not_load_json(argv, tmp_path):
    # sidecars and reports come from jsontext, byte for byte what json wrote
    assert run_fresh(NO_JSON, *argv, cwd=tmp_path).split() == ["0", "False"]


def test_cli_does_not_import_pathlib():
    # -S skips `site`, whose start-up hooks may load pathlib on their own.
    program = (f"import sys; sys.path.insert(0, {SRC!r}); import solowfrac.cli; "
               "print('pathlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", program], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.split() == ["False"]
