#!/usr/bin/env python3
"""Closed-loop CLI benchmark for solowfrac: one client, one request at a time.

    python3 clibench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every request runs one `solowfrac`
subcommand in a fresh interpreter with `src/` on PYTHONPATH, the way the
console script or `scripts/make_figures.py` pays for it, and every response
is checked (bench_check.py).  Requests come from bench_workloads.py, seeded.

A run lasts until the requests' scaled wall times add up to --seconds,
then finishes its round, so how many requests a seed gets does not depend
on how loaded the machine is.  Reported times are wall times scaled to a
reference CPU speed (see Runner); raw medians are printed beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each request twice,
untraced and through bench_trace.py under `python -X importtime`, in
alternating order, and prints the per-layer metrics plus the tracing
overhead.  `--workload all` runs every workload in turn.  The last line of
stdout is one JSON object; the human-readable report precedes it, and the
environment record goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import bench_check
import bench_workloads

BENCH_DIR = Path(__file__).resolve().parent
ENTRY = "import sys\nfrom solowfrac.cli import main\nsys.exit(main())"
SETUP_SAMPLES = 9
REQUEST_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# _probe() on one otherwise idle CPU of the 2-core sandbox the benchmark
# was defined on: the speed every reported time is scaled to.
PROBE_REFERENCE_S = 1.15e-3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "request_p50_ms": ("ms", "lower"),
    "request_tail_ms": ("ms", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}
# Per-layer metric -> (unit, better, end-to-end metric it should move, workloads).
# Times and counts are per request, averaged over the traced requests of a run.
PER_LAYER = {
    "cli.import_ms": ("ms", "lower", "setup_s, request_p50_ms", "figures"),
    "cli.import.numpy_ms": ("ms", "lower", "setup_s, request_p50_ms", "figures"),
    "cli.import.mpmath_ms": ("ms", "lower", "setup_s, request_p50_ms", "figures"),
    "cli.main.self_ms": ("ms", "lower", "request_p50_ms", "figures"),
    "sweep.run_sweep.self_ms": ("ms", "lower", "request_p50_ms", "figures"),
    "sweep.run_solve.self_ms": ("ms", "lower", "request_p50_ms", "figures"),
    "sweep.grid_to_csv.ms": ("ms", "lower", "request_p50_ms", "figures"),
    "sweep.rows_to_csv.ms": ("ms", "lower", "request_p50_ms", "figures"),
    "sweep.sidecar_metadata.ms": ("ms", "lower", "request_p50_ms", "figures"),
    "sweep.cells": ("count", "higher", "request_p50_ms", "figures"),
    "sweep.rows": ("count", "higher", "request_p50_ms", "figures"),
    "equilibrium.find_equilibria.ms": ("ms", "lower", "request_p50_ms", "figures"),
    "series.eval_series.calls": ("count", "lower", "request_p50_ms", "figures, high-order"),
    "series.eval_series.self_ms": ("ms", "lower", "request_p50_ms", "figures, high-order"),
    "series.eval_series.trusted_ratio": ("ratio", "higher", "ok_frac",
                                         "figures, high-order"),
    "series.build_series.calls": ("count", "lower", "request_p50_ms", "high-order"),
    "series.build_series.self_ms": ("ms", "lower", "request_p50_ms", "high-order"),
    "adomian.adomian_power_coeffs.calls": ("count", "lower",
                                           "request_p50_ms, request_tail_ms", "high-order"),
    "adomian.adomian_power_coeffs.self_ms": ("ms", "lower",
                                             "request_p50_ms, request_tail_ms", "high-order"),
    "adomian.adomian_power_coeffs.terms": ("count", "lower",
                                           "request_p50_ms, request_tail_ms", "high-order"),
    "adomian.adomian_power_coeffs.used_ratio": ("ratio", "higher",
                                                "request_p50_ms, request_tail_ms", "high-order"),
    "oracles.solve_abm_fractional.calls": ("count", "lower",
                                           "request_p50_ms, request_tail_ms", "oracle-check"),
    "oracles.solve_abm_fractional.steps": ("count", "lower",
                                           "request_p50_ms, request_tail_ms", "oracle-check"),
    "oracles.solve_abm_fractional.self_ms": ("ms", "lower",
                                             "request_p50_ms, request_tail_ms", "oracle-check"),
    "oracles.solve_abm_fractional.memory_terms": ("count", "lower",
                                                  "request_p50_ms, request_tail_ms",
                                                  "oracle-check"),
    "oracles.solve_exact_classical.self_ms": ("ms", "lower", "request_p50_ms", "figures"),
    "transforms.sumudu_numeric.calls": ("count", "lower", "request_p50_ms", "verify"),
    "transforms.sumudu_numeric.self_ms": ("ms", "lower", "request_p50_ms", "verify"),
    "transforms.sumudu_numeric.integrand_evals": ("count", "lower", "request_p50_ms", "verify"),
    "transforms.verify_convolution.self_ms": ("ms", "lower", "request_p50_ms", "verify"),
    "special.mittag_leffler.calls": ("count", "lower", "request_p50_ms", "verify"),
    "special.mittag_leffler.self_ms": ("ms", "lower", "request_p50_ms", "verify"),
    "special.mittag_leffler.distinct_ratio": ("ratio", "higher", "request_p50_ms", "verify"),
    "special.ln_gamma.calls": ("count", "lower", "request_p50_ms", "verify, high-order"),
    "special.gamma_ratio.calls": ("count", "lower", "request_p50_ms", "verify, high-order"),
    "trace.overhead_ms": ("ms", "lower", "(traced minus untraced request_p50_ms)", "all"),
}
# Counts derived from call arguments rather than observed.
COMPUTED = ("sweep.cells", "adomian.adomian_power_coeffs.terms",
            "oracles.solve_abm_fractional.memory_terms")


def _probe() -> float:
    """Seconds for a fixed pure-Python loop on the current CPU (best of three)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


class Runner:
    """Spawns requests in a work directory inside the checkout and times them.

    The CPUs of this sandbox run up to ~60% slower for seconds to minutes at
    a time, each CPU on its own schedule (load elsewhere on the host; there
    is no frequency control to pin).  Raw wall times therefore move between
    runs by more than any bound worth having.  So before each spawn the
    runner times a fixed loop (_probe) on every CPU and pins itself, and so
    the child, to the fastest; after the child exits it times the loop again
    on that CPU.  Each wall time is reported scaled by PROBE_REFERENCE_S over
    the mean of the two probes: the time the request would have taken with
    the CPU at its reference speed.  Raw wall times are reported beside them.
    The child runs on one CPU; the requests measured are single-threaded.
    """

    def __init__(self, root: Path):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.workdir = root / ".bench_work"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir()
        path = str(root / "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path)

    def close(self):
        os.sched_setaffinity(0, self.cpus)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def pin_fastest_cpu(self) -> float:
        """Pin to the CPU where _probe() runs fastest; return that probe time."""
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = _probe()
        cpu = min(speed, key=speed.get)
        os.sched_setaffinity(0, {cpu})
        return speed[cpu]

    def spawn(self, cmd: list[str]) -> dict:
        """Run cmd to completion: raw and scaled wall s, the scale, exit code
        (None on timeout), peak RSS MB, stdout and stderr."""
        for name in ("out.csv", "out.csv.meta.json", "out.gp", "trace.json"):
            (self.workdir / name).unlink(missing_ok=True)
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        before = self.pin_fastest_cpu()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        scale = PROBE_REFERENCE_S / ((before + _probe()) / 2)
        # wait4 reaped the child; tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "scaled": wall * scale, "scale": scale,
                "code": None if wall >= REQUEST_TIMEOUT_S else proc.returncode,
                "rss": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(errors="replace"),
                "stderr": err_path.read_text(errors="replace")}

    def request(self, req: dict, traced: bool = False):
        """One checked request: (spawn result, Verdict, trace dict or None)."""
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "bench_trace.py"),
                   "trace.json", *req["argv"]]
        else:
            cmd = [sys.executable, "-c", ENTRY, *req["argv"]]
        run = self.spawn(cmd)
        verdict = bench_check.check(req, run["code"], run["stdout"], run["stderr"],
                                    self.workdir)
        trace = None
        if traced:
            trace_path = self.workdir / "trace.json"
            trace = json.loads(trace_path.read_text()) if trace_path.exists() else {
                "spans": {}, "counts": {}}
            trace["imports"] = _import_times(run["stderr"])
            trace["scale"] = run["scale"]
        return run, verdict, trace

    def setup_times(self) -> list[float]:
        """Scaled wall times of fresh `import solowfrac.cli` processes, after a warm-up."""
        cmd = [sys.executable, "-c", "import solowfrac.cli"]
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            run = self.spawn(cmd)
            if run["code"] != 0:
                raise RuntimeError(f"import solowfrac.cli failed: {run['stderr'].strip()}")
            if i:
                samples.append(run["scaled"])
        return samples


def _import_times(stderr: str) -> dict:
    """Cumulative ms of solowfrac.cli, numpy and mpmath from -X importtime lines."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        if name in ("solowfrac.cli", "numpy", "mpmath"):
            out[name] = out.get(name, 0.0) + int(fields[1]) / 1000.0
    return out


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "frequency_control": "none: numbers are for comparison on one machine only",
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); with too few samples the
    maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _loop(workload: str, seed: int, seconds: float, per_request):
    """Run whole rounds until the requests' scaled wall times add up to `seconds`.

    per_request(req) runs one request and returns the scaled seconds it took.
    """
    measured = 0.0
    for round_ in bench_workloads.rounds(workload, seed):
        for req in round_:
            measured += per_request(req)
        if measured >= seconds:
            return


class Tally:
    """Outcomes of a run's requests.

    A request whose output fails its check in the way of one of the two
    recorded baseline defects (bench_check) is counted in `known`, not in
    `failed`: it lowers `ok_frac` and `throughput_rps` and shows in the
    notes, so a fix or a regression of the defect moves bounded metrics.
    Any other failed check is counted in `failed` and makes the run
    incorrect.
    """

    def __init__(self):
        self.walls, self.raw_walls, self.rss = [], [], []
        self.attempted = 0
        self.failures = []  # (argv, problems) of failures outside the known defects
        self.known = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed - sum(self.known.values())

    def add(self, req, run, verdict):
        self.walls.append(run["scaled"])
        self.raw_walls.append(run["wall"])
        self.rss.append(run["rss"])
        self.attempted += 1
        if verdict.ok:
            return
        if verdict.known_defect:
            self.known[verdict.known_defect] = self.known.get(verdict.known_defect, 0) + 1
        else:
            self.failures.append((req["argv"], verdict.problems))


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float):
    setup = runner.setup_times()
    tally = Tally()

    def one(req):
        run, verdict, _ = runner.request(req)
        tally.add(req, run, verdict)
        return run["scaled"]

    _loop(workload, seed, seconds, one)
    tail_ms, pct, n = tail([w * 1000.0 for w in tally.walls])
    ok = tally.ok
    values = {
        "setup_s": statistics.median(setup),
        "request_p50_ms": statistics.median(tally.walls) * 1000.0,
        "request_tail_ms": tail_ms,
        "throughput_rps": ok / sum(tally.walls),
        "peak_rss_mb": statistics.median(tally.rss),
        "ok_frac": ok / tally.attempted,
    }
    metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}
    notes = {"tail_percentile": pct, "samples": n,
             "failed_frac": 1.0 - ok / tally.attempted,
             "known_defects": tally.known,
             "raw_request_p50_ms": statistics.median(tally.raw_walls) * 1000.0}
    return tally, metrics, notes


def run_traced(runner: Runner, workload: str, seed: int, seconds: float):
    tally = Tally()
    traces, overheads = [], []
    flip = [False]

    def one(req):
        # Alternate which side goes first so drift between the pair cancels.
        order = (True, False) if flip[0] else (False, True)
        flip[0] = not flip[0]
        runs = {}
        for traced in order:
            runs[traced], verdict, trace = runner.request(req, traced)
            tally.add(req, runs[traced], verdict)
            if traced:
                traces.append(trace)
        overheads.append((runs[True]["scaled"] - runs[False]["scaled"]) * 1000.0)
        return runs[True]["scaled"] + runs[False]["scaled"]

    _loop(workload, seed, seconds, one)
    metrics = layer_metrics(traces)
    metrics["trace.overhead_ms"] = statistics.median(overheads)
    return tally, {name: (metrics[name], unit) for name, (unit, *_) in PER_LAYER.items()}, {
        "traced_requests": len(traces), "computed": list(COMPUTED)}


def layer_metrics(traces: list[dict]) -> dict:
    """Per-request means of the traced spans and counters, and their ratios.

    Times are scaled like the end-to-end ones, by their request's scale.
    """
    n = len(traces)
    spans, counts, imports = {}, {}, {}
    for tr in traces:
        scale = tr["scale"]
        for name, agg in tr["spans"].items():
            into = spans.setdefault(name, {"total_ms": 0.0, "self_ms": 0.0})
            into["total_ms"] += agg["total_ms"] * scale
            into["self_ms"] += agg["self_ms"] * scale
        for name, value in tr["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in tr["imports"].items():
            imports[name] = imports.get(name, 0.0) + value * scale

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out = {
        "cli.import_ms": imports.get("solowfrac.cli", 0.0) / n,
        "cli.import.numpy_ms": imports.get("numpy", 0.0) / n,
        "cli.import.mpmath_ms": imports.get("mpmath", 0.0) / n,
        "series.eval_series.trusted_ratio": ratio("series.eval_series.trusted",
                                                  "series.eval_series.calls"),
        "adomian.adomian_power_coeffs.used_ratio": ratio(
            "adomian.adomian_power_coeffs.used", "adomian.adomian_power_coeffs.computed"),
        "special.mittag_leffler.distinct_ratio": ratio("special.mittag_leffler.distinct",
                                                       "special.mittag_leffler.calls"),
    }
    for name in PER_LAYER:
        if name in out or name == "trace.overhead_ms":
            continue
        stem, _, field = name.rpartition(".")
        if field == "self_ms":
            total = spans.get(stem, {}).get("self_ms", 0.0)
        elif field == "ms":
            total = spans.get(stem, {}).get("total_ms", 0.0)
        else:
            total = counts.get(name, 0)
        out[name] = total / n
    return out


def _report(workload: str, metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in PER_LAYER:
            _, _, moves, on = PER_LAYER[name]
            extra = f"  -> {moves} on {on}" + (" (computed)" if name in COMPUTED else "")
        print(f"{workload:<13s} {name:<42s} {value:14.4f} {unit}{extra}")
    print(f"{workload:<13s} notes {json.dumps(notes, sort_keys=True)}")


def run_workload(runner, workload, seed, seconds, trace):
    run = run_traced if trace else run_untraced
    tally, metrics, notes = run(runner, workload, seed, seconds)
    notes["attempted"], notes["failed"] = tally.attempted, tally.failed
    _report(workload, metrics, notes)
    for argv, problems in tally.failures:
        print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*bench_workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "solowfrac" / "cli.py").is_file():
        print(f"error: {root} is not a solowfrac checkout (no src/solowfrac/cli.py)",
              file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}), file=sys.stderr)

    workloads = bench_workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        runner = Runner(root)
        try:
            results[workload] = run_workload(runner, workload, args.seed, args.seconds,
                                             args.trace)
        finally:
            runner.close()

    tallies = [tally for tally, _ in results.values()]
    if args.workload == "all":
        metrics = {f"{w}.{name}": m for w, (_, ms) in results.items() for name, m in ms.items()}
    else:
        metrics = results[args.workload][1]
    print(json.dumps({
        # Outputs showing one of the two recorded baseline defects are
        # reported in ok_frac and the notes (see Tally); any other failed
        # check is counted here and makes the run incorrect.
        "correct": not any(t.failures for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
