"""Traced entry point: `python -X importtime bench_trace.py OUT.json ARGV...`.

Runs `solowfrac.cli.main(ARGV)` in this fresh process with spans around the
public functions of each module, and writes per-name calls, inclusive time,
self time and counters to OUT.json when main returns.  The program itself is
not modified: functions are replaced in every `solowfrac` namespace that
binds them, as each module finishes loading, so `from ... import` bindings
and lazy imports are covered alike.

`model` is not timed: its scalar helpers run inside the series and oracle
spans that call them.
"""

import importlib.machinery
import sys
import time

# Module -> public names timed with a span.  Counters ride on the same spans.
TIMED = {
    "solowfrac.sweep": ("run_sweep", "run_solve", "grid_to_csv", "rows_to_csv",
                        "sidecar_metadata"),
    "solowfrac.equilibrium": ("find_equilibria",),
    "solowfrac.series": ("build_series", "eval_series"),
    "solowfrac.adomian": ("adomian_power_coeffs",),
    "solowfrac.oracles": ("solve_abm_fractional", "solve_exact_classical"),
    "solowfrac.transforms": ("sumudu_numeric", "verify_convolution"),
    "solowfrac.special": ("mittag_leffler",),
}
# Called too often for a span each: counted only.
COUNTED = {"solowfrac.special": ("ln_gamma", "gamma_ratio")}


class Tracer:
    """Spans (name, start_ns, end_ns, parent index) and counters of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.distinct_ml = set()  # (alpha, z) pairs passed to mittag_leffler
        self.adomian_reads = []  # per call, the indices build_series read

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0, 0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def summary(self):
        """{"spans": name -> inclusive and self ms, "counts": counter -> total}."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        spans = {}
        counts = dict(self.counts)
        for (name, start, end, _), own in zip(self.spans, selfs):
            agg = spans.setdefault(name, {"total_ms": 0.0, "self_ms": 0.0})
            agg["total_ms"] += (end - start) / 1e6
            agg["self_ms"] += own / 1e6
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        counts["special.mittag_leffler.distinct"] = len(self.distinct_ml)
        counts["adomian.adomian_power_coeffs.used"] = sum(map(len, self.adomian_reads))
        return {"spans": spans, "counts": counts}


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    `spans` holds (start, end, parent_index) with parent_index -1 for roots.
    Children are clipped to their parent, and overlapping children are
    merged, so no interval is subtracted twice.
    """
    children = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for (start, end, _), kids in zip(spans, children):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


TRACER = Tracer()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _ReadCountingList(list):
    """Result of adomian_power_coeffs: records which coefficients are read."""

    def __getitem__(self, index):
        if isinstance(index, int):
            self.read.add(index % len(self))
        return super().__getitem__(index)


def _note_run_sweep(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    methods = 2 if config.method == "both" else 1
    TRACER.add("sweep.cells", config.axis_range[2] * methods)
    TRACER.add("sweep.rows", len(result.rows))


def _note_run_solve(args, kwargs, result):
    TRACER.add("sweep.cells", 2 if _arg(args, kwargs, 3, "method") == "both" else 1)
    TRACER.add("sweep.rows", len(result))


def _note_eval_series(args, kwargs, result):
    TRACER.add("series.eval_series.trusted", bool(result[1]))


def _note_abm(args, kwargs, result):
    steps = _arg(args, kwargs, 2, "steps")
    TRACER.add("oracles.solve_abm_fractional.steps", steps)
    TRACER.add("oracles.solve_abm_fractional.memory_terms", steps * steps)


def _note_ml(args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    TRACER.distinct_ml.add((p.alpha, p.z))


def _wrap_adomian(fn):
    def wrapper(*args, **kwargs):
        length = len(_arg(args, kwargs, 1, "c"))
        TRACER.add("adomian.adomian_power_coeffs.terms", length * (length - 1) // 2)
        result = _ReadCountingList(TRACER.call("adomian.adomian_power_coeffs", fn,
                                               args, kwargs))
        result.read = set()
        TRACER.add("adomian.adomian_power_coeffs.computed", len(result))
        TRACER.adomian_reads.append(result.read)
        return result
    return wrapper


def _wrap_sumudu(fn):
    def wrapper(f, *args, **kwargs):
        # Counts points, so a vectorised integrand called on a node array
        # counts the same as one called per node.
        def counted(x):
            TRACER.add("transforms.sumudu_numeric.integrand_evals", getattr(x, "size", 1))
            return f(x)
        return TRACER.call("transforms.sumudu_numeric", fn, (counted,) + args, kwargs)
    return wrapper


_NOTES = {
    "run_sweep": _note_run_sweep,
    "run_solve": _note_run_solve,
    "eval_series": _note_eval_series,
    "solve_abm_fractional": _note_abm,
    "mittag_leffler": _note_ml,
}
_CUSTOM = {"adomian_power_coeffs": _wrap_adomian, "sumudu_numeric": _wrap_sumudu}


def _span_wrapper(span_name, fn, note):
    def wrapper(*args, **kwargs):
        result = TRACER.call(span_name, fn, args, kwargs)
        if note is not None:
            note(args, kwargs, result)
        return result
    return wrapper


def _count_wrapper(key, fn):
    def wrapper(*args, **kwargs):
        TRACER.add(key)
        return fn(*args, **kwargs)
    return wrapper


def _wrap_module(module):
    """Replace the module's traced functions, then rebind them everywhere."""
    short = module.__name__.rpartition(".")[2]
    replaced = {}
    for name in TIMED.get(module.__name__, ()):
        fn = getattr(module, name, None)
        if fn is None:
            continue
        span_name = f"{short}.{name}"
        if name in _CUSTOM:
            replaced[id(fn)] = _CUSTOM[name](fn)
        else:
            replaced[id(fn)] = _span_wrapper(span_name, fn, _NOTES.get(name))
    for name in COUNTED.get(module.__name__, ()):
        fn = getattr(module, name, None)
        if fn is not None:
            replaced[id(fn)] = _count_wrapper(f"{short}.{name}.calls", fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "solowfrac" or mod_name.startswith("solowfrac.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])


class _WrapOnLoad:
    """Meta-path finder that wraps each traced module once it has executed."""

    @staticmethod
    def find_spec(name, path, target=None):
        if name not in TIMED and name not in COUNTED:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            _wrap_module(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def main(out_path, argv):
    # The hook goes in before the program is imported, and json after it,
    # so that -X importtime charges every import to the program.
    sys.meta_path.insert(0, _WrapOnLoad)
    import solowfrac.cli
    import json

    try:
        code = TRACER.call("cli.main", solowfrac.cli.main, (argv,), {})
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    finally:
        with open(out_path, "w") as fh:
            json.dump(TRACER.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
