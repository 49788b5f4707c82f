"""Span tracing for the benchmark, installed from outside the program.

The tracer replaces public functions of the ``lrr`` modules with wrappers
that record one span (name, layer, start, end, parent) per call. A function
that other modules imported by name (``from .linalg import skinny_svd``) is
replaced in every ``lrr`` module that holds it, so each call goes through
exactly one wrapper. The Z-step of the solver, ``scipy.linalg.cho_solve``,
is wrapped through a proxy for the solver module's ``scipy`` name only.
Nothing under ``src/lrr`` is edited; :meth:`Tracer.uninstall` restores
every replaced name.

Spans are kept in memory. :func:`layer_metrics` turns the spans of one
round into the per-layer metrics the benchmark reports.
"""

import os
import sys
import time
import types

PACKAGE = "lrr"
# No-op calls timed to estimate what a wrapper adds to one call.
COST_SAMPLE_CALLS = 20000

# (module, function, layer). The layer is the module the function lives in,
# except the Z-step, which the solver owns.
TRACED = (
    ("linalg", "svt_with_nuclear", "linalg"),
    ("linalg", "column_shrink", "linalg"),
    ("linalg", "entry_shrink", "linalg"),
    ("linalg", "skinny_svd", "linalg"),
    ("solver", "solve_lrr", "solver"),
    ("solver", "solve_lrr_self", "solver"),
    ("solver", "solve_lrr_reduced", "solver"),
    ("solver", "solve_lrr_clean", "solver"),
    ("solver", "reduce_dictionary", "solver"),
    ("cluster", "build_affinity", "cluster"),
    ("cluster", "laplacian_spectrum", "cluster"),
    ("cluster", "estimate_k", "cluster"),
    ("cluster", "ncut_segment", "cluster"),
    ("cluster", "detect_outliers", "cluster"),
    ("cluster", "segment", "cluster"),
    ("metrics", "segmentation_accuracy", "metrics"),
    ("metrics", "auc", "metrics"),
    ("metrics", "roc_sweep", "metrics"),
    ("metrics", "recovery_error", "metrics"),
    ("synth", "gen_ensemble", "synth"),
    ("synth", "sample", "synth"),
    ("synth", "add_noise", "synth"),
    ("synth", "add_outliers", "synth"),
    ("synth", "corrupt_samples", "synth"),
    ("synth", "normalize_columns", "synth"),
    ("matio", "read_matrix_csv", "matio"),
    ("matio", "read_int_vector", "matio"),
    ("matio", "read_json", "matio"),
    ("matio", "write_matrix_csv", "matio"),
    ("matio", "write_json", "matio"),
    ("recipes", "replicate_fig3", "recipes"),
    ("recipes", "replicate_fig4", "recipes"),
    ("recipes", "replicate_fig6", "recipes"),
    ("cli", "main", "cli"),
)

Z_STEP = "solver.cho_solve"
SOLVES = ("solver.solve_lrr", "solver.solve_lrr_self",
          "solver.solve_lrr_reduced", "solver.solve_lrr_clean")
READS = ("matio.read_matrix_csv", "matio.read_int_vector", "matio.read_json")
WRITES = ("matio.write_matrix_csv", "matio.write_json")

# Per-layer metric -> unit. Times are seconds per round; counts and bytes
# are exact per round.
METRICS = {
    "linalg.svt_s": "s",
    "linalg.svt_calls": "count",
    "linalg.svt_zero": "count",
    "linalg.prox_s": "s",
    "linalg.skinny_svd_s": "s",
    "solver.solves": "count",
    "solver.iterations": "count",
    "solver.solve_s": "s",
    "solver.z_solve_s": "s",
    "solver.reductions": "count",
    "solver.reduce_s": "s",
    "solver.self_s": "s",
    "cluster.affinity_s": "s",
    "cluster.spectrum_s": "s",
    "cluster.ncut_s": "s",
    "metrics.accuracy_s": "s",
    "metrics.auc_s": "s",
    "metrics.recovery_s": "s",
    "synth.dataset_s": "s",
    "matio.read_s": "s",
    "matio.write_s": "s",
    "matio.bytes_read": "bytes",
    "matio.bytes_written": "bytes",
    "cli.self_s": "s",
    "recipes.self_s": "s",
    "trace.wall_s": "s",
    "trace.cover": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
COUNTS = tuple(k for k, unit in METRICS.items() if unit in ("count", "bytes"))


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "info")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.start = None
        self.end = None
        self.parent = parent
        self.info = None

    def as_record(self):
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "info": self.info}


def _svt_info(args, result):
    return {"zero": result[1] == 0.0}


def _solve_info(args, result):
    return {"iterations": int(result.iterations)}


def _file_info(args, result):
    return {"bytes": os.path.getsize(args[0])}


# Bytes written count the CSV matrices only: result.json records wall-clock
# timings, so its size changes by a byte or two from run to run.
INFO = {
    "linalg.svt_with_nuclear": _svt_info,
    "solver.solve_lrr": _solve_info,
    "matio.read_matrix_csv": _file_info,
    "matio.read_int_vector": _file_info,
    "matio.read_json": _file_info,
    "matio.write_matrix_csv": _file_info,
}


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside the solver module only."""

    def __init__(self, real, cho_solve):
        self._real = real
        self.cho_solve = cho_solve

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, name, layer, fn):
        spans = self.spans
        stack = self._stack
        info = INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, fn_name, layer in TRACED:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        solver = sys.modules[f"{PACKAGE}.solver"]
        real_scipy = solver.scipy
        proxy = types.SimpleNamespace(linalg=_LinalgProxy(
            real_scipy.linalg,
            self.wrap(Z_STEP, "solver", real_scipy.linalg.cho_solve)))
        self._undo.append((solver, "scipy", real_scipy))
        solver.scipy = proxy

    def uninstall(self):
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    def per_span_cost(self):
        """Seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None

        wrapped = self.wrap("trace.noop", "trace", noop)
        t0 = time.perf_counter()
        for _ in range(COST_SAMPLE_CALLS):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(COST_SAMPLE_CALLS):
            wrapped()
        traced = time.perf_counter() - t0
        self.spans.clear()
        return max(traced - plain, 0.0) / COST_SAMPLE_CALLS


def _durations(spans):
    return [s.end - s.start for s in spans]


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor named in ``names``."""
    keep = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        nested = False
        while p is not None:
            if spans[p].name in names:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            keep.append(s)
    return keep


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans, wall_s, per_span_cost):
    """Per-layer metrics of one round from its spans.

    ``spans`` must be the complete list of one round, with parents given as
    indices into it. Inclusive times count only the outermost span of each
    group, so a function that calls itself through a wrapper is counted
    once.
    """
    def total(names):
        return float(sum(_durations(_outermost(spans, set(names)))))

    self_t = _self_times(spans)

    def layer_self(layer, exclude=()):
        return float(sum(t for s, t in zip(spans, self_t)
                         if s.layer == layer and s.name not in exclude))

    svt = [s for s in spans if s.name == "linalg.svt_with_nuclear"]
    solves = [s for s in spans if s.name == "solver.solve_lrr"]
    reads = _outermost(spans, set(READS))
    writes = _outermost(spans, set(WRITES))
    roots = [s for s in spans if s.parent is None]
    synth = sorted({s.name for s in spans if s.layer == "synth"})
    return {
        "linalg.svt_s": total(["linalg.svt_with_nuclear"]),
        "linalg.svt_calls": len(svt),
        "linalg.svt_zero": sum(1 for s in svt if s.info and s.info["zero"]),
        "linalg.prox_s": total(["linalg.column_shrink", "linalg.entry_shrink"]),
        "linalg.skinny_svd_s": total(["linalg.skinny_svd"]),
        "solver.solves": len(_outermost(spans, set(SOLVES))),
        "solver.iterations": sum(s.info["iterations"] for s in solves if s.info),
        "solver.solve_s": total(SOLVES),
        "solver.z_solve_s": total([Z_STEP]),
        "solver.reductions": sum(1 for s in spans if s.name == "solver.reduce_dictionary"),
        "solver.reduce_s": total(["solver.reduce_dictionary"]),
        "solver.self_s": layer_self("solver", exclude=(Z_STEP,)),
        "cluster.affinity_s": total(["cluster.build_affinity"]),
        "cluster.spectrum_s": total(["cluster.laplacian_spectrum", "cluster.estimate_k"]),
        "cluster.ncut_s": total(["cluster.ncut_segment"]),
        "metrics.accuracy_s": total(["metrics.segmentation_accuracy"]),
        "metrics.auc_s": total(["metrics.auc", "metrics.roc_sweep"]),
        "metrics.recovery_s": total(["metrics.recovery_error"]),
        "synth.dataset_s": total(synth),
        "matio.read_s": float(sum(_durations(reads))),
        "matio.write_s": float(sum(_durations(writes))),
        "matio.bytes_read": sum(s.info["bytes"] for s in reads if s.info),
        "matio.bytes_written": sum(s.info["bytes"] for s in writes if s.info),
        "cli.self_s": layer_self("cli"),
        "recipes.self_s": layer_self("recipes"),
        "trace.wall_s": wall_s,
        "trace.cover": float(sum(_durations(roots)) / wall_s) if wall_s > 0 else 0.0,
        "trace.spans": len(spans),
        "trace.overhead_s": len(spans) * per_span_cost,
    }
