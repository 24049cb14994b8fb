"""Span tracing of `bose_limits` from outside the package.

`Tracer.install()` replaces the public functions of each layer with
wrappers that record one span per call: the layer name, start and end on
the `perf_counter` clock, the enclosing span, the problem size the call
worked on, and whether it raised.  Each function is replaced in its
defining module and in every `bose_limits` namespace that imported it by
name, so calls between modules are seen as well.  `fockdiag`'s eigensolver
is reached through a stand-in for the `np` name inside `fockdiag`, so only
the eigensolves that module asks for are measured, whether one dense
matrix or a batched stack.

Spans stay in memory.  Processes forked by `multiprocessing` (the `sweep`
command's pool) start with an empty span list and write their spans to a
file in `spool_dir` when they exit; `collect_children()` reads those files
back.  `uninstall()` restores every original.
"""

import json
import multiprocessing.util
import os
import sys
import time
import types

import numpy as np

# (layer, module, attribute) of each wrapped public function.
FUNCTIONS = (
    ("lattice_ideal.build_lattice", "lattice_ideal", "build_lattice"),
    ("lattice_ideal.mode_sum", "lattice_ideal", "pressure_ideal_primed"),
    ("lattice_ideal.mode_sum", "lattice_ideal", "critical_density_finite"),
    ("lattice_ideal.polylog", "lattice_ideal", "polylog"),
    ("summation.stable_sum", "summation", "stable_sum"),
    ("source_model.pressure_source", "source_model", "pressure_source"),
    ("nonlinear_model.pressure_sqrt_source", "nonlinear_model", "pressure_sqrt_source"),
    ("nonlinear_model.zero_mode_series", "nonlinear_model", "zero_mode_log_partition"),
    ("equivalence.delta_pressure", "equivalence", "delta_pressure"),
    ("equivalence.verify_equivalence", "equivalence", "verify_equivalence"),
    ("equivalence.density_from_pressure", "equivalence", "density_from_pressure"),
    ("fockdiag.enumerate_configs", "fockdiag", "enumerate_configs"),
    ("fockdiag.gibbs", "fockdiag", "gibbs_trace"),
    ("fockdiag.gibbs", "fockdiag", "gibbs_expectation"),
    ("fockdiag.gibbs", "fockdiag", "boundary_shell_weight"),
    ("fockdiag.gibbs", "fockdiag", "quasiaverage_fd"),
    ("cli.run", "cli", "run"),
    ("cli.emit", "cli", "emit_csv"),
)

# Per-layer metrics the traced run reports: (name, unit, better).
LAYER_METRICS = (
    ("lattice_ideal.build_lattice.calls", "count", "lower"),
    ("lattice_ideal.build_lattice.self_s", "s", "lower"),
    ("lattice_ideal.build_lattice.modes", "count", "lower"),
    ("lattice_ideal.mode_sum.calls", "count", "lower"),
    ("lattice_ideal.mode_sum.self_s", "s", "lower"),
    ("lattice_ideal.mode_sum.modes", "count", "lower"),
    ("summation.stable_sum.calls", "count", "lower"),
    ("summation.stable_sum.self_s", "s", "lower"),
    ("summation.stable_sum.terms", "count", "lower"),
    ("source_model.pressure_source.calls", "count", "lower"),
    ("source_model.pressure_source.self_s", "s", "lower"),
    ("nonlinear_model.pressure_sqrt_source.calls", "count", "lower"),
    ("nonlinear_model.pressure_sqrt_source.self_s", "s", "lower"),
    ("equivalence.delta_pressure.calls", "count", "lower"),
    ("equivalence.delta_pressure.self_s", "s", "lower"),
    ("equivalence.verify_equivalence.self_s", "s", "lower"),
    ("equivalence.density_from_pressure.calls", "count", "lower"),
    ("equivalence.density_from_pressure.self_s", "s", "lower"),
    ("nonlinear_model.zero_mode_series.calls", "count", "lower"),
    ("nonlinear_model.zero_mode_series.self_s", "s", "lower"),
    ("nonlinear_model.zero_mode_series.terms", "count", "lower"),
    ("nonlinear_model.zero_mode_series.failed", "count", "lower"),
    ("lattice_ideal.polylog.calls", "count", "lower"),
    ("lattice_ideal.polylog.self_s", "s", "lower"),
    ("lattice_ideal.polylog.failed", "count", "lower"),
    ("fockdiag.eigh.calls", "count", "lower"),
    ("fockdiag.eigh.self_s", "s", "lower"),
    ("fockdiag.eigh.dim", "count", "lower"),
    ("fockdiag.eigh.flops_computed", "flop", "lower"),
    ("fockdiag.to_dense.calls", "count", "lower"),
    ("fockdiag.to_dense.bytes_computed", "B", "lower"),
    ("fockdiag.gibbs.calls", "count", "lower"),
    ("fockdiag.gibbs.self_s", "s", "lower"),
    ("fockdiag.enumerate_configs.calls", "count", "lower"),
    ("fockdiag.enumerate_configs.self_s", "s", "lower"),
    ("fockdiag.enumerate_configs.configs", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("cli.pool.busy_ratio", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("certify.bound_rel_max", "1", "lower"),
)


def _size_of(terms) -> int:
    size = getattr(terms, "size", None)
    return int(size) if size is not None else len(terms)


def _eigh_sizes(a, vectors: bool) -> dict:
    # Matrix order n and batch count; the flop count is the textbook
    # estimate (Golub & Van Loan) of a symmetric eigensolve, ~9 n^3 with
    # eigenvectors and ~4/3 n^3 without, computed, not measured.
    shape = np.shape(a)
    n = shape[-1]
    batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    per_matrix = 9.0 * n ** 3 if vectors else 4.0 / 3.0 * n ** 3
    return {"dim": batch * n, "flops_computed": batch * per_matrix}


def _bound_rel(bound: float, value: float) -> float:
    return bound / max(abs(value), 1e-300)


# Size (and certificate) extractors per wrapped attribute: (args, result) -> dict.
_SIZES = {
    "build_lattice": lambda args, res: {"modes": res.n_modes},
    "pressure_ideal_primed": lambda args, res: {
        "modes": args[0].lattice.nonzero_energies.size},
    "critical_density_finite": lambda args, res: {
        "modes": args[0].lattice.nonzero_energies.size},
    "stable_sum": lambda args, res: {"terms": _size_of(args[0])},
    "pressure_source": lambda args, res: {
        "bound_rel": _bound_rel(res.truncation_bound, res.total)},
    "pressure_sqrt_source": lambda args, res: {
        "bound_rel": _bound_rel(res.truncation_bound, res.total)},
    "zero_mode_log_partition": lambda args, res: {
        "terms": res.terms_used,
        "bound_rel": _bound_rel(res.tail_bound, res.numeric_log_sum)},
    "enumerate_configs": lambda args, res: {"configs": args[0].dimension},
    "boundary_shell_weight": lambda args, res: {"bound_rel": res},
    "to_dense": lambda args, res: {"bytes_computed": res.nbytes},
    "eigh": lambda args, res: _eigh_sizes(args[0], True),
    "eigvalsh": lambda args, res: _eigh_sizes(args[0], False),
}


class _View(types.SimpleNamespace):
    """A module seen through a few replaced attributes; the rest forward."""

    def __init__(self, target, **replaced):
        super().__init__(**replaced)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans of `bose_limits` calls while installed."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.spans = []   # [layer, start, end, parent index, sizes, failed]
        self._stack = []
        self._saved = []  # (namespace, attribute, original)
        multiprocessing.util.register_after_fork(self, Tracer._start_child)

    # -- recording -----------------------------------------------------

    def wrap(self, layer: str, fn, size_key: str):
        sizes_of = _SIZES.get(size_key)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, {}, False]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if sizes_of is not None:
                span[4] = sizes_of(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- installation --------------------------------------------------

    def _replace(self, namespace, attribute, original, replacement):
        self._saved.append((namespace, attribute, original))
        setattr(namespace, attribute, replacement)

    def install(self) -> None:
        """Wrap every traced function in all `bose_limits` namespaces."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bose_limits" or name.startswith("bose_limits.")]
        for layer, module, attribute in FUNCTIONS:
            original = getattr(sys.modules["bose_limits." + module], attribute)
            wrapper = self.wrap(layer, original, attribute)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

        fockdiag = sys.modules["bose_limits.fockdiag"]
        op_cls = fockdiag.OperatorMatrix
        self._replace(op_cls, "to_dense", op_cls.to_dense,
                      self.wrap("fockdiag.to_dense", op_cls.to_dense, "to_dense"))
        linalg = _View(np.linalg,
                       eigh=self.wrap("fockdiag.eigh", np.linalg.eigh, "eigh"),
                       eigvalsh=self.wrap("fockdiag.eigh", np.linalg.eigvalsh, "eigvalsh"))
        self._replace(fockdiag, "np", fockdiag.np, _View(np, linalg=linalg))

    def uninstall(self) -> None:
        while self._saved:
            namespace, attribute, original = self._saved.pop()
            setattr(namespace, attribute, original)

    # -- forked children -----------------------------------------------

    def _start_child(self) -> None:
        self.spans = []
        self._stack = []
        multiprocessing.util.Finalize(None, self._write_child_spans, exitpriority=100)

    def _write_child_spans(self) -> None:
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def collect_children(self) -> list:
        """Span lists written by exited children; their files are removed."""
        out = []
        for name in sorted(os.listdir(self.spool_dir)):
            if name.startswith("spans-") and name.endswith(".json"):
                path = os.path.join(self.spool_dir, name)
                with open(path, encoding="utf-8") as fh:
                    out.append(json.load(fh))
                os.remove(path)
        return out


def self_times(spans) -> list:
    """Duration of each span minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(span_lists) -> dict:
    """Per-layer calls, self time, summed sizes, failures and largest bound ratio.

    Each element of `span_lists` is the span list of one process.
    """
    totals = {}
    for spans in span_lists:
        for span, self_s in zip(spans, self_times(spans)):
            layer, _, _, _, sizes, failed = span
            t = totals.setdefault(layer, {"calls": 0, "self_s": 0.0, "failed": 0})
            t["calls"] += 1
            t["self_s"] += self_s
            t["failed"] += int(failed)
            for key, value in sizes.items():
                if key == "bound_rel":
                    t[key] = max(t.get(key, 0.0), value)
                else:
                    t[key] = t.get(key, 0) + value
    return totals


def layer_metrics(totals: dict, rows: int, busy_ratio: float,
                  overhead_s: float) -> dict:
    """Flatten layer totals into the named per-layer metrics (0 where unused)."""
    out = {}
    for name, _unit, _better in LAYER_METRICS:
        layer, _, quantity = name.rpartition(".")
        out[name] = totals.get(layer, {}).get(quantity, 0)
    out["cli.rows"] = rows
    out["cli.pool.busy_ratio"] = busy_ratio
    out["trace.overhead_s"] = overhead_s
    out["certify.bound_rel_max"] = max(
        (t.get("bound_rel", 0.0) for t in totals.values()), default=0.0)
    return out
