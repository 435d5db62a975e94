"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install()`` replaces each traced public function with a wrapper in
every loaded ``redeos`` module that holds it, so a call is seen whichever
module it goes through (``redeos.mixture.solve_monotone`` as well as
``redeos.numerics.solve_monotone``).  ``uninstall()`` restores the
originals; an untraced run carries no wrappers.

A span records its name, start, end, parent span and the id of the cell or
command being run.  Spans stay in memory, in flat arrays, until
``write()``.  A layer's self time is its spans' durations minus the part
covered by their child spans.  Functions called too often for a span to be
cheap relative to them are only counted.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array

# module -> (functions, span name); the kernel modules are traced whole
SPANS = (
    ("redeos.noble_abel", None, "noble_abel"),
    ("redeos.virial", None, "virial"),
    ("redeos.virial_cvt", None, "virial_cvt"),
    ("redeos.state", ("state_from_rho_T", "state_from_P_T", "state_from_rho_e"), "state"),
    ("redeos.numerics", ("sound_speed_fd_oracle",), "numerics.fd_oracle"),
    ("redeos.numerics", ("solve_monotone",), "numerics.solve_monotone"),
    ("redeos.numerics", ("convexity_audit_fd",), "numerics.convexity_audit_fd"),
    ("redeos.mixture", ("mvo1_pressure", "mvo1_pressure_from_energy", "mvo1_sound_speed"), "mixture.mvo1"),
    ("redeos.mixture", ("mna_pressure", "mna_pressure_vt", "mna_sound_speed"), "mixture.mna"),
    ("redeos.calibration", ("predict_closed_bomb",), "calibration.predict_closed_bomb"),
    ("redeos.cli", ("main",), "cli.main"),
)
COUNTS = (
    ("redeos.types", "require_model", "types.require_model"),
    ("redeos.numerics", "fd_derivative", "numerics.fd_derivative"),
    ("redeos.numerics", "fd_partial", "numerics.fd_partial"),
    ("redeos.mixture", "mna_coefficients", "mixture.mna_coefficients"),
)

# per-layer metric -> unit; every traced run reports all of them
SPAN_METRIC_NAMES = {"cli.main": ("cli.main.calls", "cli.self_ms")}
LAYER_UNITS = {}
for _mod, _fns, _name in SPANS:
    _calls, _self = SPAN_METRIC_NAMES.get(_name, (f"{_name}.calls", f"{_name}.self_ms"))
    LAYER_UNITS[_calls] = "count"
    LAYER_UNITS[_self] = "ms"
for _mod, _fn, _name in COUNTS:
    LAYER_UNITS[f"{_name}.calls"] = "count"
LAYER_UNITS.update({
    "state.us_p50": "us", "state.us_p99": "us",
    "numerics.solve_monotone.iter_mean": "count", "numerics.solve_monotone.iter_max": "count",
    "mixture.mvo1.iter_mean": "count", "mixture.mvo1.iter_max": "count", "mixture.mvo1.residual_max": "rel",
})


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if callable(obj) and not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            and not isinstance(obj, type)]


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.name = array("H")
        self.op = array("l")
        self.stack = []
        self.op_id = -1
        self.counts = {name: 0 for _m, _f, name in COUNTS}
        self.solve_iters = array("l")
        self.mvo1_iters = array("l")
        self.mvo1_residual = array("d")
        self._saved = []

    # --- installation ---------------------------------------------------------

    def install(self):
        """Wrap the traced functions in every loaded redeos module."""
        loaded = [m for n, m in sys.modules.items() if m is not None and (n == "redeos" or n.startswith("redeos."))]
        for mod_name, fns, span in SPANS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            for fn_name in fns or _public_functions(home):
                original = getattr(home, fn_name)
                self._replace(loaded, original, self._span_wrapper(original, span, fn_name))
        for mod_name, fn_name, name in COUNTS:
            home = sys.modules.get(mod_name)
            if home is not None:
                original = getattr(home, fn_name)
                self._replace(loaded, original, self._count_wrapper(original, name))

    def _replace(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _span_wrapper(self, fn, span, fn_name):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        start, end, parent, name, op, stack = self.start, self.end, self.parent, self.name, self.op, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(tracer.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if fn_name == "solve_monotone":
                tracer.solve_iters.append(result.iterations)
            elif fn_name == "mvo1_pressure":
                tracer.mvo1_iters.append(result.iterations)
                tracer.mvo1_residual.append(result.residual_rel)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- export and aggregation -----------------------------------------------

    def export(self):
        return {
            "names": self.names, "start": self.start.tolist(), "end": self.end.tolist(),
            "parent": self.parent.tolist(), "name": self.name.tolist(), "op": self.op.tolist(),
            "counts": self.counts, "solve_iters": self.solve_iters.tolist(),
            "mvo1_iters": self.mvo1_iters.tolist(), "mvo1_residual": self.mvo1_residual.tolist(),
        }

    def merge(self, data, op_id):
        """Append another tracer's export, its spans re-labelled with ``op_id``."""
        offset = len(self.start)
        ids = []
        for span in data["names"]:
            if span not in self.names:
                self.names.append(span)
            ids.append(self.names.index(span))
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.name.extend(ids[n] for n in data["name"])
        self.op.extend(op_id for _ in data["op"])
        for key, value in data["counts"].items():
            self.counts[key] += value
        self.solve_iters.extend(data["solve_iters"])
        self.mvo1_iters.extend(data["mvo1_iters"])
        self.mvo1_residual.extend(data["mvo1_residual"])

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = {span: 0 for _m, _f, span in SPANS}
        self_ns = dict.fromkeys(calls, 0)
        state_id = self.names.index("state") if "state" in self.names else -1
        outer_state = []
        for i in range(n):
            span = self.names[self.name[i]]
            calls[span] += 1
            self_ns[span] += dur[i] - child[i]
            if self.name[i] == state_id and (self.parent[i] < 0 or self.name[self.parent[i]] != state_id):
                outer_state.append(dur[i])
        out = {}
        for span in calls:
            calls_name, self_name = SPAN_METRIC_NAMES.get(span, (f"{span}.calls", f"{span}.self_ms"))
            out[calls_name] = calls[span]
            out[self_name] = self_ns[span] / 1e6
        for name, value in self.counts.items():
            out[f"{name}.calls"] = value
        out["state.us_p50"] = quantile(outer_state, 0.50) / 1e3
        out["state.us_p99"] = quantile(outer_state, 0.99) / 1e3
        out["numerics.solve_monotone.iter_mean"] = statistics.fmean(self.solve_iters) if self.solve_iters else 0
        out["numerics.solve_monotone.iter_max"] = max(self.solve_iters, default=0)
        out["mixture.mvo1.iter_mean"] = statistics.fmean(self.mvo1_iters) if self.mvo1_iters else 0
        out["mixture.mvo1.iter_max"] = max(self.mvo1_iters, default=0)
        out["mixture.mvo1.residual_max"] = max(self.mvo1_residual, default=0.0)
        return out

    def write(self, path):
        """All spans as gzipped CSV: name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},{self.parent[i]},{self.op[i]}\n")


def quantile(values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])
