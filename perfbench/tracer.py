"""Outside-in tracing of rotobh's public functions.

The tracer rebinds each listed function, in every rotobh module namespace
that binds it, to one wrapper that records a span (timed functions) or a
call count (count-only functions).  Nothing under src/ is edited: the
wrappers are installed around a pass and removed after it, so untraced
passes run the original bindings.

Spans live in per-thread buffers of typed arrays, so threads of the
sweep and resolution pools never share a buffer and need no lock.  A
span's parent is the innermost open span of its own thread; a pool
thread with nothing open inherits the innermost open span of the thread
that started the pass, which is the span that submitted the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

# (defining module, function, timed).  Count-only functions are those whose
# only metric is a call count; delta_exact and a_expectation run thousands
# of times per pass, where a span would only add cost.
TRACED = (
    ("cli", "main", True),
    ("io", "csv_text", True),
    ("io", "json_text", True),
    ("phase_diagram", "sweep", True),
    ("phase_diagram", "lobe_tip", False),
    ("landau", "order_parameter_landau", True),
    ("landau", "kappa", False),
    ("oracle", "ground_energy", True),
    ("oracle", "a_expectation", False),
    ("oracle", "minimize_order_parameter", True),
    ("oracle", "boundary_numeric", True),
    ("sensing", "fit_a", True),
    ("sensing", "theta_crossover", True),
    ("sensing", "resolution", True),
    ("sensing", "delta_exact", False),
    ("numerics", "golden_min", False),
    ("numerics", "bisect_root", False),
    ("numerics", "lambert_w", False),
)
NAMES = tuple("%s.%s" % (mod, fn) for mod, fn, _ in TRACED)
_EVAL_COUNTED = ("numerics.golden_min", "numerics.bisect_root")


class _ThreadBuffer:
    def __init__(self, generation):
        self.generation = generation
        self.stack = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counts = {}
        # per-call observations: (name, value) for converged flags, cells,
        # error cells, emitted bytes and fit_a keys
        self.notes = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._root = None
        self._generation = 0
        self._next_sid = iter(range(1, 1 << 62)).__next__
        self._saved = []

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.generation != self._generation:
            # a buffer left over from an earlier pass is never reused
            buf = self._local.buf = _ThreadBuffer(self._generation)
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _count(self, buf, name, n=1):
        buf.counts[name] = buf.counts.get(name, 0) + n

    # -- installation -------------------------------------------------

    def install(self):
        """Rebind every traced function in every namespace binding it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rotobh" or name.startswith("rotobh.")]
        for mod_name, fn_name, timed in TRACED:
            original = getattr(importlib.import_module("rotobh." + mod_name),
                               fn_name)
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), original,
                                 timed)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, name, func, timed):
        name_id = NAMES.index(name)
        observe = _OBSERVERS.get(name)
        counts_evals = name in _EVAL_COUNTED
        signature = inspect.signature(func)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            tracer._count(buf, name)
            if counts_evals:
                f = args[0]

                def counted(x):
                    tracer._count(tracer._buffer(), name + ".evals")
                    return f(x)
                args = (counted,) + args[1:]
            if not timed:
                result = func(*args, **kwargs)
            else:
                sid = tracer._next_sid()
                if buf.stack:
                    parent = buf.stack[-1]
                else:
                    root = tracer._root
                    parent = root.stack[-1] if root and root.stack else 0
                buf.stack.append(sid)
                t0 = time.perf_counter_ns()
                try:
                    result = func(*args, **kwargs)
                finally:
                    t1 = time.perf_counter_ns()
                    buf.stack.pop()
                    buf.sid.append(sid)
                    buf.parent.append(parent)
                    buf.name.append(name_id)
                    buf.t0.append(t0)
                    buf.t1.append(t1)
            if observe is not None:
                observe(buf.notes, signature, args, kwargs, result)
            return result

        return wrapper

    # -- passes -------------------------------------------------------

    def begin_pass(self):
        with self._lock:
            self._buffers = []
            self._generation += 1
        self._root = self._buffer()

    def end_pass(self):
        """Return (spans, counts, notes) recorded since begin_pass.

        spans is a list of (sid, parent, name index, t0_ns, t1_ns) tuples;
        NAMES[name index] is the span's name.
        """
        spans, counts, notes = [], {}, []
        with self._lock:
            buffers, self._buffers = self._buffers, []
        for buf in buffers:
            spans.extend(zip(buf.sid, buf.parent, buf.name, buf.t0, buf.t1))
            for key, n in buf.counts.items():
                counts[key] = counts.get(key, 0) + n
            notes.extend(buf.notes)
        self._root = None
        return spans, counts, notes


def _bound(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_minimize(notes, signature, args, kwargs, result):
    notes.append(("oracle.converged", bool(result.converged)))


def _observe_sweep(notes, signature, args, kwargs, result):
    label_col = "status" if "status" in result.columns else "phase"
    i = result.columns.index(label_col)
    notes.append(("phase_diagram.cells", len(result.rows)))
    notes.append(("phase_diagram.error_cells",
                  sum(1 for row in result.rows
                      if str(row[i]).startswith("error:"))))


def _observe_emit(notes, signature, args, kwargs, result):
    notes.append(("io.bytes", len(result.encode("utf-8"))))


def _observe_fit_a(notes, signature, args, kwargs, result):
    a = _bound(signature, args, kwargs)
    notes.append(("sensing.fit_a.key", (a["theta"], a["grid_points"])))


_OBSERVERS = {
    "oracle.minimize_order_parameter": _observe_minimize,
    "phase_diagram.sweep": _observe_sweep,
    "io.csv_text": _observe_emit,
    "io.json_text": _observe_emit,
    "sensing.fit_a": _observe_fit_a,
}


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for sid, parent, _, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, t0, t1 in spans:
        covered, end = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, counts, notes, truncation_warnings):
    """Per-layer metrics of one traced pass, with the base of each ratio.

    Returns {name: (value, unit, base)}; base is None for plain values.
    """
    ms = {}
    self_ms = {}
    selfs = self_times(spans)
    by_id = {}
    for sid, parent, name_id, t0, t1 in spans:
        name = NAMES[name_id]
        ms[name] = ms.get(name, 0.0) + (t1 - t0) / 1e6
        self_ms[name] = self_ms.get(name, 0.0) + selfs[sid] / 1e6
        by_id[sid] = name
    minimize_in_boundary = sum(
        1 for _, parent, name_id, _, _ in spans
        if NAMES[name_id] == "oracle.minimize_order_parameter"
        and by_id.get(parent) == "oracle.boundary_numeric")

    def calls(name):
        return counts.get(name, 0)

    def note_sum(key):
        return sum(v for k, v in notes if k == key)

    fit_keys = [v for k, v in notes if k == "sensing.fit_a.key"]
    converged = [v for k, v in notes if k == "oracle.converged"]
    cells = note_sum("phase_diagram.cells")
    n_min = calls("oracle.minimize_order_parameter")
    n_bnd = calls("oracle.boundary_numeric")
    n_fit = calls("sensing.fit_a")

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def put(name, value, unit, base=None):
        m[name] = (value, unit, base)

    put("oracle.ground_energy.calls", calls("oracle.ground_energy"), "count")
    put("oracle.ground_energy.ms", ms.get("oracle.ground_energy", 0.0), "ms")
    put("oracle.eigensolves_per_minimize",
        ratio(calls("oracle.ground_energy"), n_min), "ratio",
        ("oracle.minimize_order_parameter.calls", n_min))
    put("oracle.minimize_order_parameter.calls", n_min, "count")
    put("oracle.minimize_order_parameter.ms",
        ms.get("oracle.minimize_order_parameter", 0.0), "ms")
    put("oracle.minimize_order_parameter.self_ms",
        self_ms.get("oracle.minimize_order_parameter", 0.0), "ms")
    put("oracle.a_expectation.calls", calls("oracle.a_expectation"), "count")
    put("oracle.converged_frac", ratio(sum(converged), len(converged)),
        "ratio", ("oracle.minimize_order_parameter.calls", len(converged)))
    put("oracle.truncation_warnings", truncation_warnings, "count")
    put("oracle.boundary_numeric.calls", n_bnd, "count")
    put("oracle.boundary_numeric.ms",
        ms.get("oracle.boundary_numeric", 0.0), "ms")
    put("oracle.minimize_per_boundary", ratio(minimize_in_boundary, n_bnd),
        "ratio", ("oracle.boundary_numeric.calls", n_bnd))
    put("phase_diagram.sweep.calls", calls("phase_diagram.sweep"), "count")
    put("phase_diagram.sweep.ms", ms.get("phase_diagram.sweep", 0.0), "ms")
    put("phase_diagram.sweep.cells", cells, "count")
    put("phase_diagram.cell_us",
        ratio(ms.get("phase_diagram.sweep", 0.0) * 1e3, cells), "us",
        ("phase_diagram.sweep.cells", cells))
    put("phase_diagram.error_cells", note_sum("phase_diagram.error_cells"),
        "count")
    put("phase_diagram.lobe_tip.calls", calls("phase_diagram.lobe_tip"),
        "count")
    put("landau.order_parameter_landau.calls",
        calls("landau.order_parameter_landau"), "count")
    put("landau.order_parameter_landau.ms",
        ms.get("landau.order_parameter_landau", 0.0), "ms")
    put("landau.kappa.calls", calls("landau.kappa"), "count")
    put("sensing.fit_a.calls", n_fit, "count")
    put("sensing.fit_a.ms", ms.get("sensing.fit_a", 0.0), "ms")
    put("sensing.fit_a.repeat_frac",
        ratio(len(fit_keys) - len(set(fit_keys)), len(fit_keys)), "ratio",
        ("sensing.fit_a.calls", len(fit_keys)))
    put("sensing.theta_crossover.ms",
        ms.get("sensing.theta_crossover", 0.0), "ms")
    put("sensing.resolution.calls", calls("sensing.resolution"), "count")
    put("sensing.resolution.ms", ms.get("sensing.resolution", 0.0), "ms")
    put("sensing.delta_exact.calls", calls("sensing.delta_exact"), "count")
    for fn in ("golden_min", "bisect_root"):
        put("numerics.%s.calls" % fn, calls("numerics." + fn), "count")
        put("numerics.%s.evals" % fn, calls("numerics.%s.evals" % fn),
            "count")
    put("numerics.lambert_w.calls", calls("numerics.lambert_w"), "count")
    put("io.emit_ms", ms.get("io.csv_text", 0.0) + ms.get("io.json_text", 0.0),
        "ms")
    put("io.bytes", note_sum("io.bytes"), "B")
    put("cli.self_ms", self_ms.get("cli.main", 0.0), "ms")
    return m
