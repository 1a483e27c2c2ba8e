"""
Timing spans around the public functions of blochhomog, installed from outside.

``traced(recorder)`` rebinds every traced function in every loaded module
that holds a reference to it (``solve_bands`` lives in ``bloch``, ``fields``
and ``cell``; the benchmark's own modules import names too), and restores
the originals on exit.  Functions imported at call time, such as
``homogenized_field`` inside ``convergence_study``, are read from their home
module and so are caught as well.  Spans stay in memory: name, start, end,
parent index, and for ``bloch.solve_bands`` the work count M^3.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# layer (module of blochhomog) -> public functions that get a span
TRACED = {
    "medium": ("fourier_table", "evaluate_coefficient"),
    "bloch": ("assemble_operator", "solve_bands", "dispersion_diagram",
              "eigenpair_at_gamma"),
    "cell": ("pencil_blocks", "solve_cell_functions",
             "effective_coefficients"),
    "source": ("make_frequency", "sample_source"),
    "fields": ("exact_bloch_solution", "homogenized_field",
               "effective_envelope"),
    "convergence": ("reference_solution", "relative_error",
                    "convergence_study"),
    "cli": ("main", "cached_gamma", "cached_cell"),
}

# Per-layer metrics the traced run reports: span name -> aggregate keys.
# "s" is busy seconds, "self_s" the part not covered by traced children,
# "calls" the call count, "M3_sum" the sum of M^3 over eigensolves.
REPORTED = {
    "bloch.solve_bands": ("calls", "s", "self_s", "M3_sum"),
    "bloch.assemble_operator": ("calls", "s"),
    "bloch.dispersion_diagram": ("s",),
    "bloch.eigenpair_at_gamma": ("s",),
    "cell.pencil_blocks": ("calls",),
    "cell.solve_cell_functions": ("s",),
    "cell.effective_coefficients": ("s",),
    "source.make_frequency": ("s",),
    "source.sample_source": ("s",),
    "medium.fourier_table": ("calls",),
    "medium.evaluate_coefficient": ("s",),
    "fields.exact_bloch_solution": ("s", "self_s"),
    "fields.homogenized_field": ("s", "self_s"),
    "fields.effective_envelope": ("calls", "s"),
    "convergence.reference_solution": ("s", "self_s"),
    "convergence.relative_error": ("s",),
    "convergence.convergence_study": ("self_s",),
    "cli.main": ("s", "self_s"),
    "cli.cached_gamma": ("s",),
    "cli.cached_cell": ("s",),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "M3_sum": "count"}


def _basis_cube(table, basis, *args, **kwargs):
    return basis.size ** 3


WORK = {"bloch.solve_bands": _basis_cube}


class Recorder:
    """In-memory span list with a parent stack (single-threaded callers)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            if work is not None:
                span["M3"] = work(*args, **kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def aggregate(self) -> dict:
        """Per span name: calls, s, self_s and any work count."""
        agg = {}
        for sp, child in zip(self.spans, self._child_time()):
            a = agg.setdefault(sp["name"], {"calls": 0, "s": 0.0,
                                            "self_s": 0.0, "M3_sum": 0})
            dur = sp["end"] - sp["start"]
            a["calls"] += 1
            a["s"] += dur
            a["self_s"] += dur - child
            a["M3_sum"] += sp.get("M3", 0)
        return agg

    def nesting_violations(self) -> list[str]:
        """Spans whose direct children add up to more than their own time."""
        return [f"{sp['name']}: children {child:.6f} s > span "
                f"{sp['end'] - sp['start']:.6f} s"
                for sp, child in zip(self.spans, self._child_time())
                if child > sp["end"] - sp["start"]]

    def _child_time(self) -> list[float]:
        """Seconds covered by each span's direct children."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp["parent"] is not None:
                child_time[sp["parent"]] += sp["end"] - sp["start"]
        return child_time


def layer_metrics(agg: dict) -> dict:
    """The REPORTED subset, flat: 'bloch.solve_bands.self_s' -> value."""
    out = {}
    for name, keys in REPORTED.items():
        a = agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "M3_sum": 0})
        for key in keys:
            out[f"{name}.{key}"] = a[key]
    return out


@contextmanager
def traced(recorder: Recorder):
    """Rebind every traced function, in every loaded module, to its span
    wrapper for the duration of the block."""
    wrappers = {}
    for layer, names in TRACED.items():
        home = sys.modules[f"blochhomog.{layer}"]
        for name in names:
            orig = getattr(home, name)
            wrappers[id(orig)] = (orig, recorder.wrap(f"{layer}.{name}", orig))
    patched = []
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]
                patched.append((namespace, attr, value))
    try:
        yield
    finally:
        for namespace, attr, value in patched:
            namespace[attr] = value
