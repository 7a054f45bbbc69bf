"""Spans around the calls into geodd's modules, recorded from outside the
package.

`Tracer.installed()` wraps the public functions of each geodd module at
every place the name is bound: `from .subspaces import span_of` copies the
function into each importing module, so patching `geodd.subspaces` alone
would miss most calls. It also wraps `scipy.signal.place_poles`, which
`geodd.geometry` calls for pole placement. Leaving the block restores every
original, so untraced runs call geodd unwrapped.

A span is (op, id, parent id, name, start, end, raised). A layer's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

import scipy.signal

import geodd

MODULES = ("cli", "exact", "geometry", "lattice", "subspaces", "synthesis", "verify")
# Only the entry points of the exact backend are wrapped: its element-level
# helpers (fr, matmul, rref, ...) run millions of times per op, and spans on
# them would measure the tracer rather than geodd.
ONLY = {
    "cli": ("main", "parse_problem", "parse_compensator"),
    "exact": ("vstar_span", "sstar_span", "affine_k_family", "det_grid_scan"),
}
PLACE_POLES = "geometry.place_poles"
# Calls whose return value is counted when it meets the predicate.
FLAGGED = {"verify.certify_decoupled": lambda certificate: not certificate.valid}


def traced_functions():
    """{qualified name: function} for every function the tracer wraps."""
    out = {}
    for short in MODULES:
        module = sys.modules[f"geodd.{short}"]
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and name in ONLY.get(short, (name,))):
                out[f"{short}.{name}"] = fn
    return out


class Tracer:
    """Collects spans while installed; `flagged` counts the FLAGGED calls
    whose result met the predicate (certificates that came back invalid)."""

    def __init__(self):
        self.flagged = 0
        self.spans = []
        self.op = -1
        self._stack = []
        self._next_id = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                if name in FLAGGED and FLAGGED[name](result):
                    self.flagged += 1
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.op, span_id, parent, name, start, end, raised))
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at all its binding sites; restore on exit."""
        originals = traced_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        namespaces = [vars(geodd)] + [vars(sys.modules[f"geodd.{m}"]) for m in MODULES]
        patched = []
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    ns[key] = wrappers[id(value)]
                    patched.append((ns, key, value))
        place_poles = scipy.signal.place_poles
        scipy.signal.place_poles = self._wrap(PLACE_POLES, place_poles)
        try:
            yield self
        finally:
            scipy.signal.place_poles = place_poles
            for ns, key, value in patched:
                ns[key] = value

    def layer_totals(self, slowdown):
        """{name: [calls, self seconds, raised calls, total seconds of raised
        calls]}, with each span's times divided by `slowdown[op]`."""
        child_time = defaultdict(float)
        for op, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += (end - start) / slowdown[op]
        totals = defaultdict(lambda: [0, 0.0, 0, 0.0])
        for op, span_id, _, name, start, end, raised in self.spans:
            duration = (end - start) / slowdown[op]
            entry = totals[name]
            entry[0] += 1
            entry[1] += duration - child_time[span_id]
            if raised:
                entry[2] += 1
                entry[3] += duration
        return totals

    def write(self, path):
        """All spans as gzipped JSON lines, times relative to the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end, raised in self.spans:
                fh.write(json.dumps([op, span_id, parent, name,
                                     round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1), raised]) + "\n")
