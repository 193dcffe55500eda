"""Spans recorded by the benchmark around calls into bernmass.

A span is (name, start, end, parent) plus one key such as the degree.  Spans stay in memory and are written out once, at the end of a run.
The package itself is not instrumented: `Patches` swaps selected public
functions for timing wrappers in every bernmass module that holds a
reference to them, and puts the originals back afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans in memory: [name, start, end, parent, root, key].

    key is the one attribute a layer metric is grouped by (a degree, an FFT
    size, or a (method, degree) pair); root is the outermost span, one per
    benchmark round.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, key=None):
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]][4] if self._stack else len(self.spans)
        record = [name, time.perf_counter(), None, parent, root, key]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def index(self, roots) -> dict:
        """{name: [(duration, key, root)]} for the spans under the given roots."""
        roots = set(roots)
        out = {}
        for name, start, end, _, root, key in self.spans:
            if root in roots:
                out.setdefault(name, []).append((end - start, key, root))
        return out

    def self_times(self, roots) -> dict:
        """{name: (calls, self seconds)} under the given roots; self time excludes child spans."""
        roots = set(roots)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, root, _) in enumerate(self.spans):
            if root in roots:
                calls, total = out.get(name, (0, 0.0))
                out[name] = (calls + 1, total + (end - start) - child[i])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _, key) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "key": key}
                fh.write(json.dumps(record) + "\n")


def _degree(args):
    return int(args[0])


def _matrix_degree(args):
    return len(args[0]) - 1


def _plan(args):
    return len(args[0])


def _solve(args):
    return (args[0], int(args[1]))


def _none(args):
    return None


# (module, attribute, span name, key taken from the positional arguments)
TRACED = (
    ("bernstein", "mass_matrix", "bernstein.mass_matrix", _degree),
    ("bernstein", "evaluate", "bernstein.evaluate", _none),
    ("bernstein", "basis_values", "bernstein.basis_values", _none),
    ("experiments", "default_rule", "quadrature.default_rule", _none),
    ("experiments", "moments", "experiments.moments", _none),
    ("experiments", "legendre_reference", "experiments.legendre_reference", _none),
    ("experiments", "reference_solution", "experiments.reference_solution", _none),
    ("experiments", "render_csv", "experiments.render_csv", _none),
    ("experiments", "run_projection", "experiments.run_projection", _none),
    ("experiments", "run_random", "experiments.run_random", _none),
    ("exact", "rational_solve", "exact.rational_solve", _none),
    ("conditioning", "kappa_2", "conditioning.kappa_2", _none),
    ("inverse", "inverse_matrix", "inverse.inverse_matrix", _degree),
    ("structured", "structured_inverse", "structured.structured_inverse", _degree),
    ("structured", "fft", "structured.fft", _plan),
    ("spectral", "build_q", "spectral.build_q", _degree),
    ("solvers", "cholesky_factor", "solvers.cholesky_factor", _matrix_degree),
    ("solvers", "solve", "solvers.solve", _solve),
)
# methods patched on their class; the key function sees self as the first argument
TRACED_METHODS = (("rng", "Xorshift64Star", "uniform", "rng.uniform", _none),)


class Patches:
    """Install and remove the timing wrappers; a name the package lacks is skipped."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def _wrap(self, original, name, key):
        tracer = self.tracer

        def traced(*args, **kwargs):
            with tracer.span(name, key(args)):
                return original(*args, **kwargs)

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "bernmass" or k.startswith("bernmass.")]
        for module, attr, name, key in TRACED:
            original = getattr(sys.modules.get("bernmass." + module), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, key)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        self._undo.append((mod, binding, original))
        for module, cls_name, attr, name, key in TRACED_METHODS:
            cls = getattr(sys.modules.get("bernmass." + module), cls_name, None)
            original = getattr(cls, attr, None)
            if original is not None:
                setattr(cls, attr, self._wrap(original, name, key))
                self._undo.append((cls, attr, original))

    def remove(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)
