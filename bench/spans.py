"""In-memory span tracer that wraps divcurl's public functions from outside.

The tracer never edits the package: it replaces module attributes (and the
copies of them that other divcurl modules imported by name) with timing
wrappers while a traced request runs, and restores the originals after.
Each span records (name, start, end, parent, request id); self time is a
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _oracle_pairs(fn):
    """Counter hook: points x (volume cells + boundary nodes) of one oracle call."""
    sig = inspect.signature(fn)

    def count(counters, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        first = next(iter(a.values()))  # points, or a KernelPoint carrying them
        points = np.size(getattr(first, "x", first))
        counters["biot_savart.pairs"] += points * (a["n_radial"] * a["n_angular"] + a["n_boundary"])

    return count


def _sample_points(counters, args, kwargs, result):
    counters["disk.sample_points"] += np.size(result)


def _mode_nodes(counters, args, kwargs, result):
    problem = args[0]
    counters["disk.mode_nodes"] += (2 * problem.K + 1) * len(problem.grid)


def _rows_written(counters, args, kwargs, result):
    counters["fieldio.rows_written"] += np.size(args[1])


def _rows_read(counters, args, kwargs, result):
    counters["fieldio.rows_read"] += result.table.size


# (module, owner attribute or None, function name, span name, counter hook)
SPANS = [
    ("disk", None, "solve_disk", "disk.solve", _mode_nodes),
    ("disk", "VelocitySolution", "sample", "disk.sample", _sample_points),
    ("moments", None, "moment_report", "moments.report", None),
    ("moments", None, "make_admissible", "moments.make_admissible", None),
    ("norms", None, "far_field_deviation_h1", "norms.h1", None),
    ("norms", None, "l2_weighted_norm", "norms.l2", None),
    ("stream", None, "solve_stream", "stream.solve", None),
    ("stream", None, "velocity_from_stream", "stream.velocity", None),
    ("biot_savart", None, "biot_savart_disk", "biot_savart.disk", "pairs"),
    ("biot_savart", None, "biot_savart_omega", "biot_savart.omega", "pairs"),
    ("conformal", None, "solve_exterior", "conformal.solve", None),
    ("conformal", None, "pullback_problem", "conformal.pullback", None),
    ("conformal", None, "verify_map", "conformal.verify_map", None),
    ("conformal", "ExteriorSolution", "sample", "conformal.sample", None),
    ("presets", None, "modal_field", "presets.build", None),
    ("presets", None, "random_mode_profiles", "presets.build", None),
    ("presets", None, "random_admissible_problem", "presets.build", None),
    ("presets", None, "random_admissible_exterior_problem", "presets.build", None),
    ("cli", None, "build_problem", "cli.build_problem", None),
    ("fieldio", None, "write_field_dump", "fieldio.write", _rows_written),
    ("fieldio", None, "load_gridded_samples", "fieldio.load", _rows_read),
]

# call counters without spans: these run thousands of times per request
COUNTS = [
    ("quadrature", None, "cumulative", "quadrature.cumulative_calls"),
    ("quadrature", "CumulativeIntegral", "at", "quadrature.at_calls"),
]


class Tracer:
    """Collects spans and counters; install() patches divcurl while active."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.request_id = None
        self._stack = []
        self._patches = None

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.request_id])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block; yields the span's index."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, fn, name, count=None):
        """fn wrapped in a span; count(counters, args, kwargs, result) runs after."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def counting(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------
    def _build_patches(self):
        targets = [(importlib.import_module(f"divcurl.{entry[0]}"), entry)
                   for entry in SPANS + COUNTS]
        modules = [m for key, m in sys.modules.items()
                   if key == "divcurl" or key.startswith("divcurl.")]
        patches = []
        for module, entry in targets:
            owner_name, attr = entry[1], entry[2]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original, self._wrapper_for(entry, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper_for(entry, original)
            # rebind the name in every module that imported it, so calls made
            # through `from .x import f` inside the package are traced too
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def _wrapper_for(self, entry, original):
        if len(entry) == 4:
            return self.counting(original, entry[3])
        hook = entry[4]
        if hook == "pairs":
            hook = _oracle_pairs(original)
        return self.wrap(original, entry[3], hook)

    def install(self):
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    @contextmanager
    def active(self, request_id):
        """Patches installed and spans tagged with request_id inside the block."""
        self.request_id = request_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.request_id = None

    # -- analysis ----------------------------------------------------------
    def self_times(self, request_ids):
        """{name: [self time of each span]} restricted to the given requests."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(list)
        for index, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid in request_ids:
                out[name].append(end - start - child_time[index])
        return out

    def children_time(self, index):
        """Summed duration of the direct children of span `index`."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent == index)

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "request": r}
                for n, s, e, p, r in self.spans]
