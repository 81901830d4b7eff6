"""In-memory span tracing around liecross's layer boundaries.

A Tracer replaces library functions, at the module attribute where their
callers look them up, with wrappers that record a span (name, start, end,
parent) per call and a few counts (scan candidates and survivors, objects,
derivations, arrows, groupoid triples).  Scalar and LinearMap constructions
are counted by wrapping the classes' __init__.  Spans stay in memory and are
written out once, at the end of the process.

Install a tracer after the workload's inputs are built, so set-up work is
not attributed to the layers.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from collections.abc import Iterator
from time import perf_counter


def _consumed(result):
    # A lazy result would end the span before the work is done.
    return list(result) if isinstance(result, Iterator) else result


def _scan_counts(counts, name, args, result):
    # Kernels take (..., start, stop) and return the surviving indices.
    counts[f"{name}.candidates"] += args[-1] - args[-2]
    counts[f"{name}.survivors"] += len(result)


def _len_counter(key):
    def count(counts, name, args, result):
        counts[f"{name}.{key}"] += len(result)
    return count


def _arrow_counts(counts, name, args, result):
    counts[f"{name}.arrows"] += len(result.arrows)


def composable_triples(groupoid) -> int:
    """Number of composable arrow triples (a, b, c) of a groupoid."""
    out_degree = Counter(a.src for a in groupoid.arrows)
    two_step = Counter()
    for b in groupoid.arrows:
        two_step[b.src] += out_degree[b.dst]
    return sum(two_step[a.dst] for a in groupoid.arrows)


def _triple_counts(counts, name, args, result):
    counts[f"{name}.triples"] += composable_triples(args[0])


# (module, attribute, span name, count hook).  One function is patched in
# every module that calls it through its own global name.
LAYERS = [
    ("liecross._kernels", "scan_lie_morphisms", "kernel.scan_lie_morphisms", _scan_counts),
    ("liecross._kernels", "scan_derivations", "kernel.scan_derivations", _scan_counts),
    ("liecross.groupoid", "enumerate_morphisms", "groupoid.enumerate_morphisms",
     _len_counter("objects")),
    ("liecross.groupoid", "enumerate_derivations", "groupoid.enumerate_derivations",
     _len_counter("derivations")),
    ("liecross.groupoid", "build_hom_groupoid", "groupoid.build_hom_groupoid", _arrow_counts),
    ("liecross.cli", "build_hom_groupoid", "groupoid.build_hom_groupoid", _arrow_counts),
    ("liecross.groupoid", "homotopy_classes", "groupoid.homotopy_classes", None),
    ("liecross.cli", "homotopy_classes", "groupoid.homotopy_classes", None),
    ("liecross.groupoid", "validate_groupoid", "groupoid.validate_groupoid", _triple_counts),
    ("liecross.groupoid", "shift_morphism", "homotopy.shift_morphism", None),
    ("liecross.homotopy", "shift_morphism", "homotopy.shift_morphism", None),
    ("liecross.homotopy", "homotopy_target", "homotopy.homotopy_target", None),
    ("liecross.homotopy", "is_f0_derivation", "homotopy.is_f0_derivation", None),
    ("liecross.homotopy", "validate_crossed_morphism",
     "morphisms.validate_crossed_morphism", None),
    ("liecross.morphisms", "validate_crossed_morphism",
     "morphisms.validate_crossed_morphism", None),
    ("liecross.cli", "parse_workspace", "documents.parse_workspace", None),
    ("liecross.cli", "run_command", "cli.run_command", None),
]

# (module, class, counter name): constructions counted, no spans.
CONSTRUCTIONS = [
    ("liecross.fields", "Scalar", "fields.scalar_constructions"),
    ("liecross.linalg", "LinearMap", "linalg.linearmap_constructions"),
]


class Tracer:
    """Records spans and counts for one process; install() patches liecross."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = _consumed(fn(*args, **kwargs))
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, name, args, result)
            return result
        return traced

    def install(self):
        for module_name, attr, name, hook in LAYERS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), hook))
        for module_name, cls_name, key in CONSTRUCTIONS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            cls.__init__ = self._counting(cls.__init__, key)

    def _counting(self, init, key):
        counts = self.counts

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)
        return counted

    def covered_s(self) -> float:
        """Time covered by top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def layers(self) -> dict[str, float]:
        """Per span name: calls, busy_s (total duration) and self_s, plus counts.

        Busy time counts only the outermost span of a name, so a function
        reached twice on one call path is not counted twice.  Self time is a
        span's duration minus the durations of its direct children, which
        nest and do not overlap because the process runs one thread.
        """
        out: dict[str, float] = Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_s[index]
            if not self._inside(index, name):
                out[f"{name}.busy_s"] += end - start
        out.update(self.counts)
        return dict(out)

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
