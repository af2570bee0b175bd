"""Span tracing of the trisim layers, built from the benchmark's own code.

``Tracer.install`` replaces each function named in ``TRACED`` at every
module attribute that binds it (both ``trisim.moments.algorithm1`` and
``trisim.similarity.algorithm1``, say) with a wrapper that records a span:
name, start, end and parent span.  A traced class gets its ``__init__``
wrapped, so the span covers construction and validation.  ``uninstall``
puts the originals back.

Spans of the running op stay in memory and are folded into per-layer
totals when the op ends.  A span's self time is its duration minus the
durations of its direct children; the calls are sequential, so children
never overlap.  The fold checks that no self time is negative and that the
self times of an op add up to its wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# module -> public names whose spans the benchmark reports, one entry per
# layer.  A name a later version of the package drops is skipped, and its
# metrics read zero.
TRACED = {
    "core": ("AtomicMeasure",),
    "classify": ("is_class_matrix", "gram_condition_check", "canonicalize"),
    "moments": ("spectral_moments", "algorithm1", "solve_gap_moments"),
    "similarity": (
        "build_transform",
        "build_polynomials",
        "eval_recurrence",
        "orthonormality_residuals",
        "check_invertible",
        "verify_similarity",
        "apply_lhs",
    ),
    "io": ("load_json", "measure_to_json", "dump_json"),
    "cli": ("main",),
}

ROOT = "op"


class Tracer:
    """Records spans while installed and keeps per-layer totals over ops."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent] of the running op
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.ops = 0
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # core.atoms_validated and what the caller adds
        self.max_sum_error = 0.0  # largest |sum of self times - op wall|, relative

    def _wrap(self, name, fn, count_atoms=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_atoms:
                self.counts["core.atoms_validated"] += len(args[0].atoms)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "trisim" or n.startswith("trisim.")]
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"trisim.{mod_name}")
            for name in names:
                obj = getattr(mod, name, None)
                label = f"{mod_name}.{name}"
                if isinstance(obj, type):
                    init = obj.__init__
                    obj.__init__ = self._wrap(label, init, count_atoms=name == "AtomicMeasure")
                    self._restore.append((obj, "__init__", init))
                elif callable(obj):
                    wrapper = self._wrap(label, obj)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                setattr(m, attr, wrapper)
                                self._restore.append((m, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def op(self):
        """Root span of one op; its spans are folded when it ends."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        span = [ROOT, 0.0, 0.0, -1]
        self.spans.append(span)
        self._stack.append(0)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._fold()

    def _fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_sum = 0.0
        for (name, start, end, _), child_s in zip(spans, child):
            self_t = (end - start) - child_s
            if self_t < -1e-9:
                raise RuntimeError(f"span {name} has negative self time {self_t:.3e} s")
            self_sum += self_t
            self.calls[name] += 1
            self.self_s[name] += self_t
            self.total_s[name] += end - start
        wall = spans[0][2] - spans[0][1]
        self.max_sum_error = max(self.max_sum_error, abs(self_sum - wall) / max(wall, 1e-9))
        self.ops += 1
        spans.clear()
