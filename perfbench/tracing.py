"""Outside-in layer trace for the benchmark.

The tracer times calls into each ``fracheat`` module's public functions
without touching the library: ``install`` replaces every module-level name
that refers to a traced function (``fracheat.solve``, ``harness.solve``,
``solver.solve_tridiagonal``, ...) by a wrapper, and ``uninstall`` puts the
originals back.  The ``ProblemSpec`` callables are closures, so they are
wrapped per problem through ``dataclasses.replace``: by ``wrap_problem``
for problems the benchmark builds, and by a wrapped ``get_problem`` for
problems the harness and CLI build.

A traced name that the library no longer has is reported as absent and
reads 0 calls; a name that exists but leaves the hot path simply counts
fewer calls.  Spans are kept in memory and written out by ``write``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

# Span name -> (module, the functions timed under that name).
FUNCTION_SPANS = {
    "cli.main": ("fracheat.cli", ("main",)),
    "harness.run_sweep": ("fracheat.harness", ("run_sweep",)),
    "harness.error": ("fracheat.harness", ("lattice_error", "max_lattice_error")),
    "solver.solve": ("fracheat.solver", ("solve",)),
    "operators.solve_tridiagonal": ("fracheat.operators", ("solve_tridiagonal",)),
    "operators.apply_compact": ("fracheat.operators", ("apply_compact",)),
    "quadrature.weights_row": ("fracheat.quadrature", ("weights_row",)),
    "quadrature.forcing_convolution_profile": (
        "fracheat.quadrature", ("forcing_convolution_profile",)),
}
# Span name -> ProblemSpec field holding the callable.
PROBLEM_SPANS = {
    "problems.f": "f",
    "problems.exact_f_conv": "exact_f_conv",
    "problems.exact_u": "exact_u",
}
SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(PROBLEM_SPANS)
EXTRA_METRICS = ("quadrature.weights_row.entries", "problems.f.useful_ratio")


def metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.metrics`` reports, in order."""
    per_span = [f"{s}.{m}" for s in SPAN_NAMES for m in ("calls", "total_s", "self_s")]
    return per_span + list(EXTRA_METRICS)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("useful_ratio") else "count"


class Tracer:
    def __init__(self) -> None:
        self._spans: list[Optional[tuple[str, int, float, float]]] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple[Any, str, Any]] = []
        self._problem_fields: set[str] = set()
        self.absent: list[str] = []
        self.weight_entries = 0
        self.f_times: set[float] = set()

    # -- recording --------------------------------------------------------

    def _wrap(self, span: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A call made while the same span is open (lattice_error calling
            # max_lattice_error) belongs to the outer span.
            if span in self._open:
                return fn(*args, **kwargs)
            index = len(self._spans)
            parent = self._stack[-1] if self._stack else -1
            self._spans.append(None)
            self._stack.append(index)
            self._open.add(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._open.discard(span)
                self._spans[index] = (span, parent, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_weights(self, args, kwargs, result) -> None:
        self.weight_entries += int(np.size(getattr(result, "weights", result)))

    def _note_f_time(self, args, kwargs, result) -> None:
        t = args[1] if len(args) > 1 else kwargs.get("t")
        self.f_times.add(float(t))

    def reset(self) -> None:
        self._spans.clear()
        self.weight_entries = 0
        self.f_times.clear()

    # -- binding ----------------------------------------------------------

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Point every fracheat module-level name bound to ``original`` at ``replacement``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fracheat" or name.startswith("fracheat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Trace the library inside the ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        self.absent = []
        for span, (module_name, attrs) in FUNCTION_SPANS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            found = [getattr(module, a) for a in attrs if callable(getattr(module, a, None))]
            if not found:
                self.absent.append(span)
            after = self._count_weights if span == "quadrature.weights_row" else None
            for fn in found:
                self._rebind(fn, self._wrap(span, fn, after))

        problems = sys.modules.get("fracheat.problems")
        spec = getattr(problems, "ProblemSpec", None)
        fields = {f.name for f in dataclasses.fields(spec)} if dataclasses.is_dataclass(spec) else set()
        self._problem_fields = {f for f in PROBLEM_SPANS.values() if f in fields}
        self.absent += [s for s, f in PROBLEM_SPANS.items() if f not in self._problem_fields]
        get_problem = getattr(problems, "get_problem", None)
        if callable(get_problem):
            @functools.wraps(get_problem)
            def traced_get_problem(*args, **kwargs):
                return self.wrap_problem(get_problem(*args, **kwargs))

            self._rebind(get_problem, traced_get_problem)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def wrap_problem(self, problem: Any) -> Any:
        """A copy of ``problem`` whose f, exact_f_conv and exact_u are traced."""
        changes = {}
        for span, field in PROBLEM_SPANS.items():
            fn = getattr(problem, field, None) if field in self._problem_fields else None
            if fn is not None:
                after = self._note_f_time if span == "problems.f" else None
                changes[field] = self._wrap(span, fn, after)
        # replace() re-runs ProblemSpec's validation, which calls exact_u;
        # with the problem spans marked open that call is not traced.
        self._open.update(PROBLEM_SPANS)
        try:
            return dataclasses.replace(problem, **changes)
        finally:
            self._open.difference_update(PROBLEM_SPANS)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls, total and self time per span, plus the extra counters.

        Self time is a span's duration minus the durations of the spans it
        directly caused.
        """
        spans = [s for s in self._spans if s is not None]
        covered = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {f"{s}.{m}": 0.0 for s in SPAN_NAMES for m in ("total_s", "self_s")}
        out.update({f"{s}.calls": 0 for s in SPAN_NAMES})
        for (name, parent, start, end), child_time in zip(spans, covered):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time
        out["quadrature.weights_row.entries"] = self.weight_entries
        f_calls = out["problems.f.calls"]
        # With no calls to f, no evaluation of it is wasted.
        out["problems.f.useful_ratio"] = len(self.f_times) / f_calls if f_calls else 1.0
        return {name: out[name] for name in metric_names()}

    def write(self, path: Path) -> None:
        """Write the recorded spans as tab-separated rows, times relative to the first."""
        spans = [s for s in self._spans if s is not None]
        origin = spans[0][2] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")
