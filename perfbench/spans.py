"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: while a :class:`Tracer` is
installed, selected module attributes of veflow and numpy are replaced by
wrappers that record a span (name, start, end, parent) around each call.
Spans stay in memory and are written out when the run ends.  Nothing is
patched in an untraced run.

A patched name must be the one the caller looks up at call time.  veflow
modules import functions by name (``from .sources import rhs_spectra``),
so those are patched in the importing module's namespace.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from contextlib import contextmanager
from math import prod
from time import perf_counter

import numpy as np

# (module or "module:Class", attribute, span name)
TARGETS = (
    ("veflow.grid", "Grid", "grid.Grid"),
    ("veflow.initial", "piola_ic", "initial.piola_ic"),
    ("veflow.snapshot", "write_state", "snapshot.write_state"),
    ("veflow.stepping", "step", "stepping.step"),
    ("veflow.stepping", "rhs_spectra", "sources.rhs_spectra"),
    ("veflow.stepping", "state_from_spectra", "state.state_from_spectra"),
    ("veflow.stepping", "sample_row", "diagnostics.sample_row"),
    ("veflow.stepping", "constraint_residuals", "sources.constraint_residuals"),
    ("veflow.diagnostics", "constraint_residuals", "sources.constraint_residuals"),
    ("veflow.diagnostics", "sobolev_norm", "operators.norms"),
    ("veflow.diagnostics", "gradient_sobolev_norm", "operators.norms"),
    ("veflow.diagnostics", "inner_product", "operators.norms"),
    ("veflow.diagnostics", "l2_norm", "operators.norms"),
    ("veflow.state", "sobolev_norm", "operators.norms"),
    ("veflow.initial", "sobolev_norm", "operators.norms"),
    ("veflow.semigroup:LinearPropagator", "__init__", "semigroup.build"),
    ("veflow.semigroup:LinearPropagator", "apply_spectra", "semigroup.apply_spectra"),
    ("veflow.semigroup:Propagator2x2", "build", "semigroup.block"),
    ("veflow.quadrature", "whole_space_norm", "quadrature.whole_space_norm"),
    ("veflow.oracles", "rk4_block_expm", "oracles.rk4_block_expm"),
    ("numpy", "einsum", "einsum"),
    ("numpy.fft", "fftn", "fft.c2c"),
    ("numpy.fft", "ifftn", "fft.c2c"),
    ("numpy.fft", "rfftn", "fft.r2c"),
    ("numpy.fft", "irfftn", "fft.r2c"),
)

# per-layer metrics in the order they are reported: (name, unit, better)
PER_LAYER = (
    ("stepping.step.calls", "count", "lower"),
    ("stepping.step.busy_ms", "ms", "lower"),
    ("stepping.step.self_ms", "ms", "lower"),
    ("sources.rhs_spectra.calls", "count", "lower"),
    ("sources.rhs_spectra.busy_ms", "ms", "lower"),
    ("sources.rhs_spectra.self_ms", "ms", "lower"),
    ("semigroup.apply_spectra.calls", "count", "lower"),
    ("semigroup.apply_spectra.busy_ms", "ms", "lower"),
    ("state.state_from_spectra.calls", "count", "lower"),
    ("state.state_from_spectra.busy_ms", "ms", "lower"),
    ("diagnostics.sample_row.calls", "count", "lower"),
    ("diagnostics.sample_row.busy_ms", "ms", "lower"),
    ("diagnostics.sample_row.self_ms", "ms", "lower"),
    ("sources.constraint_residuals.calls", "count", "lower"),
    ("sources.constraint_residuals.busy_ms", "ms", "lower"),
    ("operators.norms.calls", "count", "lower"),
    ("operators.norms.busy_ms", "ms", "lower"),
    ("semigroup.build.calls", "count", "lower"),
    ("semigroup.build.busy_ms", "ms", "lower"),
    ("initial.piola_ic.busy_ms", "ms", "lower"),
    ("grid.Grid.busy_ms", "ms", "lower"),
    ("snapshot.write_state.busy_ms", "ms", "lower"),
    ("snapshot.write_state.bytes", "B", "lower"),
    ("fft.c2c.transforms", "count", "lower"),
    ("fft.r2c.transforms", "count", "lower"),
    ("fft.busy_ms", "ms", "lower"),
    ("fft.bytes_computed", "B", "lower"),
    ("fft.c2c_share", "ratio", "lower"),
    ("fft.transforms_per_step", "count/step", "lower"),
    ("fft.transforms_per_sample", "count/sample", "lower"),
    ("einsum.calls", "count", "lower"),
    ("einsum.busy_ms", "ms", "lower"),
    ("quadrature.whole_space_norm.calls", "count", "lower"),
    ("quadrature.whole_space_norm.busy_ms", "ms", "lower"),
    ("quadrature.panels", "count", "lower"),
    ("quadrature.panels_per_call_p50", "count", "lower"),
    ("quadrature.panels_per_call_max", "count", "lower"),
    ("oracles.rk4_block_expm.calls", "count", "lower"),
    ("oracles.rk4_block_expm.busy_ms", "ms", "lower"),
    ("semigroup.block.calls", "count", "lower"),
    ("semigroup.block.busy_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "count", "nbytes")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.count = 0    # transforms (fft spans) or panels (quadrature spans)
        self.nbytes = 0   # bytes read and written (fft spans)


def _fft_work(args, kwargs, out) -> tuple[int, int]:
    """(number of transforms, bytes in + out) of one numpy.fft n-d call."""
    x = np.asarray(args[0])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    axes = range(x.ndim) if axes is None else axes
    lengths = prod(x.shape[a] for a in axes)
    return x.size // max(lengths, 1), x.nbytes + out.nbytes


class Tracer:
    """Records spans while installed with ``with tracer:``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        is_fft = name.startswith("fft.")

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if is_fft:
                span.count, span.nbytes = _fft_work(args, kwargs, out)
            return out

        return wrapper

    def counting(self, fn):
        """Wrap a callable so each call counts once on the innermost open span."""

        def wrapper(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]].count += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def __enter__(self):
        for where, attr, name in TARGETS:
            mod_name, _, cls_name = where.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            static = inspect.getattr_static(owner, attr)
            wrapped = self.wrap(name, getattr(owner, attr))
            if isinstance(static, classmethod):
                wrapped = staticmethod(wrapped)
            self._saved.append((owner, attr, static))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, static in reversed(self._saved):
            setattr(owner, attr, static)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def transforms_under(self, name: str) -> list[int]:
        """Transforms enclosed by each span called ``name``, in span order."""
        totals = {i: 0 for i, s in enumerate(self.spans) if s.name == name}
        for s in self.spans:
            if not s.name.startswith("fft."):
                continue
            p = s.parent
            while p >= 0:
                if p in totals:
                    totals[p] += s.count
                p = self.spans[p].parent
        return [totals[i] for i in sorted(totals)]

    def write(self, path) -> None:
        self_t = self.self_times()
        with open(path, "w", encoding="ascii") as fh:
            for i, (s, st) in enumerate(zip(self.spans, self_t)):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_ms": 1e3 * st,
                    "count": s.count, "bytes": s.nbytes,
                }) + "\n")

    def metrics(self, write_bytes: int, overhead_s: float) -> dict:
        """Every per-layer metric of :data:`PER_LAYER`, zero for unused layers."""
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_ms: dict[str, float] = {}
        for s, st in zip(self.spans, self.self_times()):
            calls[s.name] = calls.get(s.name, 0) + 1
            busy[s.name] = busy.get(s.name, 0.0) + 1e3 * (s.end - s.start)
            self_ms[s.name] = self_ms.get(s.name, 0.0) + 1e3 * st

        c2c = sum(s.count for s in self.spans if s.name == "fft.c2c")
        r2c = sum(s.count for s in self.spans if s.name == "fft.r2c")
        per_step = self.transforms_under("stepping.step")
        # the initial sample reuses transforms done during set-up
        per_sample = self.transforms_under("diagnostics.sample_row")[1:]
        panels = [s.count for s in self.spans if s.name == "quadrature.whole_space_norm"]

        values = {
            "fft.c2c.transforms": c2c,
            "fft.r2c.transforms": r2c,
            "fft.busy_ms": busy.get("fft.c2c", 0.0) + busy.get("fft.r2c", 0.0),
            "fft.bytes_computed": sum(s.nbytes for s in self.spans if s.name.startswith("fft.")),
            "fft.c2c_share": c2c / (c2c + r2c) if c2c + r2c else 0.0,
            "fft.transforms_per_step": statistics.median(per_step) if per_step else 0,
            "fft.transforms_per_sample": statistics.median(per_sample) if per_sample else 0,
            "quadrature.panels": sum(panels),
            "quadrature.panels_per_call_p50": statistics.median(panels) if panels else 0,
            "quadrature.panels_per_call_max": max(panels, default=0),
            "snapshot.write_state.bytes": write_bytes,
            "trace.overhead_s": overhead_s,
        }
        for name, _, _ in PER_LAYER:
            if name in values:
                continue
            layer, _, kind = name.rpartition(".")
            source = {"calls": calls, "busy_ms": busy, "self_ms": self_ms}[kind]
            values[name] = source.get(layer, 0)
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
