"""Spans around the layers of zsscatter, recorded from the benchmark's side.

The traced pass wraps the functions that ``solve_direct`` and
``solve_inverse`` look up in their own modules (``zsscatter.direct``,
``zsscatter.inverse``, ``zsscatter.basis``), so the spans sit under the real
pipeline and no source file of the program changes.  Spans are kept in memory
and turned into per-layer metrics per example when the pass ends.

A layer's self time is its span's duration minus the time its child spans
cover; every ``*_s`` layer metric is a self time.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

import zsscatter.basis
import zsscatter.direct
import zsscatter.inverse

# per-layer metrics are reported for these examples; ex5 (the seeded
# sech_amplitude member) only enters trace.layer_self_s
DIRECT_EXAMPLES = ("ex1", "ex2", "ex3", "ex4")
INVERSE_EXAMPLES = ("ex1", "ex2", "ex4")

# (metric, unit, better)
DIRECT_LAYER = (
    ("potentials.evaluate_s", "s", "lower"),
    ("basis.compute_basis_s", "s", "lower"),
    ("basis.ode_steps", "count", "lower"),
    ("basis.steps_per_s", "1/s", "higher"),
    ("coeffs.compute_coefficients_s", "s", "lower"),
    ("coeffs.orders_computed", "count", "lower"),
    ("coeffs.table_mb", "MB", "lower"),
    ("coeffs.order_use_ratio", "1", "higher"),
    ("coeffs.select_truncation_s", "s", "lower"),
    ("coeffs.chosen_N", "1", "lower"),
    ("direct.solve_direct_self_s", "s", "lower"),
    ("direct.scattering_coefficients_s", "s", "lower"),
    ("direct.find_eigenvalues_s", "s", "lower"),
    ("numerics.polynomial_roots_s", "s", "lower"),
    ("numerics.polynomial_roots_calls", "count", "lower"),
    ("direct.root_degree", "1", "lower"),
    ("direct.root_keep_ratio", "1", "higher"),
    ("direct.norming_constants_s", "s", "lower"),
    ("cli.to_json_s", "s", "lower"),
    ("cli.from_json_s", "s", "lower"),
    ("cli.json_bytes", "bytes", "lower"),
)
INVERSE_LAYER = (
    ("inverse.select_truncation_s", "s", "lower"),
    ("inverse.select_solves", "count", "lower"),
    ("inverse.sweep_self_s", "s", "lower"),
    ("numerics.least_squares_solve_s", "s", "lower"),
    ("numerics.lsq_calls", "count", "lower"),
    ("numerics.lsq_ms", "ms", "lower"),
    ("numerics.lsq_rows", "count", "lower"),
    ("numerics.lsq_cols", "count", "lower"),
    ("numerics.lsq_gflop", "GFLOP", "lower"),
    ("numerics.lsq_gflops", "GFLOP/s", "higher"),
    ("inverse.collocation_ratio", "1", "higher"),
    ("inverse.recover_potential_s", "s", "lower"),
    ("inverse.max_condition", "1", "lower"),
)
TRACE_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.layer_self_s", "s", "lower"),
)


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{ex}.{m}", u, b) for ex in DIRECT_EXAMPLES for m, u, b in DIRECT_LAYER]
    out += [(f"{ex}.{m}", u, b) for ex in INVERSE_EXAMPLES for m, u, b in INVERSE_LAYER]
    return out + list(TRACE_METRICS)


@dataclass
class Span:
    name: str
    example: str | None
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class NullTracer:
    """The untraced pass: spans and counts cost one call each."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def example(self, name):
        return self._null

    def count(self, key, value):
        pass


class Tracer:
    """Records spans in memory; ``install`` wraps the program's layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._example: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self._example, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def example(self, name):
        previous, self._example = self._example, name
        try:
            with self.span("bench.example"):
                yield
        finally:
            self._example = previous

    def count(self, key, value):
        """Add ``value`` to ``key`` on the innermost open span."""
        if self._stack:
            attrs = self.spans[self._stack[-1]].attrs
            attrs[key] = attrs.get(key, 0) + value

    # -- wrapping the program's functions ---------------------------------

    def _wrap(self, module, attr, name, after=None):
        original = getattr(module, attr, None)
        if original is None:  # the program no longer has this layer function
            return

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if after is not None:
                    after(s, args, kwargs, result)
            return result

        self._restore.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _count_ode_steps(self):
        original = getattr(zsscatter.basis, "integrate_linear_ode2", None)
        if original is None:
            return
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            start, n = bound["start_index"], bound["grid"].n_points
            self.count("ode_steps", n - 1 - start if bound["direction"] == 1 else start)
            return original(*args, **kwargs)

        self._restore.append((zsscatter.basis, "integrate_linear_ode2", original))
        zsscatter.basis.integrate_linear_ode2 = wrapper

    def install(self):
        d, inv = zsscatter.direct, zsscatter.inverse

        def table(s, args, kwargs, t):
            s.attrs["rows"] = t.a.shape[0]
            s.attrs["bytes"] = t.a.nbytes + t.b.nbytes

        def truncation(s, args, kwargs, report):
            s.attrs["chosen_N"] = report.chosen_N

        def eigenvalues(s, args, kwargs, kept):
            s.attrs["degree"] = len(args[0]) - 1
            s.attrs["kept"] = len(kept)

        def roots(s, args, kwargs, r):
            # |z| < 1 is exactly Im rho > 0 under z = (1/2 + i rho)/(1/2 - i rho)
            s.attrs["in_disk"] = int(np.count_nonzero(np.abs(r) < 1.0))

        def lsq(s, args, kwargs, result):
            s.attrs["rows"], s.attrs["cols"] = np.shape(args[0])

        self._wrap(d, "compute_basis", "basis.compute_basis")
        self._wrap(d, "compute_coefficients", "coeffs.compute_coefficients", table)
        self._wrap(d, "select_truncation_direct", "coeffs.select_truncation_direct", truncation)
        self._wrap(d, "scattering_coefficients", "direct.scattering_coefficients")
        self._wrap(d, "find_eigenvalues", "direct.find_eigenvalues", eigenvalues)
        self._wrap(d, "polynomial_roots", "numerics.polynomial_roots", roots)
        self._wrap(d, "norming_constants", "direct.norming_constants")
        self._wrap(inv, "select_truncation_inverse", "inverse.select_truncation_inverse")
        self._wrap(inv, "least_squares_solve", "numerics.least_squares_solve", lsq)
        self._wrap(inv, "recover_potential", "inverse.recover_potential")
        self._count_ode_steps()

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- turning spans into metrics ----------------------------------------

    def self_times(self) -> np.ndarray:
        own = np.array([s.end - s.start for s in self.spans])
        out = own.copy()
        for s, d in zip(self.spans, own):
            if s.parent is not None:
                out[s.parent] -= d
        return out


def _lsq_flops(m: int, n: int) -> float:
    """Pivoted Householder QR, explicit economic Q, Q^T b, back solve, residual."""
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0 + 5.0 * m * n + n * n


def _ancestors(spans, i):
    p = spans[i].parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


def layer_metrics(tracer: Tracer, pass_root: int) -> dict[str, float]:
    """Per-layer figures per example from the spans of a traced run.

    ``pass_root`` is the index of the span holding the traced pass; the layer
    self times inside it form ``trace.layer_self_s``.  A call that raised
    left no attributes on its span and counts as 0.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    out = {name: 0.0 for name, _, _ in per_layer_catalogue()}

    def add(ex, metric, value):
        key = f"{ex}.{metric}"
        if key in out:
            out[key] += value

    seconds = {
        "potentials.evaluate": "potentials.evaluate_s",
        "basis.compute_basis": "basis.compute_basis_s",
        "coeffs.compute_coefficients": "coeffs.compute_coefficients_s",
        "coeffs.select_truncation_direct": "coeffs.select_truncation_s",
        "direct.solve_direct": "direct.solve_direct_self_s",
        "direct.scattering_coefficients": "direct.scattering_coefficients_s",
        "direct.find_eigenvalues": "direct.find_eigenvalues_s",
        "numerics.polynomial_roots": "numerics.polynomial_roots_s",
        "direct.norming_constants": "direct.norming_constants_s",
        "cli.to_json": "cli.to_json_s",
        "cli.from_json": "cli.from_json_s",
        "inverse.solve_inverse": "inverse.sweep_self_s",
        "inverse.select_truncation_inverse": "inverse.select_truncation_s",
        "numerics.least_squares_solve": "numerics.least_squares_solve_s",
        "inverse.recover_potential": "inverse.recover_potential_s",
    }
    layer_self = 0.0
    first_roots = {}
    for i, s in enumerate(spans):
        ex = s.example
        if s.name in seconds:
            add(ex, seconds[s.name], self_t[i])
            if any(a is spans[pass_root] for a in _ancestors(spans, i)):
                layer_self += self_t[i]
        a = s.attrs
        if s.name == "basis.compute_basis":
            add(ex, "basis.ode_steps", a.get("ode_steps", 0))
        elif s.name == "coeffs.compute_coefficients":
            add(ex, "coeffs.orders_computed", a.get("rows", 0))
            add(ex, "coeffs.table_mb", a.get("bytes", 0) / 1e6)
        elif s.name == "coeffs.select_truncation_direct":
            add(ex, "coeffs.chosen_N", a.get("chosen_N", 0))
        elif s.name == "direct.find_eigenvalues":
            add(ex, "direct.root_degree", a.get("degree", 0))
        elif s.name == "numerics.polynomial_roots":
            add(ex, "numerics.polynomial_roots_calls", 1)
            if s.parent is not None and s.parent not in first_roots:
                first_roots[s.parent] = a.get("in_disk", 0)
        elif s.name == "cli.to_json":
            add(ex, "cli.json_bytes", a.get("bytes", 0))
        elif s.name == "inverse.solve_inverse":
            key = f"{ex}.inverse.max_condition"
            if key in out:
                out[key] = max(out[key], a.get("max_condition", 0.0))
        elif s.name == "numerics.least_squares_solve":
            m, n = a.get("rows", 0), a.get("cols", 0)
            add(ex, "numerics.lsq_calls", 1)
            add(ex, "numerics.lsq_gflop", _lsq_flops(m, n) / 1e9)
            parent = spans[s.parent] if s.parent is not None else None
            if parent is not None and parent.name == "inverse.select_truncation_inverse":
                add(ex, "inverse.select_solves", 1)
            elif parent is not None and parent.name == "inverse.solve_inverse":
                key = f"{ex}.numerics.lsq_rows"
                if key in out:
                    out[key] = m
                    out[f"{ex}.numerics.lsq_cols"] = n
                    distinct = m / 4 - parent.attrs.get("M", 0)
                    out[f"{ex}.inverse.collocation_ratio"] = distinct / parent.attrs.get("K", 1)

    for parent, in_disk in first_roots.items():
        p = spans[parent]
        if p.name == "direct.find_eigenvalues" and in_disk:
            add(p.example, "direct.root_keep_ratio", p.attrs.get("kept", 0) / in_disk)

    for ex in DIRECT_EXAMPLES:
        steps, t = out[f"{ex}.basis.ode_steps"], out[f"{ex}.basis.compute_basis_s"]
        out[f"{ex}.basis.steps_per_s"] = steps / t if t else 0.0
        rows, n = out[f"{ex}.coeffs.orders_computed"], out[f"{ex}.coeffs.chosen_N"]
        out[f"{ex}.coeffs.order_use_ratio"] = (n + 1) / rows if rows else 0.0
    for ex in INVERSE_EXAMPLES:
        calls, t = out[f"{ex}.numerics.lsq_calls"], out[f"{ex}.numerics.least_squares_solve_s"]
        out[f"{ex}.numerics.lsq_ms"] = 1e3 * t / calls if calls else 0.0
        gflop = out[f"{ex}.numerics.lsq_gflop"]
        out[f"{ex}.numerics.lsq_gflops"] = gflop / t if t else 0.0
    out["trace.layer_self_s"] = layer_self
    return out
