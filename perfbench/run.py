#!/usr/bin/env python3
"""Benchmark of the zsscatter direct solve, inverse sweep and inverse N-selection.

Run from the root of a checkout:

    python3 perfbench/run.py --workload direct --seed 1 --seconds 15 --trace 0

Workloads are ``direct``, ``inverse-sweep`` and ``inverse-select`` (see
README.md).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced pass
with ``--trace 1``.  The program is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import statistics
import sys
import time
import traceback
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, "perfbench", "results")
# one BLAS thread: the per-x least-squares systems are too small to gain from
# two, and a single thread keeps timings steady on a shared machine
BLAS_THREADS = "1"
SETUP_REPEATS = 3
# a run measures for --seconds and for at least this many passes
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("direct_s", "s"),
    ("inverse_s", "s"),
    ("peak_mb", "MB"),
    ("eig_err", "1"),
    ("b_err", "1"),
    ("unitarity_defect", "1"),
    ("q_err", "1"),
)
# accuracy metrics cover the four reference potentials, not the seeded ex5
METRIC_EXAMPLES = ("ex1", "ex2", "ex3", "ex4")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("direct", "inverse-sweep", "inverse-select"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny grids for the self-test of the harness")
    return parser.parse_args(argv)


def import_program():
    """Import zsscatter from the checkout's src/; returns (module, seconds)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import zsscatter
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(zsscatter.__file__).startswith(SRC + os.sep):
        raise ImportError(f"zsscatter was found at {zsscatter.__file__}, not under {SRC}")
    return zsscatter, elapsed


class _Allocator(ctypes.Structure):
    """PyMemAllocatorEx of the C API (PEP 445); only copied, never called."""

    _fields_ = [(name, ctypes.c_void_p) for name in ("ctx", "malloc", "calloc", "realloc", "free")]


# allocator domains of PyMem_GetAllocator / PyMem_SetAllocator
_PYMEM_DOMAIN_MEM, _PYMEM_DOMAIN_OBJ = 1, 2


class PeakAlloc:
    """Peak bytes allocated while the block runs and still live at the peak.

    tracemalloc records every NumPy data buffer and every Python block of
    more than 512 bytes (those come from the raw allocator), so the figure is
    the same on every run of the same program and inputs; a sampled resident
    set size missed short peaks and moved with the reuse of freed pages.
    Small Python objects are left untraced: tracemalloc's hooks on the
    object allocator slowed the scalar loops of the direct solve eightfold.
    The hooks on the raw allocator still add some cost, so the block is
    never timed.
    """

    def __enter__(self):
        gc.collect()
        api = ctypes.pythonapi
        saved = {d: _Allocator() for d in (_PYMEM_DOMAIN_MEM, _PYMEM_DOMAIN_OBJ)}
        for domain, alloc in saved.items():
            api.PyMem_GetAllocator(ctypes.c_int(domain), ctypes.byref(alloc))
        tracemalloc.start()
        # put the small-object allocators back; tracemalloc.stop() restores
        # the same ones, and NumPy reports its buffers to tracemalloc itself
        for domain, alloc in saved.items():
            api.PyMem_SetAllocator(ctypes.c_int(domain), ctypes.byref(alloc))
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    @property
    def mb(self) -> float:
        return self.peak / 1e6


class Runner:
    """Set-up, passes and checks of one run of one workload."""

    def __init__(self, zs, wl, workloads):
        self.zs, self.wl, self.W = zs, wl, workloads
        self.examples = {ex.name: ex for ex in wl.examples}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.direct_errs: dict[str, dict] = {}
        self.q_errs: dict[str, float] = {}
        self.oracles: dict[str, tuple] = {}
        self.potentials: dict = {}
        self.data: dict = {}

    # -- operations (timed) and their checks (untimed) ---------------------

    def _solve_direct(self, ex, tracer):
        """Timed: solve_direct, then the JSON round trip.  Returns (sd, copy, s)."""
        zs = self.zs
        t0 = time.perf_counter()
        with tracer.example(ex.name):
            with tracer.span("direct.solve_direct"):
                sd = zs.solve_direct(self.potentials[ex.name], **ex.direct_kwargs)
            with tracer.span("cli.to_json"):
                text = zs.scattering_to_json(sd)
                tracer.count("bytes", len(text))
            with tracer.span("cli.from_json"):
                back = zs.scattering_from_json(text)
        return sd, back, time.perf_counter() - t0

    def _direct_op(self, ex, tracer, with_oracle: bool) -> tuple[bool, float]:
        """One checked direct operation; returns (ok, timed seconds)."""
        try:
            sd, back, seconds = self._solve_direct(ex, tracer)
        except Exception:  # the run goes on and counts the operation as failed
            self.messages.append(f"{ex.name}: solve_direct raised\n{traceback.format_exc()}")
            self.data.pop(ex.name, None)
            return False, 0.0
        oracle = None
        if with_oracle:
            if ex.name not in self.oracles:
                self.oracles[ex.name] = self.W.oracle_reference(ex, sd.rho_grid)
            oracle = self.oracles[ex.name]
        fails, errs = self.W.check_direct(ex, sd, back, oracle)
        self.messages += fails
        self.direct_errs[ex.name] = errs
        self.data[ex.name] = back
        return not fails, seconds

    def _inverse_op(self, case, tracer) -> tuple[bool, float]:
        sd = self.data.get(case.example)
        if sd is None:
            self.messages.append(f"{case.example}: no scattering data for the inverse solve")
            return False, 0.0
        t0 = time.perf_counter()
        try:
            with tracer.example(case.example), tracer.span("inverse.solve_inverse"):
                tracer.count("K", case.config.K)
                tracer.count("M", sd.M)
                rec, _, info = self.zs.solve_inverse(sd, case.config)
                tracer.count("max_condition", info["max_condition"])
        except Exception:  # the run goes on and counts the operation as failed
            self.messages.append(f"{case.example}: solve_inverse raised\n{traceback.format_exc()}")
            return False, 0.0
        seconds = time.perf_counter() - t0
        fails, err = self.W.check_inverse(case, self.examples[case.example], rec)
        self.messages += fails
        self.q_errs[case.example] = err
        return not fails, seconds

    # -- set-up and passes --------------------------------------------------

    def setup(self, tracer) -> tuple[float, float]:
        """Sample the potentials and, for the inverse workloads, make their
        scattering data.  Returns (timed seconds, of which direct solves)."""
        t0 = time.perf_counter()
        for ex in self.wl.examples:
            with tracer.example(ex.name), tracer.span("potentials.evaluate"):
                self.potentials[ex.name] = self.zs.evaluate(ex.spec, self.zs.UniformGrid(*ex.grid))
        seconds = time.perf_counter() - t0
        direct_s = 0.0
        if not self.wl.direct_in_pass:
            for ex in self.wl.examples:
                _, dt = self._direct_op(ex, tracer, with_oracle=False)
                direct_s += dt
        return seconds + direct_s, direct_s

    def one_pass(self, tracer, with_oracle=True) -> tuple[float, list[float]]:
        """One round of operations; returns the timed seconds of the direct
        stage and of each repetition of the inverse stage."""
        direct_s = 0.0
        ops = []
        if self.wl.direct_in_pass:
            for ex in self.wl.examples:
                ok, dt = self._direct_op(ex, tracer, with_oracle)
                ops.append(ok)
                direct_s += dt
        inverse_s = []
        for _ in range(self.wl.inverse_repeats):
            inverse_s.append(0.0)
            for case in self.wl.inverse:
                ok, dt = self._inverse_op(case, tracer)
                ops.append(ok)
                inverse_s[-1] += dt
        self.attempted += len(ops)
        self.failed += ops.count(False)
        return direct_s, inverse_s

    def accuracy(self) -> dict[str, float]:
        errs = [self.direct_errs[n] for n in METRIC_EXAMPLES if n in self.direct_errs]
        return {
            "eig_err": self.W.geometric_mean(e["eig"] for e in errs),
            "b_err": self.W.geometric_mean(e["b"] for e in errs if "b" in e),
            "unitarity_defect": self.W.geometric_mean(e["unitarity"] for e in errs),
            "q_err": self.W.geometric_mean(self.q_errs.values()),
        }


def _fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def _finite(value: float) -> float:
    """Keep JSON numeric: a failed check can leave an infinite error."""
    return value if math.isfinite(value) else 1e300


def measure(args, zs, import_s=0.0):
    """One run: repeated set-up, an untimed pass that measures peak memory,
    timed passes until ``args.seconds`` have gone since that pass began and
    at least MIN_PASSES of them, then with ``args.trace`` a traced set-up and
    pass.

    Returns (runner, end-to-end values, per-layer values or None, tracer or None).
    """
    import tracing
    import workloads

    wl = workloads.make_workload(args.workload, args.seed, args.size)
    runner = Runner(zs, wl, workloads)
    null = tracing.NullTracer()

    # the tiny self-test size needs one set-up and one pass, not medians
    setup_repeats, min_passes = (SETUP_REPEATS, MIN_PASSES) if args.size == "full" else (1, 1)
    setups, setup_direct = [], []
    for _ in range(setup_repeats):
        total, direct_s = runner.setup(null)
        setups.append(total)
        setup_direct.append(direct_s)

    # the memory pass also warms up, so the slower first pass is not timed;
    # it leaves the oracle checks to the timed passes, because tracing would
    # slow their step-by-step integration many times over
    start = time.perf_counter()
    with PeakAlloc() as peak:
        runner.one_pass(null, with_oracle=False)
    memory_pass_s = time.perf_counter() - start
    passes = []
    while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
        passes.append(runner.one_pass(null))
    direct_times = [d for d, _ in passes]
    inverse_times = [t for _, inv in passes for t in inv]
    print(f"setup seconds: {_fmt(setups)}; memory pass {memory_pass_s:.3f}", file=sys.stderr)
    print(f"pass seconds: direct {_fmt(direct_times)}, inverse {_fmt(inverse_times)}",
          file=sys.stderr)
    end_to_end = {
        "setup_s": import_s + statistics.median(setups),
        "direct_s": statistics.median(direct_times if wl.direct_in_pass else setup_direct),
        "inverse_s": statistics.median(inverse_times),
        "peak_mb": peak.mb,
    }
    end_to_end.update(runner.accuracy())
    if not args.trace:
        return runner, end_to_end, None, None

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            runner.setup(tracer)
        with tracer.span("bench.pass"):
            direct_s, inverse_s = runner.one_pass(tracer)
        traced = direct_s + sum(inverse_s)
    finally:
        tracer.uninstall()
    pass_root = next(i for i, s in enumerate(tracer.spans) if s.name == "bench.pass")
    per_layer = tracing.layer_metrics(tracer, pass_root)
    per_layer["trace.overhead_s"] = traced - statistics.median(d + sum(i) for d, i in passes)
    return runner, end_to_end, per_layer, tracer


def run(args, zs, import_s=0.0) -> dict:
    """The result line of one run."""
    import tracing

    runner, end_to_end, per_layer, tracer = measure(args, zs, import_s)
    if args.trace:
        values = per_layer
        units = {name: unit for name, unit, _ in tracing.per_layer_catalogue()}
        _write_trace(args, tracer, values)
    else:
        values, units = end_to_end, dict(END_TO_END)
    for message in runner.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not runner.messages,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": _finite(float(values[name])), "unit": units[name]}
                    for name in units},
    }


def _write_trace(args, tracer, values):
    """Keep the spans of the traced run next to its per-layer figures."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"trace-{args.workload}-seed{args.seed}-{args.size}.json")
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    spans = [
        {"name": s.name, "example": s.example, "parent": s.parent,
         "start": s.start - t0, "end": s.end - t0, "attrs": s.attrs}
        for s in tracer.spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": spans,
                   "metrics": values}, fh, indent=1, default=float)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        zs, import_s = import_program()
    except ImportError as exc:
        print(f"cannot import zsscatter from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = run(args, zs, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
