"""Spans and counters around semihartree's layer functions, from outside.

Nothing in the library is edited.  `install` replaces functions in the
module namespaces where the library looks them up (for example
`sweep.evolve_rescaled` or `hartree.evolve_beta`) with timing wrappers,
and `uninstall` puts the originals back.  A span records name, parent,
start and end; hot kernels called thousands of times per sweep get a call
counter and a time total instead of one span per call.  Everything stays in
memory until the benchmark writes it out.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import time
from collections import defaultdict
from concurrent.futures import Future
from contextlib import contextmanager
from multiprocessing.reduction import ForkingPickler

import semihartree.amplitude as amplitude
import semihartree.corrections as corrections
import semihartree.hartree as hartree
import semihartree.rescaled as rescaled
import semihartree.sweep as sweep
from semihartree.classical import Trajectory

ROOT = "sweep.run_sweep"
POOL = "sweep.pool"


def _steps_of(args, trajectory):
    return {"steps": len(trajectory.times) - 1}


# Layer calls timed as spans, named after the namespace they are looked up
# in, with an optional hook that reads attributes off (args, result).
SPANS = (
    (sweep, "integrate_flow", _steps_of),
    (sweep, "hessian_along_flow", None),
    (sweep, "evolve_b", None),
    (sweep, "evolve_correction_1", None),
    (sweep, "evolve_correction_2", None),
    (sweep, "evolve_rescaled", lambda a, r: {"stored_bytes": r.a.data.nbytes}),
    (sweep, "residual_norm", None),
    (sweep, "assemble_expansion", None),
    (sweep, "l2_distance", None),
    (sweep, "compare_evolution", None),
    (hartree, "integrate_flow", _steps_of),
    (hartree, "evolve_beta", None),
    (hartree, "hartree_evolve", lambda a, r: {"n": a[0].grid.n}),
)

# the per-level build shared by every datapoint of a sweep
LEVEL_BUILD = ("sweep.integrate_flow", "sweep.hessian_along_flow",
               "sweep.evolve_b", "sweep.evolve_correction_1",
               "sweep.evolve_correction_2")

# Entry points of the stepping engine: the number of steps they take is
# added to the innermost open span, so each solver span carries its steps.
ENGINES = (
    (rescaled, "split_step_evolve", lambda r: len(r[0]) - 1),
    (amplitude, "split_step_evolve", lambda r: len(r[0]) - 1),
    (hartree, "split_step_evolve", lambda r: len(r[0]) - 1),
    (corrections, "time_nodes", lambda r: len(r) - 1),
)

# Kernels called per step: call count and total time only.
COUNTERS = (
    (corrections, "separation_power_form", "corrections.separation_power_form"),
    (rescaled, "apply_radial_rfft", "grids.apply_radial_rfft"),
    (amplitude, "apply_radial_rfft", "grids.apply_radial_rfft"),
    (hartree, "apply_radial_rfft", "grids.apply_radial_rfft"),
    (corrections, "apply_radial_rfft", "grids.apply_radial_rfft"),
    (Trajectory, "q_at", "classical.q_at"),
)


class Tracer:
    """In-memory spans, call counters and pickled task sizes."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0.0])
        self.pickled = []
        self._stack = []
        self._ids = itertools.count(1)

    def open(self, name: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        span = {"id": next(self._ids), "parent": parent, "name": name,
                "start": time.perf_counter()}
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.remove(span)

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def current(self):
        return self._stack[-1] if self._stack else None

    def export(self) -> tuple:
        return self.spans, dict(self.counters), self.pickled

    def merge(self, exported: tuple, parent: int) -> None:
        """Adopt spans and counts recorded in a pool worker; its top-level
        spans become children of `parent`."""
        spans, counters, pickled = exported
        offset = next(self._ids) + 1_000_000
        for s in spans:
            s = dict(s, id=s["id"] + offset)
            s["parent"] = parent if s["parent"] is None else s["parent"] + offset
            self.spans.append(s)
        for name, (calls, seconds) in counters.items():
            self.counters[name][0] += calls
            self.counters[name][1] += seconds
        self.pickled.extend(pickled)


# One tracer per process at a time.  It lives at module level because the
# wrappers are module attributes too, and a forked pool worker finds both
# here; `_SAVED` holds the originals that `uninstall` puts back.
_ACTIVE = None
_SAVED = []


def _span_wrapper(tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
            if hook is not None:
                s.update(hook(args, result))
            return result
    return wrapped


def _engine_wrapper(tracer, fn, steps_of):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        s = tracer.current()
        if s is not None:
            s["steps"] = s.get("steps", 0) + steps_of(result)
        return result
    return wrapped


def _counter_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        c = tracer.counters[name]
        c[0] += 1
        c[1] += time.perf_counter() - start
        return result
    return wrapped


def _traced_task(fn, args, kwargs):
    """Pool-worker side: run one task on a clean tracer and ship its trace
    back with the result.  A forked worker inherits the wrappers; a worker
    started fresh installs its own."""
    if _ACTIVE is None:
        install(Tracer())
    _ACTIVE.reset()
    return fn(*args, **kwargs), _ACTIVE.export()


def _tracing_pool(tracer, base):
    class TracingPool(base):
        """The sweep's process pool, with a span over its lifetime, the
        pickled size of every task, and worker traces merged back."""

        def __enter__(self):
            self._span = tracer.open(POOL)
            self._worker_traces = []
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)
                for exported in self._worker_traces:
                    tracer.merge(exported, self._span["id"])

        def submit(self, fn, /, *args, **kwargs):
            tracer.pickled.append(len(ForkingPickler.dumps((fn, args, kwargs))))
            inner = super().submit(_traced_task, fn, args, kwargs)
            outer = Future()

            def done(f):
                exc = f.exception()
                if exc is not None:
                    outer.set_exception(exc)
                    return
                result, exported = f.result()
                self._worker_traces.append(exported)
                outer.set_result(result)

            inner.add_done_callback(done)
            return outer

    return TracingPool


def _replace(owner, attr, new) -> None:
    _SAVED.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every layer function that exists in this version of the library;
    a name that is gone is skipped and its metrics read 0."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracer is already installed")
    _ACTIVE = tracer
    for module, attr, hook in SPANS:
        if hasattr(module, attr):
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            _replace(module, attr, _span_wrapper(tracer, name, getattr(module, attr), hook))
    for module, attr, steps_of in ENGINES:
        if hasattr(module, attr):
            _replace(module, attr, _engine_wrapper(tracer, getattr(module, attr), steps_of))
    for owner, attr, name in COUNTERS:
        if hasattr(owner, attr):
            _replace(owner, attr, _counter_wrapper(tracer, name, getattr(owner, attr)))
    if hasattr(sweep, "ProcessPoolExecutor"):
        _replace(sweep, "ProcessPoolExecutor", _tracing_pool(tracer, sweep.ProcessPoolExecutor))


def uninstall() -> None:
    global _ACTIVE
    while _SAVED:
        owner, attr, original = _SAVED.pop()
        setattr(owner, attr, original)
    _ACTIVE = None


# ---------------------------------------------------------------------------
# per-layer metrics of one traced sweep


def layer_metrics(tracer: Tracer, datapoints: int) -> dict:
    """Per-layer numbers from the spans and counters of one traced sweep
    holding `datapoints` rows.  A layer that did not run reads 0."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in tracer.spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(*names):
        return sum(dur(s) for n in names for s in by_name[n])

    def steps(*names):
        return sum(s.get("steps", 0) for n in names for s in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def us_per(seconds, count):
        return 1e6 * seconds / count if count else 0.0

    def hartree_at(n):
        spans = [s for s in by_name["hartree.hartree_evolve"] if s.get("n") == n]
        return us_per(sum(dur(s) for s in spans), sum(s.get("steps", 0) for s in spans))

    compare_self = sum(dur(s) - sum(dur(c) for c in children[s["id"]])
                       for s in by_name["sweep.compare_evolution"])
    roots = by_name[ROOT]
    covered = sum(dur(c) for r in roots for c in children[r["id"]])
    root_s = sum(dur(r) for r in roots)
    counter = tracer.counters
    q_calls, q_s = counter.get("classical.q_at", (0, 0.0))
    spf_calls, spf_s = counter.get("corrections.separation_power_form", (0, 0.0))
    flows = ("sweep.integrate_flow", "hartree.integrate_flow")
    flow_steps = steps(*flows)
    levels_run = calls("sweep.evolve_rescaled", "sweep.compare_evolution")
    stored = [s["stored_bytes"] for s in by_name["sweep.evolve_rescaled"]]
    mib = float(2 ** 20)

    return {
        "sweep.level_build_s": total(*LEVEL_BUILD),
        "sweep.level_builds": calls("sweep.integrate_flow"),
        "sweep.gate_levels_per_point": levels_run / datapoints if datapoints else 0.0,
        "sweep.pool_tasks": len(tracer.pickled),
        "sweep.pool_pickle_mib_per_task":
            statistics.fmean(tracer.pickled) / mib if tracer.pickled else 0.0,
        "rescaled.evolve_s": total("sweep.evolve_rescaled"),
        "rescaled.calls": calls("sweep.evolve_rescaled"),
        "rescaled.steps": steps("sweep.evolve_rescaled"),
        "rescaled.us_per_step": us_per(total("sweep.evolve_rescaled"),
                                       steps("sweep.evolve_rescaled")),
        "rescaled.stored_mib_per_call": statistics.fmean(stored) / mib if stored else 0.0,
        "amplitude.evolve_b.calls": calls("sweep.evolve_b"),
        "amplitude.evolve_b.steps": steps("sweep.evolve_b"),
        "amplitude.evolve_b.us_per_step": us_per(total("sweep.evolve_b"),
                                                 steps("sweep.evolve_b")),
        "amplitude.evolve_beta.calls": calls("hartree.evolve_beta"),
        "amplitude.evolve_beta.steps": steps("hartree.evolve_beta"),
        "amplitude.evolve_beta.s": total("hartree.evolve_beta"),
        "hartree.hartree_evolve.calls": calls("hartree.hartree_evolve"),
        "hartree.hartree_evolve.s": total("hartree.hartree_evolve"),
        "hartree.steps": steps("hartree.hartree_evolve"),
        "hartree.us_per_step.n512": hartree_at(512),
        "hartree.us_per_step.n1024": hartree_at(1024),
        "hartree.compare_self_s": compare_self,
        "corrections.c1.steps": steps("sweep.evolve_correction_1"),
        "corrections.c1.us_per_step": us_per(total("sweep.evolve_correction_1"),
                                             steps("sweep.evolve_correction_1")),
        "corrections.c2.steps": steps("sweep.evolve_correction_2"),
        "corrections.c2.us_per_step": us_per(total("sweep.evolve_correction_2"),
                                             steps("sweep.evolve_correction_2")),
        "corrections.separation_power_form.calls": spf_calls,
        "corrections.separation_power_form.us_per_call": us_per(spf_s, spf_calls),
        "classical.integrate_flow.calls": calls(*flows),
        "classical.integrate_flow.steps": flow_steps,
        "classical.integrate_flow.us_per_step": us_per(total(*flows), flow_steps),
        "classical.q_at.calls": q_calls,
        "classical.q_at.us_per_call": us_per(q_s, q_calls),
        "grids.apply_radial_rfft.calls": counter.get("grids.apply_radial_rfft", (0, 0.0))[0],
        "trace.span_coverage": covered / root_s if root_s else 0.0,
    }


# Counts that must repeat exactly between two traced runs of one workload
# and seed; everything else in `layer_metrics` is a time.
EXACT_COUNTS = (
    "sweep.level_builds", "sweep.gate_levels_per_point", "sweep.pool_tasks",
    "sweep.pool_pickle_mib_per_task", "rescaled.calls", "rescaled.steps",
    "rescaled.stored_mib_per_call", "amplitude.evolve_b.calls",
    "amplitude.evolve_b.steps", "amplitude.evolve_beta.calls",
    "amplitude.evolve_beta.steps", "hartree.hartree_evolve.calls",
    "hartree.steps", "corrections.c1.steps", "corrections.c2.steps",
    "corrections.separation_power_form.calls", "classical.integrate_flow.calls",
    "classical.integrate_flow.steps", "classical.q_at.calls",
    "grids.apply_radial_rfft.calls",
)
