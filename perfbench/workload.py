"""One benchmark workload, run in a fresh process by run.py.

It times `import semihartree` and the config parse, runs gated sweeps
until the measuring time is used up, each under the calibration sampler of
calibrate.py, checks the rows, and prints one JSON object on its last
stdout line.  With --trace 1 it alternates untraced and traced sweeps,
samples none of them, and adds the per-layer numbers and kernel timings.

    PYTHONPATH=src python3 perfbench/workload.py --workload rescaled --seed 0 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# mode and process count of each workload; README.md says why each exists
WORKLOADS = {
    "rescaled": ("rescaled", 1),
    "physical": ("physical", 1),
    "corrections-2": ("corrections-2", 1),
    "rescaled-jobs2": ("rescaled", 2),
}

# A nonzero seed jitters the initial phase-space point inside this box.
# Inside it every sweep passes the gate at the same levels and the physical
# grids keep the sizes of seed 0 (n=512 for eps 0.32..0.04, n=1024 at 0.02),
# so seeds vary the inputs but not the amount of work.
Q0_RANGE = (-0.05, 0.025)
P0_RANGE = (0.97, 1.03)

# Rows at seed 0 must match the reference rows within REF_RTOL (error and
# slope; dt and n exactly up to roundoff).  Rewrites on the roadmap move the
# errors by at most 1e-9 relative.
REF_RTOL = 1e-7
# The packet-frame and physical-frame errors are one quantity measured in
# two frames; at seed 0 they agree to 2e-7 relative or better.
CROSS_RTOL = 1e-5
# fitted rate of the corrections-2 residual: (K+1)/2 = 1.5 asymptotically,
# 1.37 over the default eps list
CORRECTIONS_2_SLOPE = (1.1, 1.8)


def config_text(workload: str, seed: int) -> str:
    doc = {"mode": WORKLOADS[workload][0]}
    if seed:
        rng = random.Random(seed)
        doc["q0"] = round(rng.uniform(*Q0_RANGE), 4)
        doc["p0"] = round(rng.uniform(*P0_RANGE), 4)
    return json.dumps(doc, sort_keys=True)


def _peak_rss_mib(jobs: int) -> float:
    """Peak RSS of this process plus `jobs` times the largest reaped worker."""
    import resource

    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs <= 1:
        return self_kib / 1024.0
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + jobs * child_kib) / 1024.0


def _timed_sweep(config, jobs: int):
    """(seconds, report, eps that failed or None) of one run_sweep call."""
    from semihartree import SweepError, run_sweep

    start = time.perf_counter()
    try:
        report, failed_eps = run_sweep(config, jobs=jobs), None
    except SweepError as exc:
        report, failed_eps = exc.report, exc.failed_eps
    return time.perf_counter() - start, report, failed_eps


def _row_key(row) -> tuple:
    return (row.epsilon, row.error, row.dt_used, row.n_used)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_rows(workload: str, seed: int, config, reports) -> tuple:
    """Check every sweep's rows; returns (bad eps set per sweep, messages).

    A datapoint is bad when it raised or failed the gate (no row), differs
    from the first sweep's row, misses the reference rows (seed 0), or
    disagrees with the same datapoint measured in the other frame.
    """
    from semihartree import parse_config, run_sweep, SweepError

    mode = config.mode
    eps_list = config.eps_list
    first = {r.epsilon: _row_key(r) for r in reports[0].rows}
    shared_bad, messages = set(), []

    rows = list(reports[0].rows)
    for r in rows:
        if not (r.error > 0 and r.error < float("inf")):
            shared_bad.add(r.epsilon)
            messages.append(f"eps={r.epsilon:g}: error {r.error!r} is not finite and positive")

    if seed == 0:
        reference = json.loads((HERE / "reference_seed0.json").read_text())[mode]
        by_eps = {r.epsilon: r for r in rows}
        for ref in reference["rows"]:
            r = by_eps.get(ref["epsilon"])
            if r is None:
                continue
            if not (_close(r.error, ref["error"], REF_RTOL)
                    and _close(r.dt_used, ref["dt"], 1e-12) and r.n_used == ref["n"]):
                shared_bad.add(r.epsilon)
                messages.append(f"eps={r.epsilon:g}: row {_row_key(r)} differs from "
                                f"reference {ref}")
        if len(rows) == len(eps_list) and not _close(
                reports[0].fitted_slope, reference["slope"], REF_RTOL):
            shared_bad.update(eps_list)
            messages.append(f"slope {reports[0].fitted_slope!r} differs from "
                            f"reference {reference['slope']!r}")

    if mode in ("rescaled", "physical") and rows:
        # the other frame: one physical datapoint (the cheapest grid) for a
        # packet-frame sweep, the whole packet-frame sweep for a physical one
        other_mode = "physical" if mode == "rescaled" else "rescaled"
        other_eps = eps_list[:1] if mode == "rescaled" else eps_list
        doc = json.loads(config_text(workload, seed))
        doc.update(mode=other_mode, eps_list=list(other_eps))
        try:
            other = run_sweep(parse_config(json.dumps(doc))).rows
        except SweepError as exc:
            other = exc.report.rows
            messages.append(f"cross-frame {other_mode} sweep failed: {exc}")
        other_by_eps = {r.epsilon: r.error for r in other}
        for r in rows:
            if r.epsilon not in other_eps:
                continue
            e = other_by_eps.get(r.epsilon)
            if e is None or not _close(r.error, e, CROSS_RTOL):
                shared_bad.add(r.epsilon)
                messages.append(f"eps={r.epsilon:g}: {mode} error {r.error!r} vs "
                                f"{other_mode} error {e!r}")

    if mode == "corrections-2" and len(rows) == len(eps_list):
        lo, hi = CORRECTIONS_2_SLOPE
        if not lo <= reports[0].fitted_slope <= hi:
            shared_bad.update(eps_list)
            messages.append(f"corrections-2 slope {reports[0].fitted_slope!r} "
                            f"outside [{lo}, {hi}]")

    bad_per_sweep = []
    for i, report in enumerate(reports):
        got = {r.epsilon: _row_key(r) for r in report.rows}
        bad = set(shared_bad)
        for eps in eps_list:
            if eps not in got:
                bad.add(eps)
                messages.append(f"sweep {i}: no row for eps={eps:g}")
            elif got[eps] != first.get(eps):
                bad.add(eps)
                messages.append(f"sweep {i}: row for eps={eps:g} differs from sweep 0")
        bad_per_sweep.append(bad)
    return bad_per_sweep, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", default=None,
                        help="write the spans and counters of the traced run here")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import semihartree
    t1 = time.perf_counter()
    config = semihartree.parse_config(config_text(args.workload, args.seed))
    t2 = time.perf_counter()

    import numpy
    import scipy

    import calibrate

    jobs = WORKLOADS[args.workload][1]
    out = {
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "semihartree": semihartree.__version__},
    }
    if args.trace:
        import kernels
        import tracing

    reports, failed_eps, untraced_s = [], [], []
    ref_s, calibration_s = [], []  # per untraced sweep, outside traced runs
    traced = []  # (seconds, layer metrics) per traced sweep
    first_trace = None

    # Sweeps repeat while at least half of the next one fits in --seconds,
    # so a run lasts --seconds give or take half a sweep.  Outside a traced
    # run each sweep runs under the calibration sampler of calibrate.py.
    out["job_s"] = calibrate.probe_s()  # scales this process's import and parse
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if args.trace:
            seconds, report, bad = _timed_sweep(config, jobs)
        else:
            with calibrate.Sampler() as sampler:
                seconds, report, bad = _timed_sweep(config, jobs)
            ref_s.append(sampler.reference_s(seconds))
            calibration_s.append(sampler.job_mean_s())
        untraced_s.append(seconds)
        reports.append(report)
        failed_eps.append(bad)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                with tracer.span(tracing.ROOT):
                    seconds, report, bad = _timed_sweep(config, jobs)
            finally:
                tracing.uninstall()
            reports.append(report)
            failed_eps.append(bad)
            traced.append((seconds, tracing.layer_metrics(tracer, len(report.rows))))
            first_trace = first_trace or tracer.export()
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) >= args.seconds:
            break
    if not args.trace:
        out["peak_rss_mb"] = _peak_rss_mib(jobs)

    bad_per_sweep, messages = check_rows(args.workload, args.seed, config, reports)
    for i, eps in enumerate(failed_eps):
        if eps is not None:
            messages.append(f"sweep {i} aborted at eps={eps:g}")
    out["attempted"] = len(reports) * len(config.eps_list)
    out["failed"] = sum(len(b) for b in bad_per_sweep)
    out["sweep_s"] = untraced_s
    out["sweep_ref_s"] = ref_s
    out["calibration_s"] = calibration_s
    out["rows"] = [_row_key(r) for r in reports[0].rows]

    if args.trace:
        layers = {}
        for name in traced[0][1]:
            values = [m[name] for _, m in traced]
            if name in tracing.EXACT_COUNTS and len(set(values)) > 1:
                messages.append(f"count {name} differs between traced sweeps: {values}")
                out["failed"] += len(config.eps_list)
            layers[name] = statistics.median(values)
        traced_s = statistics.median(s for s, _ in traced)
        layers["trace.sweep_s_untraced"] = statistics.median(untraced_s)
        layers["trace.sweep_s_traced"] = traced_s
        layers["trace.overhead_s"] = traced_s - statistics.median(untraced_s)
        layers.update(kernels.kernel_metrics(config))
        out["layers"] = layers
        if args.trace_out:
            spans, counters, pickled = first_trace
            Path(args.trace_out).write_text(json.dumps(
                {"spans": spans, "counters": counters, "pickled_bytes": pickled,
                 "layers": layers}, indent=1))

    out["messages"] = messages
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
