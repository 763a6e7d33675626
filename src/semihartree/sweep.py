"""Sweep orchestration: per-epsilon error measurement with a step-halving
convergence gate, log-log rate fitting, and CSV emission.

Every datapoint must change by less than 2% when all time steps are halved
before it is recorded; a datapoint that refuses to converge aborts the
sweep with the partial report.  One gate loop serves every mode; only the
level build and the evaluation of a wave of (eps, level) pairs (one ragged
batch of every level beside the builds of its levels' correction orders, or
one batch per physical grid size, side by side in forked processes) depend
on the mode.  CSV data sections are byte-stable for a fixed configuration;
wall-clock timings are excluded from that contract and live in a trailing
comment block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._stepping import fan_out, split_step_nodes, time_nodes
from .amplitude import B_LABEL, b_potential, evolve_beta, validate_initial_amplitude
from .classical import integrate_flow
from .config import ExperimentConfig
from .corrections import assemble_expansion, evolve_corrections
from .errors import ConfigError, NumericalError
from .grids import WaveFunction, gaussian_profile, l2_distance
from .hartree import compare, physical_level
from .rescaled import evolve_wave

__all__ = [
    "SweepRow",
    "SweepReport",
    "SweepError",
    "fit_rate",
    "run_sweep",
    "emit_report",
    "emit_gnuplot_script",
    "LemmaCheck",
    "lemma_check",
]

GATE_REL_TOL = 0.02
# absolute changes below this are treated as converged: configurations whose
# true error vanishes (exact-ansatz cases) sit at the solver floor and have
# no finite limit for a relative gate to find
GATE_ABS_FLOOR = 1e-7
MAX_GATE_DOUBLINGS = 3


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    error: float
    error_over_sqrt_eps: float
    dt_used: float
    n_used: int
    wall_ms: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    fitted_slope: float
    fit_r2: float
    mode: str


class SweepError(NumericalError):
    """A datapoint failed; carries the partial report and the failing epsilon."""

    def __init__(self, message: str, report: SweepReport, failed_eps: float):
        super().__init__(message)
        self.report = report
        self.failed_eps = failed_eps


def fit_rate(eps_values, errors):
    """Least-squares slope and r^2 of log(error) against log(epsilon)."""
    eps_values = np.asarray(eps_values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if eps_values.size < 2 or np.any(eps_values <= 0) or np.any(errors <= 0):
        return float("nan"), float("nan")
    x, y = np.log(eps_values), np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = (1.0 if ss_res < 1e-28 else 0.0) if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


# ---------------------------------------------------------------------------
# the step-halving gate


def _settled(err_prev: float, err: float) -> bool:
    return abs(err - err_prev) <= max(GATE_REL_TOL * abs(err), GATE_ABS_FLOOR)


def _row(eps: float, err: float, dt_used: float, n_used: int, wall_ms: float) -> SweepRow:
    return SweepRow(float(eps), float(err), float(err / np.sqrt(eps)),
                    float(dt_used), int(n_used), wall_ms)


# ---------------------------------------------------------------------------
# the (eps, level) pairs of every mode: `evaluate(config, pairs)` gives
# (error, dt, n) for each pair, or raises NumericalError with `row` set to
# the index of the failing pair (None: the first)


# correction orders evolved alongside the profile in each packet-frame mode
ORDERS = {"rescaled": 0, "corrections-1": 1, "corrections-2": 2}


def _build_level(config: ExperimentConfig, level: int) -> dict:
    """Epsilon-independent pieces of a packet-frame level: its dt and trajectory
    (b and the orders are evolved by the wave, or at K >= 1 built beside it)."""
    dt = config.mu_dt() / level
    return {"dt": dt, "trajectory": integrate_flow(
        config.q0, config.p0, config.external(), config.pair().value_at_0, config.T,
        min(1e-3, dt))}


def _packet_frame_errors(config: ExperimentConfig, pairs: list) -> list:
    """The pairs of a wave from one ragged evolution of the eps of every
    level, each level's profile too at K = 0, beside the builds of its
    levels' orders (`fan_out`: the builds in refine order, then the wave); a
    failing build (row None) or profile row names the wave's first pair."""
    K, batches = ORDERS[config.mode], {}
    for p, (_, shared) in enumerate(pairs):
        batches.setdefault(shared["dt"], []).append(p)
    owners = [p for batch in batches.values() for p in [0] * (K == 0) + batch]
    a0, phi, U, T = config.initial_profile(), config.pair(), config.external(), config.T

    def wave():  # a failing row names its pair
        try:
            return evolve_wave(a0, phi, U, T, [(pairs[batch[0]][1]["trajectory"], dt, [
                pairs[p][0] for p in batch]) for dt, batch in batches.items()], K == 0)
        except NumericalError as exc:
            exc.row = owners[exc.row]
            raise

    builds = [(partial(evolve_corrections, a0, phi, U, pairs[batch[0]][1]["trajectory"], T, dt,
                       K), f"corrections build (dt={dt:g})", None)
              for dt, batch in batches.items() if K]
    *built, finals = fan_out(builds + [(wave, "packet-frame wave", 0)])
    built, finals, results = iter(built), iter(finals), [None] * len(pairs)
    for dt, batch in batches.items():
        orders = next(built) if K else (next(finals),)
        for p in batch:
            error = l2_distance(next(finals), assemble_expansion(orders, K, pairs[p][0]))
            results[p] = (error, dt, config.mu_n)
    return results


def _physical_errors(config: ExperimentConfig, pairs: list) -> list:
    """(final error, dt, n) of the pairs from one `compare` call."""
    return [(errors[-1], dt, n) for errors, dt, n, _ in compare(pairs, config)]


def _gate_rows(config: ExperimentConfig, build, evaluate) -> SweepReport:
    """The report of the whole eps set gated in waves of (eps index, refine)
    pairs: the first wave holds levels 1 and 2 of every eps, each later one
    the next doubling of the eps still unsettled.  Each attempt at a wave
    builds its levels with `build(config, refine)`, in refine order (no level
    serves two waves).  Raises SweepError, from the exception of the first
    datapoint in list order that failed, with the rows before it.

    The outcome equals evaluating the eps one at a time in list order, level
    by level.  A failure at a pair drops it and every pair after it in
    (index, refine) order, and the wave reruns with the pairs left; a level
    build that fails, or a failure with no row, fails every pair of its
    wave.  So the datapoint that fails is the earliest, at its lowest
    failing level.  A row's wall_ms is its share of the time of every wave
    it took part in, level builds included, each wave's time split evenly
    over its eps.
    """
    eps_list = config.eps_list
    # (index, exception) of the earliest failing eps; the rows end at index
    failure = (len(eps_list), None)
    spent = [0.0] * len(eps_list)
    settled, errors = {}, {}

    def wave(pairs: list) -> None:
        nonlocal failure
        while pairs:
            start, levels = time.perf_counter(), {}
            try:
                for refine in dict.fromkeys(r for _, r in pairs):
                    levels[refine] = build(config, refine)
                errors.update(zip(pairs, evaluate(
                    config, [(eps_list[i], levels[r]) for i, r in pairs])))
                p = len(pairs)
            except NumericalError as exc:  # a level build fails the wave's first pair
                p = (exc.row or 0) if refine in levels else 0
                failure = (pairs[p][0], exc)
            held = dict.fromkeys(i for i, _ in pairs)
            share = (time.perf_counter() - start) * 1e3 / len(held)
            for i in held:
                spent[i] += share
            if p == len(pairs):
                return
            pairs = pairs[:p]

    def unsettled() -> list:
        return [i for i in range(failure[0]) if i not in settled]

    for k in range(1, MAX_GATE_DOUBLINGS + 1):  # the waves of levels (1, 2), 4, 8
        level = 2 ** k
        wave([(i, r) for i in unsettled() for r in ((1, 2) if k == 1 else (level,))])
        for i in unsettled():
            err, dt, n = errors[i, level]
            if _settled(errors[i, level // 2][0], err):
                settled[i] = _row(eps_list[i], err, dt, n, spent[i])
    active = unsettled()
    if active:
        eps = eps_list[active[0]]
        failure = (active[0], NumericalError(
            f"step-halving gate failed at eps={eps:g}: error still moving by "
            f"more than {GATE_REL_TOL:.0%} after {MAX_GATE_DOUBLINGS} halvings"))
    index, exc = failure
    report = _finish_report([settled[i] for i in range(index)], config.mode)
    if exc is not None:
        eps = eps_list[index]
        raise SweepError(f"sweep aborted at eps={eps:g}: {exc}", report, eps) from exc
    return report


def check_initial_profile(config: ExperimentConfig) -> None:
    """ConfigError when the packet-frame grid cannot hold the initial profile."""
    report = validate_initial_amplitude(config.initial_profile())
    failed = [f"{name} {value:.3g}" for name, value in (
        ("norm defect", report.norm_defect), ("first moment", report.first_moment),
        ("spectral first moment", report.fourier_first_moment))
        if not abs(value) <= report.tolerance]
    if failed:
        raise ConfigError(
            f"grid.mu_n/grid.mu_halfwidth ({config.mu_n} cells on +-{config.mu_halfwidth:g}) "
            f"cannot hold the initial profile: {', '.join(failed)} above {report.tolerance:g}")


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> SweepReport:
    """Measure the error at every epsilon in the configured mode, fit the
    log-log rate, and return the report (rows sorted by descending epsilon).

    Every mode gates its eps in waves of (eps, level) pairs over levels
    built by the one wave that needs them: levels 1 and 2 of every eps,
    then each doubling of those unsettled.  The packet-frame modes step a
    wave as one ragged batch, at K >= 1 beside the builds of its levels'
    orders, one process per task; physical mode steps the pairs of one grid
    size as one batch, and its batches on up to the CPUs this process may
    use.  With one usable CPU everything runs in this process, with the
    same rows and errors.  `jobs` is ignored.

    Raises ConfigError if jobs < 1 or the grid cannot hold the initial
    profile, before any level is built, and SweepError with the partial
    report (the rows before the first failed eps in list order) if any fails.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    check_initial_profile(config)
    build, evaluate = ((physical_level, _physical_errors) if config.mode == "physical"
                       else (_build_level, _packet_frame_errors))
    return _gate_rows(config, build, evaluate)


def _finish_report(rows, mode: str) -> SweepReport:
    rows = tuple(sorted(rows, key=lambda r: -r.epsilon))
    slope, r2 = (fit_rate([r.epsilon for r in rows], [r.error for r in rows])
                 if len(rows) >= 3 else (float("nan"), float("nan")))
    return SweepReport(rows, slope, r2, mode)


# ---------------------------------------------------------------------------
# report emission


def _fmt(x: float) -> str:
    return repr(float(x))


def render_report(report: SweepReport) -> str:
    """CSV text: header, one row per epsilon (wall_ms field left empty so
    the data section is deterministic), then a comment block with the
    fitted rate, the rates between adjacent rows and the wall times."""
    lines = ["epsilon,error,error_over_sqrt_eps,dt,n,wall_ms"]
    for r in report.rows:
        lines.append(",".join([
            _fmt(r.epsilon), _fmt(r.error), _fmt(r.error_over_sqrt_eps),
            _fmt(r.dt_used), str(r.n_used), "",
        ]))
    lines.append(f"# slope={_fmt(report.fitted_slope)} r2={_fmt(report.fit_r2)}")
    if len(report.rows) >= 2:
        slopes = (fit_rate([a.epsilon, b.epsilon], [a.error, b.error])[0]
                  for a, b in zip(report.rows, report.rows[1:]))
        lines.append("# local_slopes: " + " ".join(_fmt(s) for s in slopes))
    if report.rows:
        walls = " ".join(f"{_fmt(r.epsilon)}={r.wall_ms:.1f}" for r in report.rows)
        lines.append(f"# wall_ms: {walls}")
    return "\n".join(lines) + "\n"


def emit_report(report: SweepReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report(report))


def emit_gnuplot_script(csv_path, script_path) -> None:
    """Companion gnuplot script plotting error against epsilon on log axes."""
    text = (
        "set logscale xy\n"
        "set xlabel 'epsilon'\n"
        "set ylabel 'L2 error'\n"
        "set datafile separator ','\n"
        "set key left top\n"
        f"plot '{csv_path}' every ::1 using 1:2 with linespoints title 'error', \\\n"
        f"     '{csv_path}' every ::1 using 1:(column(3)) with linespoints "
        "title 'error/sqrt(eps)'\n"
    )
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# two-solver profile cross-check (phase-absorbed vs phase-accumulating)


# deviations below this are indistinguishable from accumulated roundoff;
# an order measured between two such values carries no information
ORDER_FLOOR = 1e-10


@dataclass(frozen=True)
class LemmaCheck:
    probe_times: tuple
    deviations: tuple
    deviations_half: tuple
    measured_order: float  # nan when both deviations sit at the roundoff floor
    dt: float

    @property
    def order_ok(self) -> bool:
        """Second-order (or better) agreement between the two profile routes.

        Machine-level agreement at both steps is stronger than any finite
        order, so it passes; an order is only demanded when there is a
        resolvable discretization gap to converge.
        """
        if np.isnan(self.measured_order):
            return True
        return self.measured_order >= 1.8


def _crosscheck_deviations(kappa: float, T: float, dt: float, probe_times: tuple) -> tuple:
    """Distance of the phase-absorbed profile b from e^{i gamma} times the
    plain profile at the node nearest each probe time, with U'' = 0 on the
    default packet-frame grid (DEFAULT_MU_N cells on +-DEFAULT_MU_HALFWIDTH).
    b is visited at every node, so that no two of its half phases fuse;
    only the probe nodes of either run are kept."""
    grid = ExperimentConfig().mu_grid()
    a0 = gaussian_profile(grid)
    nodes = time_nodes(T, dt)
    hess = np.zeros(nodes.size)
    probes = [int(np.argmin(np.abs(nodes - t))) for t in probe_times]  # shared node sets
    phased = {int(np.searchsorted(nodes, s.t)): np.exp(1j * s.gamma) * s.beta.samples
              for s in evolve_beta(a0, kappa, hess, T, dt, keep=probes)}
    b = {j: WaveFunction(grid, psi) for j, (psi,) in split_step_nodes(
        [a0.samples], [grid], [nodes], b_potential(grid, kappa, hess), [1.0],
        [range(nodes.size)], [B_LABEL]) if j in phased}
    return tuple(l2_distance(b[i], WaveFunction(grid, phased[i])) for i in probes)


def lemma_check(kappa: float = -1.0, T: float = 1.0, dt: float = 1e-3) -> LemmaCheck:
    """Compare the phase-absorbed profile against e^{i gamma} times the
    plain profile at the probe times T/4, T/2 and T, and measure the order
    at which the two discretizations approach each other under step
    halving."""
    probe_times = (T / 4.0, T / 2.0, T)
    devs = _crosscheck_deviations(kappa, T, dt, probe_times)
    devs_half = _crosscheck_deviations(kappa, T, dt / 2.0, probe_times)
    floor = max(devs[-1], devs_half[-1]) <= ORDER_FLOOR
    order = float("nan") if floor else float(np.log2(devs[-1] / devs_half[-1]))
    return LemmaCheck(probe_times, devs, devs_half, order, dt)
