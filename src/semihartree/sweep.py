"""Sweep orchestration: per-epsilon error measurement with a step-halving
convergence gate, log-log rate fitting, and CSV emission.

Every datapoint must change by less than 2% when all time steps are halved
before it is recorded; a datapoint that refuses to converge aborts the
sweep with the partial report.  One gate loop serves every mode; only the
level build and the evaluation of a wave of (eps, level) pairs (one ragged
batch of every level, or one batch per physical grid size) depend on the
mode.  CSV data sections are byte-stable for a fixed configuration;
wall-clock timings are excluded from that contract and live in a trailing
comment block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._stepping import split_step_nodes, time_nodes
from .amplitude import B_LABEL, b_potential, evolve_beta
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
# the index of the failing pair


# correction orders evolved alongside the profile in each packet-frame mode
ORDERS = {"rescaled": 0, "corrections-1": 1, "corrections-2": 2}


def _build_level(config: ExperimentConfig, level: int) -> dict:
    """Epsilon-independent pieces of a packet-frame level: the trajectory,
    and at K >= 1 the final profile and correction orders (the wave
    evolves the K = 0 profile)."""
    phi, U, T, K = config.pair(), config.external(), config.T, ORDERS[config.mode]
    dt = config.mu_dt() / level
    trajectory = integrate_flow(config.q0, config.p0, U, phi.value_at_0, T, min(1e-3, dt))
    if K == 0:
        return {"trajectory": trajectory, "dt": dt}
    return {"trajectory": trajectory, "dt": dt, "corrections": evolve_corrections(
        config.initial_profile(), phi, U, trajectory, T, dt, K)}


def _packet_frame_errors(config: ExperimentConfig, pairs: list) -> list:
    """The pairs of a wave from one ragged evolution of the eps of every
    level, each level's profile too at K = 0; a failing profile row fails
    its level, as a failing build does, so it names the wave's first pair."""
    K, batches = ORDERS[config.mode], {}
    for p, (_, shared) in enumerate(pairs):
        batches.setdefault(shared["dt"], []).append(p)
    owners = [p for batch in batches.values() for p in [0] * (K == 0) + batch]
    try:
        finals = iter(evolve_wave(
            config.initial_profile(), config.pair(), config.external(), config.T,
            [(pairs[batch[0]][1]["trajectory"], dt, [pairs[p][0] for p in batch])
             for dt, batch in batches.items()], K == 0))
    except NumericalError as exc:
        exc.row = owners[exc.row]
        raise
    results = [None] * len(pairs)
    for dt, batch in batches.items():
        orders = (next(finals),) if K == 0 else pairs[batch[0]][1]["corrections"]
        for p in batch:
            error = l2_distance(next(finals), assemble_expansion(orders, K, pairs[p][0]))
            results[p] = (error, dt, config.mu_n)
    return results


def _physical_errors(config: ExperimentConfig, pairs: list) -> list:
    """(final error, dt, n) of the pairs from one `compare` call (one batch
    per grid size)."""
    return [(errors[-1], dt, n) for errors, dt, n, _ in compare(pairs, config)]


def _gate_rows(config: ExperimentConfig, build, evaluate) -> tuple:
    """(rows, failure) from the whole eps set gated in waves of (eps index,
    refine) pairs: the first wave holds levels 1 and 2 of every eps, each
    later one the next doubling of the eps still unsettled.  A wave builds
    each level it is the first to need with `build(config, refine)`, in
    refine order.  failure is (eps, exception) of the first datapoint in
    list order that failed, or None.

    The outcome equals evaluating the eps one at a time in list order, level
    by level.  A failure at a pair drops it and every pair after it in
    (index, refine) order, and the wave reruns with the pairs left; a level
    build that fails fails every pair of its wave.  So the datapoint that
    fails is the earliest, at its lowest failing level.  A row's wall_ms is
    its share of the time of every wave it took part in, level builds
    included, each wave's time split evenly over its eps.
    """
    eps_list = config.eps_list
    # (index, exception) of the earliest failing eps; the rows end at index
    failure = (len(eps_list), None)
    spent = [0.0] * len(eps_list)
    levels, settled, errors = {}, {}, {}

    def wave(pairs: list) -> None:
        nonlocal failure
        while pairs:
            start = time.perf_counter()
            try:
                for refine in dict.fromkeys(r for _, r in pairs):
                    if refine not in levels:
                        levels[refine] = build(config, refine)
            except NumericalError as exc:
                # a level build fails every pair of the wave, whichever of
                # its own rows raised
                failure, p = (pairs[0][0], exc), 0
            else:
                try:
                    errors.update(zip(pairs, evaluate(
                        config, [(eps_list[i], levels[r]) for i, r in pairs])))
                    p = len(pairs)
                except NumericalError as exc:
                    p = exc.row or 0
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

    rows = [settled[i] for i in range(failure[0])]
    return rows, None if failure[1] is None else (eps_list[failure[0]], failure[1])


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> SweepReport:
    """Measure the error at every epsilon in the configured mode, fit the
    log-log rate, and return the report (rows sorted by descending epsilon).

    Every mode gates its eps in waves of (eps, level) pairs over levels
    built once per call, each in the first wave that needs it: levels 1
    and 2 of every eps, then each doubling of those unsettled.  The
    packet-frame modes step a wave as one ragged batch, and physical mode
    steps the pairs of one grid size in a wave as one batch.  `jobs` is
    checked and otherwise ignored: every mode runs in this process.

    Raises ConfigError if jobs < 1, and SweepError with the partial report
    (the rows before the first eps in list order that failed) if any
    datapoint fails.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    build, evaluate = ((physical_level, _physical_errors) if config.mode == "physical"
                       else (_build_level, _packet_frame_errors))
    rows, failure = _gate_rows(config, build, evaluate)
    report = _finish_report(rows, config.mode)
    if failure is not None:
        eps, exc = failure
        raise SweepError(f"sweep aborted at eps={eps:g}: {exc}", report, eps) from exc
    return report


def _finish_report(rows, mode: str) -> SweepReport:
    rows = tuple(sorted(rows, key=lambda r: -r.epsilon))
    if len(rows) >= 3:
        slope, r2 = fit_rate([r.epsilon for r in rows], [r.error for r in rows])
    else:
        slope, r2 = float("nan"), float("nan")
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
