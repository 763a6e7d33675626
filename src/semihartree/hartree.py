"""Physical-frame reference solver and assembly of the coherent-state
approximation for direct L^2 comparison.

The full mean-field dynamics is integrated on a grid fine enough to
resolve the fast carrier oscillation (Nyquist with a 4x margin) and wide
enough to contain the packet ten standard deviations out.  A level holds
the classical flow and the profile evolution at one refinement, and
`compare` runs the reference solver on matched settings for (eps, level)
pairs, one batch per grid size and up to one process per usable CPU, and
reports the distance at each of the level's states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ._stepping import fan_out, split_step_nodes, time_nodes, usable_cpus
from .amplitude import AmplitudeState, evolve_beta
from .classical import ClassicalState, Trajectory, integrate_flow
from .config import ExperimentConfig
from .errors import NumericalError
from .grids import (
    Grid,
    WaveFunction,
    l2_distance,
    make_grid,
    mean_field,
    physical_frame,
    radial_distances,
    trig_interpolant_on_run,
)
from .potentials import ExternalPotential, PairPotential

__all__ = [
    "PhysicalLevel",
    "physical_level",
    "size_physical_grid",
    "build_coherent_state",
    "assemble_approximation",
    "compare",
]


def _required_dx(epsilon: float, p: float) -> float:
    return np.pi * epsilon / (4.0 * max(abs(p), 1.0))


def size_physical_grid(trajectory: Trajectory, epsilon: float,
                       maxvar_x: float, maxvar_k: float) -> Grid:
    """Domain [q_min - W, q_max + W) with W = max(10 sqrt(eps*maxvar_x), 4);
    n is the smallest power of two resolving both the carrier (4x Nyquist
    margin on max |p|) and the packet's own bandwidth (10 spectral sigmas).
    """
    q_lo = float(np.min(trajectory.qs))
    q_hi = float(np.max(trajectory.qs))
    p_max = float(np.max(np.abs(trajectory.ps)))
    pad = max(10.0 * np.sqrt(epsilon * max(maxvar_x, 0.0)), 4.0)
    k_cut = 10.0 * np.sqrt(max(maxvar_k, 0.5))
    dx_max = min(_required_dx(epsilon, p_max), np.pi * np.sqrt(epsilon) / k_cut)
    length = (q_hi + pad) - (q_lo - pad)
    n = 64
    while length / n > dx_max:
        n *= 2
        if n > 2 ** 22:
            raise NumericalError(
                f"physical grid would need n > {2 ** 22} (eps={epsilon:g})"
            )
    x_lo, x_hi = q_lo - pad, q_hi + pad
    # Grid.points, which must rise strictly: far from 0 the pad is below the spacing of floats
    if not np.all(np.diff(x_lo + (x_hi - x_lo) / n * np.arange(n)) > 0):
        raise NumericalError(f"physical grid's {n} points on [{x_lo:g}, {x_hi:g}) "
                             f"collide in floating point (eps={epsilon:g})")
    return make_grid(n, x_lo, x_hi)


def build_coherent_state(a0: WaveFunction, q: float, p: float, epsilon: float,
                         grid: Grid) -> WaveFunction:
    """Squeeze the rescaled profile to spatial scale sqrt(eps) around q and
    modulate it with the carrier e^{i p (x-q)/eps}.

    The profile is evaluated by band-limited interpolation from its own
    grid, so any admissible profile (not just Gaussians) can be carried.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if a0.frame.kind != "rescaled":
        raise ValueError("profile for a coherent state must be in the rescaled frame")
    dx_req = _required_dx(epsilon, p)
    if grid.dx > dx_req * (1.0 + 1e-12):
        n_req = int(np.ceil(grid.length / dx_req))
        n_req += n_req % 2
        raise ValueError(
            f"grid too coarse for the carrier: dx={grid.dx:.3e} exceeds "
            f"{dx_req:.3e}; need n >= {n_req} on this domain"
        )
    x = grid.points
    mu = (x - q) / np.sqrt(epsilon)
    # evaluate only inside the profile's own window: its periodic images
    # must not leak into the physical domain, and the profile is below
    # truncation level outside the window by the domain-sizing rule.  mu
    # increases with x, so the inside points are one equispaced run
    profile = np.zeros(grid.n, dtype=np.complex128)
    inside = np.flatnonzero((mu >= a0.grid.x_min) & (mu < a0.grid.x_max))
    if inside.size:
        step = grid.dx / np.sqrt(epsilon)
        profile[inside] = trig_interpolant_on_run(a0, mu[inside[0]], step, inside.size)
    samples = epsilon ** (-0.25) * profile * np.exp(1j * p * (x - q) / epsilon)
    return WaveFunction(grid, samples, physical_frame(epsilon))


def _phase_bounds(runs: list, phi: PairPotential, u: np.ndarray) -> list:
    """2 dt (Phi N0 + max|u|) / eps per reference run (psi0, dt, ...), U at its points in `u`:
    twice a bound on max|w|*dt at every step, Phi bounding |phi| over the grid's separations
    (sum_k max|f_k| max|g_k| if separable) and N0 being psi0's squared norm."""
    peaks = [np.abs(phi(radial_distances(p.grid))).max() if phi.separable is None else np.prod(
        [np.abs(a).max(axis=-1) for a in phi.separable(p.grid.points)], axis=0).sum()
        for p, *_ in runs]
    return [2 * dt * (peak * np.vdot(p.samples, p.samples).real * p.grid.dx + np.abs(u_r).max())
            / p.frame.epsilon for (p, dt, *_), peak, u_r in zip(runs, peaks, u)]


def _reference_potential(runs: list, phi: PairPotential, U: ExternalPotential):
    """potential(j, density) of the mean-field dynamics of the held rows of a ragged batch
    of reference runs (psi0, dt, nodes, ...).  Each row's phase max|w|*dt is checked in row
    order, while a row whose `_phase_bounds` exceeds pi/2 is held: above pi/2 it warns
    (once), above pi the run aborts at the row's own time with `row` its index (the
    splitting would be meaningless)."""
    convolve = mean_field(phi, [psi0.grid for psi0, *_ in runs], phi.separable)
    u = np.array([U.value(psi0.grid.points) for psi0, *_ in runs], dtype=np.float64)
    inv_eps = np.array([[1.0 / psi0.frame.epsilon] for psi0, *_ in runs])
    dts, warned = np.array([dt for _, dt, *_ in runs]), [False] * len(runs)
    first = next((r for r, b in enumerate(_phase_bounds(runs, phi, u)) if b > np.pi / 2), len(runs))

    def potential(j: int, density: np.ndarray) -> np.ndarray:
        m = len(density)
        w = (convolve(density) + u[:m]) * inv_eps[:m]
        if m > first and (phases := dts[:m] * np.abs(w).max(axis=1)).max() > 0.5 * np.pi:
            for row, phase in enumerate(phases.tolist()):
                if phase > np.pi:
                    raise NumericalError(
                        f"potential phase per step {phase:.3f} rad exceeds pi at "
                        f"t={runs[row][2][j]:.6g}; reduce dt", row=row)
                if phase > 0.5 * np.pi and not warned[row]:
                    warnings.warn(
                        f"potential phase per step {phase:.3f} rad exceeds pi/2; "
                        "accuracy is degraded", RuntimeWarning)
                    warned[row] = True
        return w
    return potential


def assemble_approximation(amp: AmplitudeState, cls: ClassicalState,
                           epsilon: float, grid: Grid) -> WaveFunction:
    """Coherent state carried by the evolved profile at (q, p), multiplied
    by the global phase e^{i(action/eps + gamma)}."""
    if abs(amp.t - cls.t) > 1e-9 * max(1.0, abs(cls.t)):
        raise ValueError(
            f"time mismatch: profile at t={amp.t} vs trajectory at t={cls.t}"
        )
    state = build_coherent_state(amp.beta, cls.q, cls.p, epsilon, grid)
    phase = np.exp(1j * (cls.action / epsilon + amp.gamma))
    return state.with_samples(state.samples * phase)


@dataclass(frozen=True, eq=False)
class PhysicalLevel:
    """The eps-independent part of a comparison at one refinement level,
    shared by every eps of a sweep; `states` holds only the compared nodes."""

    refine: int
    dt_amp: float
    trajectory: Trajectory
    maxvar_x: float  # peak spreads over the run, which size each eps's grid
    maxvar_k: float
    states: tuple


def physical_level(config: ExperimentConfig, refine: int = 1,
                   trace_points: int = 0) -> PhysicalLevel:
    """Classical flow and profile evolution at step mu_dt/refine, keeping
    the final state, or `trace_points` states spread over the run (every
    node when there are fewer)."""
    phi = config.pair()
    U = config.external()
    dt_amp = config.mu_dt() / refine
    trajectory = integrate_flow(config.q0, config.p0, U, phi.value_at_0, config.T,
                                min(1e-3, dt_amp))
    nodes = time_nodes(config.T, dt_amp)
    idx = np.linspace(0, nodes.size - 1, max(0, min(trace_points, nodes.size))).astype(int)
    history = evolve_beta(config.initial_profile(), phi.second_deriv_at_0,
                          U.hess(trajectory.qs_at(nodes)), config.T, dt_amp, keep=idx)
    return PhysicalLevel(refine, dt_amp, trajectory, float(history.second_moments.max()),
                         float(history.spectral_spreads.max()), tuple(history))


def _reference_start(epsilon: float, config: ExperimentConfig, level: PhysicalLevel) -> tuple:
    """(initial state, step, nodes, {node index: state}) of the reference run
    for one eps at `level`; a state more than 1e-6 off every node raises ValueError."""
    # snap the solver step to an integer fraction of the profile step so the
    # two node sets coincide and states are compared at identical times
    target_phys = config.physical_dt(epsilon) / level.refine
    dt = level.dt_amp / max(1, int(np.ceil(level.dt_amp / target_phys - 1e-9)))
    grid = size_physical_grid(level.trajectory, epsilon, level.maxvar_x, level.maxvar_k)
    psi0 = build_coherent_state(config.initial_profile(), config.q0, config.p0,
                                epsilon, grid)
    nodes = time_nodes(config.T, dt)
    trace = {int(np.argmin(np.abs(nodes - amp.t))): amp for amp in level.states}
    for j, amp in trace.items():
        if abs(nodes[j] - amp.t) > 1e-6:
            raise ValueError(f"profile time {amp.t} is not a reference node")
    return psi0, dt, nodes, trace


def compare(pairs: Sequence[tuple], config: ExperimentConfig) -> list:
    """(errors, dt_used, grid_n, norm_drift) of each (eps, level) pair: the
    distance between the reference run and the assembled approximation at
    each of the level's states in order (the final one last), and the
    reference run's step, grid size and norm drift.  Each error is computed
    when the run visits its state's node, keeping no state.  The pairs of
    one grid size (of any levels) step as one ragged batch, longest first,
    each visited at its own states' nodes; the batches, in order and split
    by cost into a share per CPU this process may use, step here and in
    forked children (`fan_out`).  A failing pair raises as in one process, after the
    same warnings: NumericalError with `row` set to its list index."""
    phi, U, starts = config.pair(), config.external(), []
    for i, (eps, level) in enumerate(pairs):
        try:
            starts.append(_reference_start(eps, config, level))
        except NumericalError as exc:  # a grid that cannot be sized
            exc.row = i
            raise
    batches = [sorted((i for i, (psi0, *_) in enumerate(starts) if psi0.grid.n == n),
                      key=lambda i: -starts[i][2].size)  # longest first
               for n in dict.fromkeys(psi0.grid.n for psi0, *_ in starts)]

    def step(share: list) -> list:  # the (index, record) of a share's pairs, batch by batch
        records = []
        for batch in share:
            runs, errors = [starts[i] for i in batch], [[] for _ in batch]
            rows = split_step_nodes(
                [psi0.samples for psi0, *_ in runs], [psi0.grid for psi0, *_ in runs],
                [nodes for _, _, nodes, _ in runs], _reference_potential(runs, phi, U),
                [pairs[i][0] for i in batch], [trace for *_, trace in runs],
                [f"hartree reference (eps={pairs[i][0]:g})" for i in batch])
            try:  # each error when its node is visited; the run's return value is the drift
                while True:
                    j, psi = next(rows)
                    for r, (i, (psi0, _, _, trace)) in enumerate(zip(batch, runs[:len(psi)])):
                        if j in trace:  # a row not yet ended, at one of its states
                            (eps, level), amp = pairs[i], trace[j]
                            approx = assemble_approximation(
                                amp, level.trajectory.state_at(amp.t), eps, psi0.grid)
                            errors[r].append(l2_distance(psi0.with_samples(psi[r]), approx))
            except StopIteration as end:
                drifts = end.value.tolist()
            except NumericalError as exc:
                exc.row = batch[exc.row]
                raise
            for r, (i, (psi0, dt, *_)) in enumerate(zip(batch, runs)):
                records.append((i, (errors[r], dt, psi0.grid.n, drifts[r])))
        return records

    costs = np.array([starts[b[0]][0].grid.n * sum(starts[i][2].size for i in b) for b in batches])
    cpus = min(len(costs), usable_cpus())  # each batch to the share its cost midpoint falls in
    share_of = ((costs.cumsum() - costs / 2) * cpus // costs.sum()).tolist()
    shares = [[b for b, k in zip(batches, share_of) if k == s] for s in dict.fromkeys(share_of)]
    records = dict(record for share in fan_out([(partial(step, share), "hartree reference "
                   f"(n={starts[share[0][0]][0].grid.n})", min(share[0])) for share in shares])
                   for record in share)
    return [records[i] for i in range(len(pairs))]
