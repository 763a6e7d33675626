"""Physical-frame reference solver and assembly of the coherent-state
approximation for direct L^2 comparison.

The full mean-field dynamics is integrated on a grid fine enough to
resolve the fast carrier oscillation (Nyquist with a 4x margin) and wide
enough to contain the packet ten standard deviations out.  The comparison
pipeline runs the classical flow, the profile evolution, and the reference
solver on matched settings and reports the distance at the final time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._stepping import split_step_evolve, time_nodes
from .amplitude import AmplitudeState, evolve_beta
from .classical import ClassicalState, Trajectory, hessian_along_flow, integrate_flow
from .config import ExperimentConfig
from .errors import NumericalError
from .grids import (
    Grid,
    WaveFunction,
    WaveSeries,
    evaluate_trig_interpolant,
    l2_distance,
    make_grid,
    mean_field,
    physical_frame,
)
from .potentials import ExternalPotential, PairPotential

__all__ = [
    "HartreeRun",
    "ComparisonResult",
    "PhysicalLevel",
    "physical_level",
    "size_physical_grid",
    "build_coherent_state",
    "hartree_evolve",
    "assemble_approximation",
    "compare_evolution",
    "theorem_error",
]


@dataclass(frozen=True, eq=False)
class HartreeRun:
    """Reference-solver snapshots for one epsilon."""

    psi: WaveSeries
    epsilon: float
    grid: Grid
    norm_drift: float

    @property
    def final(self) -> WaveFunction:
        return self.psi.final


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
    return make_grid(n, q_lo - pad, q_hi + pad)


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
    # truncation level outside the window by the domain-sizing rule
    profile = np.zeros(grid.n, dtype=np.complex128)
    inside = (mu >= a0.grid.x_min) & (mu < a0.grid.x_max)
    profile[inside] = evaluate_trig_interpolant(a0, mu[inside])
    samples = epsilon ** (-0.25) * profile * np.exp(1j * p * (x - q) / epsilon)
    return WaveFunction(grid, samples, physical_frame(epsilon))


def hartree_evolve(psi0: WaveFunction, epsilon: float, phi: PairPotential,
                   U: ExternalPotential, T: float, dt: float, *,
                   store_times: Optional[Sequence[float]] = None) -> HartreeRun:
    """Strang-split integration of the mean-field dynamics, with the
    self-consistent potential rebuilt from |psi|^2 every step by
    `grids.mean_field` (two density moments for the cosine pair).

    U must be time independent, as every built-in is: U(x) is sampled
    once per run, at t = 0.  The potential phase max|w|*dt is still
    checked every step: above pi/2 a warning is issued, above pi the run
    aborts (the splitting would be meaningless).
    """
    if psi0.frame.kind != "physical" or psi0.frame.epsilon != epsilon:
        raise ValueError("initial state frame does not carry this epsilon")
    grid = psi0.grid
    convolve = mean_field(phi, grid, phi.separable)
    u = np.asarray(U.value(grid.points, 0.0), dtype=np.float64)
    inv_eps = 1.0 / epsilon
    warned = [False]

    def potential(t: float, density: np.ndarray) -> np.ndarray:
        w = (convolve(density) + u) * inv_eps
        phase = dt * float(np.abs(w).max())
        if phase > np.pi:
            raise NumericalError(
                f"potential phase per step {phase:.3f} rad exceeds pi at "
                f"t={t:.6g}; reduce dt"
            )
        if phase > 0.5 * np.pi and not warned[0]:
            warnings.warn(
                f"potential phase per step {phase:.3f} rad exceeds pi/2; "
                "accuracy is degraded", RuntimeWarning)
            warned[0] = True
        return w

    times, stored_t, data, drift = split_step_evolve(
        psi0.samples, grid, time_nodes(T, dt), potential, kinetic_scale=epsilon,
        store_times=store_times, label=f"hartree reference (eps={epsilon:g})",
    )
    series = WaveSeries(stored_t, grid, physical_frame(epsilon), data)
    return HartreeRun(series, float(epsilon), grid, float(drift))


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
class ComparisonResult:
    """Distance between the reference solution and the assembled
    approximation, at the final time and optionally along the way."""

    epsilon: float
    times: np.ndarray
    errors: np.ndarray
    final_error: float
    grid_n: int
    dt_used: float
    norm_drift: float


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
    idx = (np.unique(np.linspace(0, nodes.size - 1, min(trace_points, nodes.size)).astype(int))
           if trace_points > 0 else [nodes.size - 1])
    history = evolve_beta(config.initial_profile(), phi.second_deriv_at_0,
                          hessian_along_flow(trajectory, U), config.T, dt_amp,
                          store_times=nodes[idx])
    # copies, so that the level keeps no view of the history
    states = tuple(AmplitudeState(s.beta.with_samples(s.beta.samples.copy()), s.gamma, s.t)
                   for s in history)
    return PhysicalLevel(refine, dt_amp, trajectory, float(history.second_moments.max()),
                         float(history.spectral_spreads.max()), states)


def compare_evolution(epsilon: float, config: ExperimentConfig,
                      level: PhysicalLevel) -> ComparisonResult:
    """Run the full pipeline on matched settings for one epsilon, at the
    refinement of `level` (its refine divides every time step) and at
    each of its states' times."""
    # snap the solver step to an integer fraction of the profile step so the
    # two node sets coincide and states are compared at identical times
    target_phys = config.physical_dt(epsilon) / level.refine
    substeps = max(1, int(np.ceil(level.dt_amp / target_phys - 1e-9)))
    dt_phys = level.dt_amp / substeps
    grid = size_physical_grid(level.trajectory, epsilon, level.maxvar_x, level.maxvar_k)
    psi0 = build_coherent_state(config.initial_profile(), config.q0, config.p0,
                                epsilon, grid)
    trace_times = [amp.t for amp in level.states]
    run = hartree_evolve(psi0, epsilon, config.pair(), config.external(), config.T,
                         dt_phys, store_times=trace_times)

    errors = np.asarray([
        l2_distance(run.psi.at_time(amp.t, tol=1e-6),
                    assemble_approximation(amp, level.trajectory.state_at(amp.t),
                                           epsilon, grid))
        for amp in level.states])
    return ComparisonResult(
        epsilon=float(epsilon),
        times=np.asarray(trace_times),
        errors=errors,
        final_error=float(errors[-1]),
        grid_n=grid.n,
        dt_used=dt_phys,
        norm_drift=run.norm_drift,
    )


def theorem_error(epsilon: float, config: ExperimentConfig, *, refine: int = 1) -> float:
    """L^2 distance at the final time between the reference solution and
    the assembled coherent-state approximation."""
    return compare_evolution(epsilon, config, physical_level(config, refine)).final_error
