"""Evolution of the semiclassical packet profile in the rescaled frame.

Two equivalent descriptions are provided.  `evolve_beta` propagates the
profile under the quadratic mean-field coefficient kappa = phi''(0) plus
the Hessian of the external potential along the classical path, and
accumulates the nonlinear phase gamma alongside.  `evolve_b` integrates
the phase-absorbed profile directly, recomputing its self-consistent
quadratic term from the evolved density each step; the two solutions
agree up to the splitting order, which the cross-check tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ._stepping import split_step_evolve, tabulate, time_nodes
from .config import DEFAULT_MU_DT
from .grids import (
    RESCALED,
    Grid,
    WaveFunction,
    WaveSeries,
    abs_moment,
    apply_radial_rfft,
    first_moment,
    fourier_first_moment,
    l2_norm,
    radial_kernel_rfft,
)

__all__ = [
    "AmplitudeState",
    "InitialDataReport",
    "validate_initial_amplitude",
    "evolve_beta",
    "gamma_step",
    "evolve_b",
]

HessFn = Callable[[np.ndarray], np.ndarray]  # node times -> U'' along the path


@dataclass(frozen=True, eq=False)
class AmplitudeState:
    """Profile snapshot with its accumulated nonlinear phase."""

    beta: WaveFunction
    gamma: float
    t: float


@dataclass(frozen=True)
class InitialDataReport:
    """Checks of the initial-profile assumptions: unit norm and centered
    first moments in both position and spectral variables."""

    norm_defect: float
    first_moment: float
    fourier_first_moment: float
    abs_moments: tuple
    tolerance: float
    passed: bool


def validate_initial_amplitude(a0: WaveFunction, tolerance: float = 1e-6) -> InitialDataReport:
    """Report how well a candidate initial profile satisfies the standing
    assumptions; never raises."""
    if a0.frame != RESCALED:
        raise ValueError("initial profile must be in the rescaled frame")
    defect = abs(l2_norm(a0) - 1.0)
    fm = first_moment(a0)
    km = fourier_first_moment(a0)
    moments = tuple(abs_moment(a0, m) for m in range(4))
    passed = defect <= tolerance and abs(fm) <= tolerance and abs(km) <= tolerance
    return InitialDataReport(defect, fm, km, moments, tolerance, passed)


def gamma_step(beta_prev: WaveFunction, beta_next: WaveFunction, kappa: float,
               dt: float, previous: float) -> float:
    """Advance the nonlinear phase across one step: trapezoidal quadrature
    of -(kappa/2) * abs_moment(beta, 1) on the step's two nodes."""
    m0 = abs_moment(beta_prev, 1)
    m1 = abs_moment(beta_next, 1)
    return previous - 0.5 * kappa * 0.5 * (m0 + m1) * dt


def _second_moments(data: np.ndarray, grid: Grid) -> np.ndarray:
    x2 = grid.points ** 2
    return (np.abs(data) ** 2 @ x2) * grid.dx


def evolve_beta(a0: WaveFunction, kappa: float, hessU_along_flow: HessFn,
                T: float, dt: float = DEFAULT_MU_DT, *,
                guard_cells: int = 12, guard_mass: float = 1e-8) -> List[AmplitudeState]:
    """Propagate the profile under the quadratic potential
    (kappa + hessU(t)) x^2 / 2 with Strang splitting, co-accumulating the
    nonlinear phase by `gamma_step` on the same nodes.

    Returns the state at every node.  Fails loudly if the profile spreads
    into the guard band at the domain edges (inverted-oscillator growth
    outrunning the window).
    """
    if a0.frame != RESCALED:
        raise ValueError("profile evolution runs in the rescaled frame")
    grid = a0.grid
    x2_half = 0.5 * grid.points ** 2
    hess_at = tabulate(hessU_along_flow, time_nodes(T, dt))

    def potential(t: float, _samples: np.ndarray) -> np.ndarray:
        return (kappa + hess_at(t)) * x2_half

    times, _, data, _drift = split_step_evolve(
        a0.samples, grid, T, dt, potential,
        guard_cells=guard_cells, guard_mass=guard_mass, label="profile evolution",
    )
    moments = _second_moments(data, grid)
    states = [AmplitudeState(WaveFunction(grid, data[0], RESCALED), 0.0, float(times[0]))]
    gamma = 0.0
    for j in range(1, times.size):
        h = times[j] - times[j - 1]
        gamma = gamma - 0.5 * kappa * 0.5 * (moments[j - 1] + moments[j]) * h
        states.append(AmplitudeState(WaveFunction(grid, data[j], RESCALED),
                                     float(gamma), float(times[j])))
    return states


def evolve_b(a0: WaveFunction, kappa: float, hessU_along_flow: HessFn,
             T: float, dt: float = DEFAULT_MU_DT, *,
             guard_cells: int = 12, guard_mass: float = 1e-8) -> WaveSeries:
    """Integrate the phase-absorbed profile equation directly: the
    quadratic interaction term (kappa/2) * conv(|x - y|^2, |b|^2) is
    rebuilt from the evolved density at every evaluation."""
    if a0.frame != RESCALED:
        raise ValueError("profile evolution runs in the rescaled frame")
    grid = a0.grid
    x2_half = 0.5 * grid.points ** 2
    khat = radial_kernel_rfft(lambda r: r * r, grid)
    half_kappa = 0.5 * kappa
    hess_at = tabulate(hessU_along_flow, time_nodes(T, dt))

    def potential(t: float, samples: np.ndarray) -> np.ndarray:
        density = samples.real ** 2 + samples.imag ** 2
        return (half_kappa * apply_radial_rfft(khat, density, grid)
                + hess_at(t) * x2_half)

    times, _, data, _drift = split_step_evolve(
        a0.samples, grid, T, dt, potential,
        guard_cells=guard_cells, guard_mass=guard_mass,
        label="phase-absorbed profile evolution",
    )
    return WaveSeries(times, grid, RESCALED, data)
