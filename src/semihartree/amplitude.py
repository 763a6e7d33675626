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
from collections.abc import Sequence
from typing import Callable, Optional

import numpy as np

from ._stepping import (_resolve_store, split_step_evolve, split_step_nodes, tabulate,
                        time_nodes)
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
    "ProfileHistory",
    "evolve_beta",
    "gamma_step",
    "b_potential",
    "evolve_b",
]

HessFn = Callable[[np.ndarray], np.ndarray]  # node times -> U'' along the path
B_LABEL = "phase-absorbed profile evolution"


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


def validate_initial_amplitude(a0: WaveFunction) -> InitialDataReport:
    """Report how well a candidate initial profile satisfies the standing
    assumptions, each to within 1e-6; never raises."""
    if a0.frame != RESCALED:
        raise ValueError("initial profile must be in the rescaled frame")
    defect = abs(l2_norm(a0) - 1.0)
    fm = first_moment(a0)
    km = fourier_first_moment(a0)
    moments = tuple(abs_moment(a0, m) for m in range(4))
    tol = 1e-6
    passed = defect <= tol and abs(fm) <= tol and abs(km) <= tol
    return InitialDataReport(defect, fm, km, moments, tol, passed)


def _phase_increments(kappa: float, moments: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The nonlinear phase gained over each step between `times`: trapezoid
    quadrature of -(kappa/2) * (second moment) on the step's two nodes."""
    return -0.5 * kappa * 0.5 * (moments[:-1] + moments[1:]) * np.diff(times)


def gamma_step(beta_prev: WaveFunction, beta_next: WaveFunction, kappa: float,
               dt: float, previous: float) -> float:
    """Advance the nonlinear phase across one step of length dt."""
    moments = np.array([abs_moment(beta_prev, 1), abs_moment(beta_next, 1)])
    return previous + float(_phase_increments(kappa, moments, np.array([0.0, dt]))[0])


@dataclass(frozen=True, eq=False)
class ProfileHistory(Sequence):
    """Profile states at the stored nodes of one run, read from one
    read-only (stored nodes, n) array: indexing builds an `AmplitudeState`
    whose samples are a view of its row; a slice gives a list.  The two
    spreads cover every node of the run, stored or not."""

    grid: Grid
    times: np.ndarray
    data: np.ndarray
    gammas: np.ndarray
    second_moments: np.ndarray  # integral of x^2 |beta|^2 dx at each node
    spectral_spreads: np.ndarray  # integral of k^2 |beta hat|^2 dk at each node

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return AmplitudeState(WaveFunction(self.grid, self.data[i], RESCALED),
                              float(self.gammas[i]), float(self.times[i]))


def evolve_beta(a0: WaveFunction, kappa: float, hessU_along_flow: HessFn,
                T: float, dt: float = DEFAULT_MU_DT,
                store_times: Optional[Sequence[float]] = None) -> ProfileHistory:
    """Propagate the profile under the quadratic potential
    (kappa + hessU(t)) x^2 / 2 with Strang splitting, and the nonlinear
    phase by the quadrature of `gamma_step` on the same nodes.

    Returns the states at the nodes nearest `store_times` (every node by
    default; the final node always) and the spreads at every node, reduced
    on the fly from blocks of 128 nodes.  Fails loudly if the profile
    spreads into the guard band at the domain edges (inverted-oscillator
    growth outrunning the window).
    """
    if a0.frame != RESCALED:
        raise ValueError("profile evolution runs in the rescaled frame")
    grid = a0.grid
    x2_half = 0.5 * grid.points ** 2
    x2, k2 = grid.points ** 2, grid.wavenumbers ** 2
    nodes = time_nodes(T, dt)
    hess_at = tabulate(hessU_along_flow, nodes)

    def potential(t: float, _density: np.ndarray) -> np.ndarray:
        return (kappa + hess_at(t)) * x2_half

    store_idx = _resolve_store(nodes, store_times)
    store_pos = {j: pos for pos, j in enumerate(store_idx.tolist())}
    data = np.empty((store_idx.size, grid.n), dtype=np.complex128)
    block = np.empty((128, grid.n), dtype=np.complex128)  # bounds the temporaries
    moments, spreads = [], []
    for j, psi in split_step_nodes(a0.samples, grid, nodes, potential,
                                   visit=range(nodes.size), label="profile evolution"):
        if j in store_pos:
            data[store_pos[j]] = psi
        block[j % 128] = psi
        if j % 128 == 127 or j == nodes.size - 1:
            rows = block[:j % 128 + 1]
            moments.append(np.abs(rows) ** 2 @ x2)
            spreads.append(np.abs(np.fft.fft(rows)) ** 2 @ k2)
    data.flags.writeable = False
    moments = np.concatenate(moments) * grid.dx
    gammas = np.concatenate(([0.0], np.cumsum(_phase_increments(kappa, moments, nodes))))
    return ProfileHistory(grid, nodes[store_idx], data, gammas[store_idx], moments,
                          np.concatenate(spreads) * grid.dx / grid.n)


def b_potential(grid: Grid, kappa: float, hess_at: Callable[[float], float]):
    """(t, |b|^2) -> (kappa/2) conv(r^2, |b|^2) + U''(t) x^2/2, the
    potential of the phase-absorbed profile b, rebuilt from b's density at
    every node; `hess_at` looks U'' up at the node times."""
    x2_half = 0.5 * grid.points ** 2
    khat = radial_kernel_rfft(lambda r: r * r, grid)
    half_kappa = 0.5 * kappa

    def potential(t: float, density: np.ndarray) -> np.ndarray:
        return (half_kappa * apply_radial_rfft(khat, density, grid)
                + hess_at(t) * x2_half)

    return potential


def evolve_b(a0: WaveFunction, kappa: float, hessU_along_flow: HessFn,
             T: float, dt: float = DEFAULT_MU_DT) -> WaveSeries:
    """Integrate the phase-absorbed profile equation directly under
    `b_potential`, stored at every node."""
    if a0.frame != RESCALED:
        raise ValueError("profile evolution runs in the rescaled frame")
    grid = a0.grid
    nodes = time_nodes(T, dt)
    potential = b_potential(grid, kappa, tabulate(hessU_along_flow, nodes))
    times, _, data, _drift = split_step_evolve(a0.samples, grid, nodes, potential,
                                               label=B_LABEL)
    return WaveSeries(times, grid, RESCALED, data)
