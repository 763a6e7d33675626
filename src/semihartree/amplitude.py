"""Evolution of the semiclassical packet profile in the rescaled frame.

Two equivalent descriptions are provided.  `evolve_beta` propagates the
profile under the quadratic mean-field coefficient kappa = phi''(0) plus
the Hessian of the external potential along the classical path, and
accumulates the nonlinear phase gamma alongside.  `b_potential` is the
potential of the phase-absorbed profile, which recomputes its
self-consistent quadratic term from the evolved density each step; the
two solutions agree up to the splitting order, which `lemma-check`
measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Callable

import numpy as np

from ._stepping import split_step_nodes, time_nodes
from .grids import (
    RESCALED,
    Grid,
    WaveFunction,
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
    "b_potential",
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
                T: float, dt: float, keep: Iterable[int] = ()) -> ProfileHistory:
    """Propagate the profile under the quadratic potential
    (kappa + hessU(t)) x^2 / 2 with Strang splitting, and the nonlinear
    phase gamma by the trapezoid rule on its rate -(kappa/2) * (second moment).

    Returns the states at the node indices `keep` of `time_nodes(T, dt)`
    and at the final node, in node order, and the spreads at every node,
    reduced on the fly from blocks of 128 nodes.  Fails loudly if the profile
    spreads into the guard band at the domain edges (inverted-oscillator
    growth outrunning the window).
    """
    if a0.frame != RESCALED:
        raise ValueError("profile evolution runs in the rescaled frame")
    grid = a0.grid
    x2_half = 0.5 * grid.points ** 2
    x2, k2 = grid.points ** 2, grid.wavenumbers ** 2
    nodes = time_nodes(T, dt)
    hess = np.broadcast_to(np.asarray(hessU_along_flow(nodes), dtype=np.float64), nodes.shape)

    def potential(j: int, _density: np.ndarray) -> np.ndarray:
        return (kappa + hess[j]) * x2_half

    keep = sorted({int(j) for j in keep} | {nodes.size - 1})
    if keep[0] < 0 or keep[-1] >= nodes.size:
        raise ValueError(f"keep holds node indices 0 ... {nodes.size - 1}")
    store_pos = {j: pos for pos, j in enumerate(keep)}
    data = np.empty((len(keep), grid.n), dtype=np.complex128)
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
    increments = -0.5 * kappa * 0.5 * (moments[:-1] + moments[1:]) * np.diff(nodes)
    gammas = np.concatenate(([0.0], np.cumsum(increments)))
    return ProfileHistory(grid, nodes[keep], data, gammas[keep], moments,
                          np.concatenate(spreads) * grid.dx / grid.n)


def b_potential(grid: Grid, kappa: float, hess: np.ndarray):
    """(j, |b|^2) -> (kappa/2) conv(r^2, |b|^2) + U''(t_j) x^2/2, the
    potential of the phase-absorbed profile b at node index j, rebuilt from
    b's density at every node (kappa/2 rides in the kernel table); `hess`
    holds U'' at the nodes."""
    x2_half = 0.5 * grid.points ** 2
    khat = 0.5 * kappa * radial_kernel_rfft(lambda r: r * r, grid)

    def potential(j: int, density: np.ndarray) -> np.ndarray:
        return apply_radial_rfft(khat, density, grid) + hess[j] * x2_half

    return potential

