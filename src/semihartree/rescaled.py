"""Exact packet-frame amplitude solver.

Working in the frame co-moving with the classical trajectory removes the
fast oscillation, so the grid requirements are uniform in the
semiclassical parameter: the same mesh serves every epsilon in a sweep,
and a sweep evolves all of its epsilons together as one (m, n) batch.
The residual against the quadratic-model profile (the K = 0 expansion of
the corrections) is the cheapest way to measure the approximation error.
Its potential, from per-level tables, keeps U's Taylor remainder around
the path exact, with no truncation.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ._stepping import split_step_nodes, tabulate, time_nodes
from .classical import Trajectory
from .grids import (
    RESCALED,
    Grid,
    WaveFunction,
    apply_radial_rfft,
    radial_kernel_rfft,
)
from .potentials import ExternalPotential, PairPotential

__all__ = ["evolve_rescaled_finals"]


def _packet_frame_potential(grid: Grid, epsilons: np.ndarray, phi: PairPotential,
                            U: ExternalPotential, trajectory: Trajectory,
                            times: np.ndarray):
    """Per-step potential for a column of epsilons, one row each.

    It combines the mean-field term (1/eps) * conv(phi(sqrt(eps) r) - phi(0),
    |a|^2) with the external bracket
    (1/eps) * [U(q + sqrt(eps) mu) - U(q) - sqrt(eps) U'(q) mu], both without
    Taylor truncation so the residual measures the approximation itself.  U's
    addition form gives the bracket from tables: its remainders at sqrt(eps) mu
    over eps, and their coefficients at the step nodes `times`; 1/eps rides in
    the kernels.  U without one (cubic_window) is evaluated at every step.
    """
    mu = grid.points
    root_eps = np.sqrt(epsilons)[:, None]
    inv_eps = 1.0 / epsilons[:, None]
    khat = np.stack([radial_kernel_rfft(lambda r, s=s: phi.shifted(s * r), grid)
                     for s in root_eps[:, 0]])
    if U.addition is None:
        q_at = tabulate(trajectory.qs_at, times)
        def potential(t: float, density: np.ndarray) -> np.ndarray:
            mean_field = apply_radial_rfft(khat, density, grid)
            q = q_at(t)
            bracket = (np.asarray(U.value(q + root_eps * mu), dtype=np.float64)
                       - float(U.value(q)) - root_eps * float(U.grad(q)) * mu)
            return inv_eps * (mean_field + bracket)
    else:
        khat *= inv_eps
        remainders, coeffs = U.addition(root_eps * mu)
        remainders = (remainders * inv_eps).reshape(-1, epsilons.size * grid.n)
        coeff_at = tabulate(lambda nodes: coeffs(trajectory.qs_at(nodes)), times)
        def potential(t: float, density: np.ndarray) -> np.ndarray:
            return (apply_radial_rfft(khat, density, grid)
                    + (coeff_at(t) @ remainders).reshape(density.shape))

    return potential


def evolve_rescaled_finals(a0: WaveFunction, epsilons: Sequence[float],
                           phi: PairPotential, U: ExternalPotential,
                           trajectory: Trajectory, T: float,
                           dt: float) -> List[WaveFunction]:
    """Final packet-frame amplitude (see `_packet_frame_potential`) for each
    epsilon, Strang-split from `a0` as one (len(epsilons), n) batch that
    keeps only the final node.  A guard failure raises NumericalError
    naming the lowest failing row's epsilon, with its index as `row`."""
    epsilons = np.asarray(epsilons, dtype=np.float64)
    if np.any(epsilons <= 0):
        raise ValueError("epsilon must be positive")
    if a0.frame != RESCALED:
        raise ValueError("initial amplitude must be in the rescaled frame")
    if trajectory.times[-1] < T - 1e-9:
        raise ValueError("trajectory does not cover [0, T]")

    grid = a0.grid
    nodes = time_nodes(T, dt)
    potential = _packet_frame_potential(grid, epsilons, phi, U, trajectory, nodes)
    _, finals = next(split_step_nodes(
        np.broadcast_to(a0.samples, (epsilons.size, grid.n)), grid, nodes, potential,
        visit=(nodes.size - 1,), label=[f"rescaled amplitude (eps={e:g})" for e in epsilons]))
    return [WaveFunction(grid, row, RESCALED) for row in finals]
