"""Exact packet-frame amplitude solver.

The frame co-moving with the classical trajectory removes the fast
oscillation, so one mesh serves every epsilon.  A wave of levels steps as
one ragged batch: each level's epsilons on its dt nodes and, at K = 0, the
quadratic-model profile b on its dt/2 nodes, whose residual is the
cheapest measure of the approximation error.  One convolution against a
stacked kernel table serves every row, and per-level tables add each
row's external part, keeping U's Taylor remainder around the path exact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._stepping import split_step_nodes, time_nodes
from .amplitude import B_LABEL
from .classical import hessian_along_flow
from .corrections import _interleaved_nodes
from .errors import NumericalError
from .grids import RESCALED, Grid, WaveFunction, apply_radial_rfft, radial_kernel_rfft
from .potentials import ExternalPotential, PairPotential

__all__ = ["evolve_wave"]


def _wave_potential(grid: Grid, phi: PairPotential, U: ExternalPotential, groups: list):
    """potential(j, density) of a wave's held rows, each at its own node j.
    `groups` holds (trajectory, nodes, epsilons) per run of rows that end
    together, in row order; epsilons None is b's row: (kappa/2) conv(r^2,
    |b|^2) + U''(q) x^2/2.  An epsilon's row takes, untruncated, (1/eps)
    [conv(phi(sqrt(eps) r) - phi(0), |a|^2) + U(q + sqrt(eps) mu) - U(q)
    - sqrt(eps) U'(q) mu], the bracket from U's addition form (remainders
    at sqrt(eps) mu, 1/eps riding in them and the kernels, coefficients at
    the nodes; b's U''(q) x^2/2 takes that form too), or pointwise at every
    step for a U without one (cubic_window)."""
    # parts: (kernel rows, node table, basis, 1/eps of a pointwise bracket) per group
    mu, x2_half, parts = grid.points, 0.5 * grid.points[None] ** 2, []
    r2hat = 0.5 * phi.second_deriv_at_0 * radial_kernel_rfft(lambda r: r * r, grid)[None]
    for trajectory, nodes, epsilons in groups:
        if epsilons is None:
            parts.append((r2hat, hessian_along_flow(trajectory, U)(nodes)[:, None], x2_half, None))
            continue
        root_eps, inv_eps = np.sqrt(epsilons)[:, None], 1.0 / epsilons[:, None]
        khat = np.stack([radial_kernel_rfft(lambda r, s=s: phi.shifted(s * r), grid)
                         for s in root_eps[:, 0]])
        if U.addition is None:
            parts.append((khat, trajectory.qs_at(nodes), root_eps, inv_eps))
            continue
        remainders, coeffs = U.addition(root_eps * mu)
        parts.append((khat * inv_eps, coeffs(trajectory.qs_at(nodes)),
                      (remainders * inv_eps).reshape(-1, epsilons.size * grid.n), None))
    khat = np.concatenate([kernel for kernel, *_ in parts])
    ends = np.cumsum([len(kernel) for kernel, *_ in parts]).tolist()

    def potential(j: int, density: np.ndarray) -> np.ndarray:
        v = apply_radial_rfft(khat[:len(density)], density, grid)
        for lo, hi, (_, table, basis, inv_eps) in zip([0] + ends, ends, parts):
            if lo == len(density):  # this group and those after it have ended
                break
            if inv_eps is None:
                v[lo:hi] += (table[j] @ basis).reshape(hi - lo, grid.n)
            else:
                q = table[j]
                v[lo:hi] += (np.asarray(U.value(q + basis * mu), dtype=np.float64)
                             - float(U.value(q)) - basis * float(U.grad(q)) * mu)
                v[lo:hi] *= inv_eps
        return v

    return potential


def evolve_wave(a0: WaveFunction, phi: PairPotential, U: ExternalPotential, T: float,
                levels: Sequence[tuple], with_b: bool) -> list:
    """The final rows of a wave from `a0`, level after level, by one ragged
    engine call: a level (trajectory, dt, epsilons) has, with `with_b`, b on
    its dt/2 nodes (`corrections._interleaved_nodes`), then each epsilon's
    amplitude on `time_nodes(T, dt)` (`_wave_potential`).  A guard failure
    names the lowest failing held row, with `row` its index in that list."""
    if a0.frame != RESCALED:
        raise ValueError("initial amplitude must be in the rescaled frame")
    groups, rows = [], []  # rows: (group, label), level after level
    for trajectory, dt, epsilons in levels:
        if np.any(np.asarray(epsilons) <= 0):
            raise ValueError("epsilon must be positive")
        if trajectory.times[-1] < T - 1e-9:
            raise ValueError("trajectory does not cover [0, T]")
        if with_b:
            rows.append((len(groups), B_LABEL))
            groups.append((trajectory, _interleaved_nodes(T, dt)[2], None))
        rows += [(len(groups), f"rescaled amplitude (eps={e:g})") for e in epsilons]
        groups.append((trajectory, time_nodes(T, dt), np.asarray(epsilons, dtype=np.float64)))
    # longest first; the sort is stable, so each group's rows stay together
    held = sorted(range(len(rows)), key=lambda r: -groups[rows[r][0]][1].size)
    grid, times, finals = a0.grid, [groups[rows[r][0]][1] for r in held], [None] * len(held)
    try:
        for j, psi in split_step_nodes(
                np.broadcast_to(a0.samples, (len(held), grid.n)), [grid] * len(held), times,
                _wave_potential(grid, phi, U, [groups[g] for g in dict.fromkeys(
                    rows[r][0] for r in held)]), [1.0] * len(held),
                label=[rows[r][1] for r in held]):
            for r in range(len(psi)):
                if times[r].size - 1 == j:
                    finals[held[r]] = WaveFunction(grid, psi[r].copy(), RESCALED)
    except NumericalError as exc:
        exc.row = held[exc.row]
        raise
    return finals
