"""Higher-order corrections to the packet profile and their assembly.

Each correction order solves a linear equation driven by the orders below
it.  Its homogeneous part is the operator that propagates the
phase-absorbed profile b, so a correction steps as the second row of a
(2, n) batch whose first row is b: both rows share b's potential, rebuilt
from b's own row, in `split_step_evolve` on the dt nodes interleaved with
their midpoints.  At each midpoint the engine calls a deposit that adds
the midpoint-rule Duhamel step of the sources to the correction row (one
fixed-point refinement handles the term that couples a correction back
into its own source).  The correction equations are free of the
semiclassical parameter; it enters only when the expansion is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np

from ._stepping import _resolve_store, split_step_evolve, tabulate, time_nodes
from .amplitude import B_LABEL, b_potential
from .classical import Trajectory, hessian_along_flow
from .grids import RESCALED, WaveFunction, WaveSeries
from .potentials import ExternalPotential, PairPotential

__all__ = [
    "CorrectionSet",
    "evolve_corrections",
    "assemble_expansion",
]


def separation_power_form(mu: np.ndarray, weight: np.ndarray, dx: float,
                          power: int, powers: Optional[np.ndarray] = None) -> np.ndarray:
    """integral of (mu - eta)^power * weight(eta) d(eta) for even power,
    expanded binomially into plain moments of the (possibly signed) weight;
    row j of `powers` holds mu**j, j = 0..power at least (repeat callers build it once)."""
    powers = (np.vander(mu, power + 1, True).T.copy() if powers is None
              else powers[:power + 1])
    signs = np.array([comb(power, j) * (-1.0) ** j for j in range(power + 1)])
    return (signs * (powers @ weight) * dx)[::-1] @ powers


def _interleaved_nodes(T: float, dt: float) -> tuple:
    """(dt nodes, their step lengths, the node array t_0, mid_0, t_1, ...
    that the correction passes step on).  The midpoints lie on the dt/2
    grid, so the array is `time_nodes(T, dt/2)` when dt divides T; a
    shortened final step keeps its own midpoint."""
    coarse = time_nodes(T, dt)
    nodes = 0.5 * dt * np.arange(2 * coarse.size - 1)
    nodes[-1] = coarse[-1]
    if coarse.size > 1:
        last = coarse[-2] + 0.5 * (coarse[-1] - coarse[-2])
        if abs(nodes[-2] - last) > 1e-9 * dt:
            nodes[-2] = last
    return coarse, np.diff(coarse), nodes


def _pass(b0: np.ndarray, grid, nodes: np.ndarray, steps: np.ndarray,
          potential: Callable, coupling: Callable, forcing: Callable,
          store: np.ndarray, label: str):
    """(stored times, (stored, 2, n) data) of b and one correction u from
    (b0, 0) on `nodes`.  At the midpoint of dt step j the deposit adds
    -i*h*s to u: s is coupling(u, b), linear in u and refreshed by one
    fixed-point update of u, plus the u-free forcing(j, b), evaluated once
    per step."""

    def deposit(j: int, psi: np.ndarray) -> np.ndarray:
        b, u, h = psi[0], psi[1], steps[j]
        f = forcing(j, b)
        s = coupling(u, b) + f
        s = coupling(u - 0.5j * h * s, b) + f
        psi[1] = u - 1j * h * s
        return psi

    _, stored_t, data, _ = split_step_evolve(
        np.stack([b0, np.zeros_like(b0)]), grid, nodes,
        lambda t, density: potential(t, density[0]),
        store_times=store, label=[B_LABEL, label], deposit=deposit)
    return stored_t, data


def evolve_corrections(a0: WaveFunction, phi: PairPotential, U: ExternalPotential,
                       trajectory: Trajectory, T: float, dt: float, K: int,
                       store_times: Optional[Sequence[float]] = None) -> CorrectionSet:
    """The phase-absorbed profile b from `a0` and the correction orders
    1..K (K = 0, 1 or 2), stored at the dt nodes nearest `store_times`
    (every dt node by default; the final node always).

    The first correction is driven by the cubic term of the external
    potential along the trajectory, plus the quadratic interaction of the
    correction with b (linear in the unknown).  The second adds the
    quartic interaction and external terms against b and the quadratic
    terms against the first correction, which it reads at each midpoint
    as the linear blend of the first pass's dt nodes.  A correction row
    that reaches the engine's boundary guard fails with its own label.
    """
    if K not in (0, 1, 2):
        raise ValueError("expansion order K must be 0, 1, or 2")
    if a0.frame != RESCALED:
        raise ValueError("profile evolution runs in the rescaled frame")
    grid = a0.grid
    mu, dx = grid.points, grid.dx
    kappa = phi.second_deriv_at_0
    half_kappa = 0.5 * kappa
    coarse, steps, nodes = _interleaved_nodes(T, dt)
    store = coarse[_resolve_store(coarse, store_times)]
    potential = b_potential(grid, kappa, tabulate(hessian_along_flow(trajectory, U), nodes))

    def series(times, data) -> WaveSeries:
        return WaveSeries(times, grid, RESCALED, data)

    if K == 0:
        _, stored_t, data, _ = split_step_evolve(a0.samples, grid, nodes, potential,
                                                 store_times=store, label=B_LABEL)
        return CorrectionSet((series(stored_t, data),))

    mids = nodes[1::2]
    q = trajectory.qs_at(mids)
    w3 = U.third(q, mids) / 6.0
    powers = np.vander(mu, 5, True).T.copy()  # rows mu**0 .. mu**4

    def coupling(u: np.ndarray, b: np.ndarray) -> np.ndarray:
        cross = 2.0 * (b.real * u.real + b.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * b

    def first(j: int, b: np.ndarray) -> np.ndarray:
        return w3[j] * powers[3] * b

    # the second order reads the first at every dt node
    t1, data1 = _pass(a0.samples, grid, nodes, steps, potential, coupling, first,
                      coarse if K == 2 else store, "first correction")
    if K == 1:
        return CorrectionSet((series(t1, data1[:, 0]), series(t1, data1[:, 1])))

    a1_seq = series(t1, data1[:, 1])
    w4 = U.fourth(q, mids) / 24.0
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0

    def second(j: int, b: np.ndarray) -> np.ndarray:
        a1 = a1_seq.interp_samples(mids[j])
        dens0 = b.real ** 2 + b.imag ** 2
        dens1 = a1.real ** 2 + a1.imag ** 2
        cross01 = 2.0 * (b.real * a1.real + b.imag * a1.imag)
        s = w4[j] * powers[4] * b
        s = s + quartic_coeff * separation_power_form(mu, dens0, dx, 4, powers) * b
        s = s + half_kappa * separation_power_form(mu, dens1, dx, 2, powers) * b
        s = s + half_kappa * separation_power_form(mu, cross01, dx, 2, powers) * a1
        return s + w3[j] * powers[3] * a1

    t2, data2 = _pass(a0.samples, grid, nodes, steps, potential, coupling, second,
                      store, "second correction")
    a1_final = a1_seq.data[np.searchsorted(t1, t2)]
    return CorrectionSet((series(t2, data2[:, 0]), series(t2, a1_final),
                          series(t2, data2[:, 1])))


@dataclass(frozen=True, eq=False)
class CorrectionSet:
    """Correction orders stored at shared nodes on a shared grid, one
    `WaveSeries` each; index 0 is the base (phase-absorbed) profile."""

    orders: tuple

    def __post_init__(self):
        if not self.orders:
            raise ValueError("at least the base order is required")
        object.__setattr__(self, "orders", tuple(self.orders))


def assemble_expansion(cset: CorrectionSet, K: int, epsilon: float,
                       t: Optional[float] = None) -> WaveFunction:
    """Sum of eps^(k/2) * order_k at time t (final time by default)."""
    if K < 0 or K > 2:
        raise ValueError("expansion order K must be 0, 1, or 2")
    if K >= len(cset.orders):
        raise ValueError(
            f"missing correction orders: K={K} requested but only "
            f"{len(cset.orders) - 1} available"
        )
    base = cset.orders[0]
    grid = base.grid
    total = np.zeros(grid.n, dtype=np.complex128)
    for k in range(K + 1):
        series = cset.orders[k]
        wf = series.final if t is None else series.at_time(t)
        total = total + epsilon ** (k / 2.0) * wf.samples
    return WaveFunction(grid, total, RESCALED)
