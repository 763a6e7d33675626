"""Higher-order corrections to the packet profile and their assembly.

Each correction order solves a linear equation driven by the orders below
it.  Its homogeneous part is the operator that propagates the
phase-absorbed profile b, so every order evolves under b's potential,
rebuilt from b's density, in `split_step_nodes` on the dt nodes
interleaved with their midpoints.  The first order steps as the second
row of a (2, n) batch whose first row is b, the one evolution of b.  At
each midpoint the midpoint-rule Duhamel step of the sources is added to
the correction, in place (one fixed-point refinement handles the term
that couples a correction back into its own source).  One loop over the
first pass drives both orders: the second steps alone, one dt node
behind, under b's potential from the first pass, and takes b at its
midpoints and the first correction at the dt nodes around them from that
pass as it goes, so no history is kept.  The correction equations are
free of the semiclassical parameter; it enters only when the expansion
is assembled.
"""

from __future__ import annotations

from collections import deque
from math import comb
from typing import Callable, Optional

import numpy as np

from ._stepping import split_step_nodes, tabulate, time_nodes
from .amplitude import B_LABEL, b_potential
from .classical import Trajectory, hessian_along_flow
from .grids import RESCALED, WaveFunction
from .potentials import ExternalPotential, PairPotential

__all__ = ["evolve_corrections", "assemble_expansion"]
_SIGNS = {p: np.array([comb(p, j) * (-1.0) ** j for j in range(p + 1)]) for p in (2, 4)}


def separation_power_form(mu: np.ndarray, weight: np.ndarray, dx: float,
                          power: int, powers: Optional[np.ndarray] = None) -> np.ndarray:
    """integral of (mu - eta)^power * weight(eta) d(eta) for power 2 or 4,
    expanded binomially into plain moments of the (possibly signed) weight;
    row j of `powers` holds mu**j, j = 0..power at least (repeat callers build it once)."""
    powers = (np.vander(mu, power + 1, True).T.copy() if powers is None
              else powers[:power + 1])
    return (_SIGNS[power] * (powers @ weight) * dx)[::-1] @ powers


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


def _deposit(u: np.ndarray, b: np.ndarray, h: float, coupling: Callable,
             f: np.ndarray) -> None:
    """Add the midpoint-rule Duhamel step -i*h*s to u in place: s is
    coupling(u, b), linear in u and refreshed by one fixed-point update of
    u, plus the u-free forcing f."""
    s = coupling(u, b) + f
    s = coupling(u - 0.5j * h * s, b) + f
    u -= 1j * h * s


def evolve_corrections(a0: WaveFunction, phi: PairPotential, U: ExternalPotential,
                       trajectory: Trajectory, T: float, dt: float, K: int) -> tuple:
    """The phase-absorbed profile b from `a0` and the correction orders
    1..K (K = 1 or 2) at T: K + 1 `WaveFunction`s, b first.

    The first correction is driven by the cubic term of the external
    potential along the trajectory, plus the quadratic interaction of the
    correction with b (linear in the unknown); b evolves only in its pass.
    The second adds the quartic interaction and external terms against b
    and the quadratic terms against the first correction, read at each
    midpoint as the linear blend of its values at the two dt nodes around
    it.  It steps alone under b's potential from the first pass: after each
    dt node the loop advances it to the midpoint before that node, so it
    runs one dt node behind, and the loop keeps only b and the first
    correction at the previous dt node, b at the last midpoint and b's
    potential at the nodes the second pass is yet to reach.  A correction
    that reaches the engine's boundary guard fails with its own label; when
    both passes would trip within one dt node, the first pass's error is
    raised.
    """
    if K not in (1, 2):
        raise ValueError("correction order K must be 1 or 2")
    if a0.frame != RESCALED:
        raise ValueError("profile evolution runs in the rescaled frame")
    grid = a0.grid
    mu, dx = grid.points, grid.dx
    kappa = phi.second_deriv_at_0
    half_kappa = 0.5 * kappa
    _, steps, nodes = _interleaved_nodes(T, dt)
    potential = b_potential(grid, kappa, tabulate(hessian_along_flow(trajectory, U), nodes))
    visit = {nodes.size - 1}.union(range(1, nodes.size, 2))  # the midpoints and T
    mids = nodes[1::2]
    q = trajectory.qs_at(mids)
    w3, w4 = U.third(q) / 6.0, U.fourth(q) / 24.0
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0
    powers = np.vander(mu, 5, True).T.copy()  # rows mu**0 .. mu**4

    def coupling(u: np.ndarray, b: np.ndarray) -> np.ndarray:
        cross = 2.0 * (b.real * u.real + b.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * b

    def second(j: int, b: np.ndarray, a1: np.ndarray) -> np.ndarray:
        dens0 = b.real ** 2 + b.imag ** 2
        dens1 = a1.real ** 2 + a1.imag ** 2
        cross01 = 2.0 * (b.real * a1.real + b.imag * a1.imag)
        s = w4[j] * powers[4] * b
        s = s + quartic_coeff * separation_power_form(mu, dens0, dx, 4, powers) * b
        s = s + half_kappa * separation_power_form(mu, dens1, dx, 2, powers) * b
        s = s + half_kappa * separation_power_form(mu, cross01, dx, 2, powers) * a1
        return s + w3[j] * powers[3] * a1

    vs = deque()  # K = 2: b's potential at the nodes the second pass is yet to reach (3 at most)

    def recorded(t: float, density: np.ndarray) -> np.ndarray:
        vs.append(potential(t, density))
        return vs[-1]

    v1 = recorded if K == 2 else potential
    pass1 = split_step_nodes(np.stack([a0.samples, np.zeros_like(a0.samples)]), grid, nodes,
                             lambda t, density: v1(t, density[0]), 1.0,
                             range(nodes.size) if K == 2 else visit,
                             [B_LABEL, "first correction"])
    pass2 = split_step_nodes(np.zeros_like(a0.samples), grid, nodes, lambda t, _: vs.popleft(),
                             1.0, visit, "second correction")
    for i, psi in pass1:
        j = i // 2
        if i % 2:  # the midpoint of dt step j
            _deposit(psi[1], psi[0], steps[j], coupling, w3[j] * powers[3] * psi[0])
            b_mid = psi[0].copy()
            continue
        if K == 2 and i:  # the second pass on to the midpoint of dt step j - 1
            _, a2 = next(pass2)
            w = (nodes[i - 1] - nodes[i - 2]) / (nodes[i] - nodes[i - 2])
            a1 = (1.0 - w) * prev[1] + w * psi[1]
            _deposit(a2, b_mid, steps[j - 1], coupling, second(j - 1, b_mid, a1))
        prev = psi.copy()  # (b, a1) at this dt node
    orders = [WaveFunction(grid, row) for row in prev]
    if K == 2:
        orders.append(WaveFunction(grid, next(pass2)[1]))
    return tuple(orders)


def assemble_expansion(orders: tuple, K: int, epsilon: float) -> WaveFunction:
    """Sum of eps^(k/2) * orders[k], k = 0..K, of the orders at one time."""
    if K < 0 or K > 2:
        raise ValueError("expansion order K must be 0, 1, or 2")
    if K >= len(orders):
        raise ValueError(f"missing correction orders: K={K} requested but only "
                         f"{len(orders) - 1} available")
    total = np.zeros(orders[0].grid.n, dtype=np.complex128)
    for k in range(K + 1):
        total = total + epsilon ** (k / 2.0) * orders[k].samples
    return WaveFunction(orders[0].grid, total, RESCALED)
