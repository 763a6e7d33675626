"""Higher-order corrections to the packet profile and their assembly.

Each correction order solves a linear equation driven by the orders below
it.  Its homogeneous part is the operator that propagates the
phase-absorbed profile b, so b and the orders step as one ragged batch of
`split_step_nodes` under b's potential, rebuilt from b's density, on the
dt nodes interleaved with their midpoints.  At each midpoint the
midpoint-rule Duhamel step of the sources f is added to the correction u
in place, as u -= i h (coupling(u - i h f / 2, b) + f): the coupling of u
back into its own source, refined once by a fixed-point update, in closed
form, since the coupling is a real multiple of b and reads u only through
Re(conj(b) u).  The second order rides one node behind, so its sources
are reached before it needs them and no history is kept.  The correction
equations are free of the semiclassical parameter; it enters only when the
expansion is assembled.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Optional

import numpy as np

from ._stepping import split_step_nodes, time_nodes
from .amplitude import B_LABEL, b_potential
from .classical import Trajectory
from .errors import NumericalError
from .grids import RESCALED, WaveFunction
from .potentials import ExternalPotential, PairPotential

__all__ = ["evolve_corrections", "assemble_expansion"]
_SIGNS = {p: np.array([comb(p, j) * (-1.0) ** j for j in range(p + 1)]) for p in (2, 4)}
_FORMS = {p: np.array([[comb(p, j) * (-1.0) ** j * (i + j == p) for j in range(5)]
                       for i in range(5)]) for p in (2, 4)}


def separation_power_form(mu: np.ndarray, weight: np.ndarray, dx: float,
                          power: int | tuple, powers: Optional[np.ndarray] = None) -> np.ndarray:
    """integral of (mu - eta)^power * weight(eta) d(eta) for power 2 or 4,
    expanded binomially into plain moments of the (possibly signed) weight;
    row j of `powers` holds mu**j, j = 0..power at least (repeat callers build it once).
    A (k, n) weight stack takes one power per row and `powers`, and gives the forms'
    coefficients of mu**0 .. mu**4 (_FORMS[p] @ moments), for callers that combine them."""
    if np.ndim(weight) == 2:
        moments = np.matmul(powers[:5], weight[..., None]) * dx  # per row: a BLAS gemm grows RSS
        return np.matmul([_FORMS[p] for p in power], moments)[..., 0]
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


def _deposit(u: np.ndarray, b: np.ndarray, h: float, coupling: Callable, f: np.ndarray) -> None:
    """Add the midpoint-rule Duhamel step -i*h*s to u in place: s is
    coupling(u, b), linear in u and refreshed by one fixed-point update
    u - 0.5j*h*s, plus the u-free forcing f.  The update reaches the
    coupling only through f: coupling(u, b) is a real multiple of b, so
    -0.5j*h times it adds nothing to Re(conj(b) u), all the coupling reads."""
    u -= 1j * h * (coupling(u - 0.5j * h * f, b) + f)


def evolve_corrections(a0: WaveFunction, phi: PairPotential, U: ExternalPotential,
                       trajectory: Trajectory, T: float, dt: float, K: int) -> tuple:
    """The phase-absorbed profile b from `a0` and the correction orders
    1..K (K = 1 or 2) at T: K + 1 `WaveFunction`s, b first.

    The first correction is driven by the cubic term of the external
    potential along the trajectory, plus the quadratic interaction of the
    correction with b (linear in the unknown).  The second adds the quartic
    interaction and external terms against b and the quadratic terms
    against the first correction, read at each midpoint as the linear blend
    of its values at the two dt nodes around it.  It rides one node behind
    on [0, *nodes] (a zero-length first step of its zero state), under b's
    potential at the node before, and is visited at its own midpoints.  A
    correction reaching the engine's guard fails with its own label: the
    row that trips first in time (the first correction on a tie), with
    `row` None.
    """
    if K not in (1, 2):
        raise ValueError("correction order K must be 1 or 2")
    if a0.frame != RESCALED:
        raise ValueError("profile evolution runs in the rescaled frame")
    grid, mu, dx = a0.grid, a0.grid.points, a0.grid.dx
    half_kappa = 0.5 * phi.second_deriv_at_0
    _, steps, nodes = _interleaved_nodes(T, dt)
    potential = b_potential(grid, phi.second_deriv_at_0, U.hess(trajectory.qs_at(nodes)))
    q = trajectory.qs_at(nodes[1::2])
    w3, w4 = U.third(q) / 6.0, U.fourth(q) / 24.0
    powers = np.vander(mu, 5, True).T.copy()  # rows mu**0 .. mu**4

    def coupling(u: np.ndarray, b: np.ndarray) -> np.ndarray:
        cross = 2.0 * (b.real * u.real + b.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * b

    weights = np.empty((3, grid.n))  # |b|^2, |a1|^2, 2 Re(conj(b) a1)
    scale = np.array([[phi.fourth_deriv_at_0 / 24.0], [half_kappa], [half_kappa]])

    def second(j: int, b: np.ndarray, a1: np.ndarray) -> np.ndarray:
        weights[:2] = b.real ** 2 + b.imag ** 2, a1.real ** 2 + a1.imag ** 2
        weights[2] = 2.0 * (b.real * a1.real + b.imag * a1.imag)
        coeffs = scale * separation_power_form(mu, weights, dx, (4, 2, 2), powers)
        on_b, on_a1 = coeffs[0] + coeffs[1], coeffs[2]
        on_b[4], on_a1[3] = on_b[4] + w4[j], on_a1[3] + w3[j]  # w4 mu^4 on b, w3 mu^3 on a1
        return on_b @ powers * b + on_a1 @ powers * a1

    vs = np.zeros((K + 1, grid.n))  # the rows' v; at K = 2 the first is b's of the node before

    def lagged(j: int, density: np.ndarray) -> np.ndarray:
        vs[0] = vs[1]
        if len(density) > 1:  # b is still held
            vs[K - 1:] = potential(j, density[K - 1])
        return vs[:len(density)]

    zero = np.zeros_like(a0.samples)
    seen = range(nodes.size) if K == 2 else range(1, nodes.size, 2)  # b and the first correction
    rows = split_step_nodes(
        [zero, a0.samples, zero][2 - K:], [grid] * (K + 1),
        [np.append(0.0, nodes), nodes, nodes][2 - K:], lagged, [1.0] * (K + 1),
        [range(2, nodes.size + 1, 2), seen, seen][2 - K:],
        ["second correction", B_LABEL, "first correction"][2 - K:])
    try:
        for i, psi in rows:
            if i == nodes.size:  # only the second correction is held, at T
                continue
            j, (b, a1) = i // 2, psi[-2:]
            if i % 2:  # the midpoint of dt step j
                _deposit(a1, b, steps[j], coupling, w3[j] * powers[3] * b)
                b_mid = b.copy()
                continue
            if K == 2 and i:  # the second correction at the midpoint of dt step j - 1
                w = (nodes[i - 1] - nodes[i - 2]) / (nodes[i] - nodes[i - 2])
                a1_mid = (1.0 - w) * prev[1] + w * a1
                _deposit(psi[0], b_mid, steps[j - 1], coupling, second(j - 1, b_mid, a1_mid))
            prev = psi[-2:].copy()  # (b, a1) at this dt node
    except NumericalError as exc:
        exc.row = None  # its label names the order; no row is the caller's
        raise
    return tuple(WaveFunction(grid, row) for row in [*prev, *psi[:K - 1]])


def assemble_expansion(orders: tuple, K: int, epsilon: float) -> WaveFunction:
    """Sum of eps^(k/2) * orders[k], k = 0..K, of the orders at one time."""
    if K < 0 or K > 2:
        raise ValueError("expansion order K must be 0, 1, or 2")
    if K >= len(orders):
        raise ValueError(f"missing correction orders: K={K} requested but only "
                         f"{len(orders) - 1} available")
    total = sum(epsilon ** (k / 2.0) * orders[k].samples for k in range(K + 1))
    return WaveFunction(orders[0].grid, total, RESCALED)
