"""Higher-order corrections to the packet profile and their assembly.

Each correction order solves a linear equation driven by the orders below
it.  Its homogeneous part is the operator that propagates the
phase-absorbed profile b, so every order evolves under b's potential,
rebuilt from b's density, in `split_step_nodes` on the dt nodes
interleaved with their midpoints.  The first order steps as the second
row of a (2, n) batch whose first row is b, the one evolution of b.  At
each midpoint a pass adds the midpoint-rule Duhamel step of the sources
to its correction, in place (one fixed-point refinement handles the term
that couples a correction back into its own source).  The second order
steps alone, in lockstep with the first pass, at most one dt node behind:
it takes b's potential at each node and b at each midpoint from that
pass, and the first correction from a two-row window at the dt nodes
around its midpoint, so neither pass keeps a history.  The correction
equations are free of the semiclassical parameter; it enters only when
the expansion is assembled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np

from ._stepping import (_resolve_store, split_step_evolve, split_step_nodes, tabulate,
                        time_nodes)
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
          visit: Sequence[int], label: str, b_mid: Optional[Callable] = None):
    """Generator of (node index, state) at the node indices in `visit`: the
    (2, n) batch of b and one correction u from (b0, 0) under
    potential(t, |b|^2), or, given b_mid(j) (b at the midpoint of dt step
    j), u alone from 0 under potential(t, _).  At that midpoint it adds
    -i*h*s to u, before any visit: s is coupling(u, b), linear in u and
    refreshed by one fixed-point update of u, plus the u-free forcing(j, b),
    evaluated once per step.  The state is the engine's buffer: copy what you keep."""
    if b_mid is None:
        psi0, labels = np.stack([b0, np.zeros_like(b0)]), [B_LABEL, label]
        v = lambda t, density: potential(t, density[0])
    else:
        psi0, labels, v = np.zeros_like(b0), label, potential
    visit = set(visit)
    for i, psi in split_step_nodes(psi0, grid, nodes, v, 1.0,
                                   visit.union(range(1, nodes.size, 2)), labels):
        if i % 2:
            j = i // 2
            b, u = (psi[0], psi[1]) if b_mid is None else (b_mid(j), psi)
            f, h = forcing(j, b), steps[j]
            s = coupling(u, b) + f
            s = coupling(u - 0.5j * h * s, b) + f
            u -= 1j * h * s
        if i in visit:
            yield i, psi


def _blend(t: float, left: float, right: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The linear blend of a at `left` and b at `right` at time t between
    them; within 1e-12 of either node, that node's row itself."""
    if abs(t - left) < 1e-12:
        return a
    if abs(t - right) < 1e-12:
        return b
    w = (t - left) / (right - left)
    return (1.0 - w) * a + w * b


def evolve_corrections(a0: WaveFunction, phi: PairPotential, U: ExternalPotential,
                       trajectory: Trajectory, T: float, dt: float, K: int,
                       store_times: Optional[Sequence[float]] = None) -> CorrectionSet:
    """The phase-absorbed profile b from `a0` and the correction orders
    1..K (K = 0, 1 or 2), stored at the dt nodes nearest `store_times`
    (every dt node by default; the final node always).

    The first correction is driven by the cubic term of the external
    potential along the trajectory, plus the quadratic interaction of the
    correction with b (linear in the unknown); b evolves only in its pass.
    The second adds the quartic interaction and external terms against b
    and the quadratic terms against the first correction, read at each
    midpoint as the linear blend of its rows at the two dt nodes around
    it.  It steps alone under b's potential from the first pass, which runs
    at most one dt node ahead and keeps only what the second has yet to
    read.  A correction that reaches the engine's boundary guard fails
    with its own label.
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

    store_idx = _resolve_store(nodes, store)
    mids = nodes[1::2]
    q = trajectory.qs_at(mids)
    w3 = U.third(q, mids) / 6.0
    powers = np.vander(mu, 5, True).T.copy()  # rows mu**0 .. mu**4

    def coupling(u: np.ndarray, b: np.ndarray) -> np.ndarray:
        cross = 2.0 * (b.real * u.real + b.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * b

    def first(j: int, b: np.ndarray) -> np.ndarray:
        return w3[j] * powers[3] * b

    vs = deque()  # at K = 2, b's potential at nodes the second pass has yet to reach

    def recorded(t: float, density: np.ndarray) -> np.ndarray:
        vs.append(potential(t, density))
        return vs[-1]

    pass1 = _pass(a0.samples, grid, nodes, steps, recorded if K == 2 else potential, coupling,
                  first, range(nodes.size) if K == 2 else store_idx, "first correction")
    times = nodes[store_idx]
    if K == 1:
        data = np.array([psi.copy() for _, psi in pass1])
        return CorrectionSet((series(times, data[:, 0]), series(times, data[:, 1])))

    w4 = U.fourth(q, mids) / 24.0
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0
    stored = set(store_idx.tolist())
    # b at midpoints yet to come, a1 around the midpoint, (b, a1) stored
    b_mids, window, stored_rows = deque(), {}, []

    def pull(ready: Callable[[], bool]) -> None:  # run the first pass on until ready()
        for i, psi in () if ready() else pass1:
            if i % 2:
                b_mids.append(psi[0].copy())
            else:
                window[i] = psi[1].copy()
                window.pop(i - 4, None)
                if i in stored:
                    stored_rows.append(psi.copy())
            if ready():
                return

    def take(queue: deque) -> np.ndarray:  # the oldest entry, pulled in if need be
        pull(lambda: queue)
        return queue.popleft()

    def second(j: int, b: np.ndarray) -> np.ndarray:
        pull(lambda: 2 * j + 2 in window)
        a1 = _blend(mids[j], nodes[2 * j], nodes[2 * j + 2], window[2 * j], window[2 * j + 2])
        dens0 = b.real ** 2 + b.imag ** 2
        dens1 = a1.real ** 2 + a1.imag ** 2
        cross01 = 2.0 * (b.real * a1.real + b.imag * a1.imag)
        s = w4[j] * powers[4] * b
        s = s + quartic_coeff * separation_power_form(mu, dens0, dx, 4, powers) * b
        s = s + half_kappa * separation_power_form(mu, dens1, dx, 2, powers) * b
        s = s + half_kappa * separation_power_form(mu, cross01, dx, 2, powers) * a1
        return s + w3[j] * powers[3] * a1

    data2 = np.array([psi.copy() for _, psi in _pass(
        a0.samples, grid, nodes, steps, lambda t, _: take(vs), coupling, second, store_idx,
        "second correction", lambda j: take(b_mids))])
    b_a1 = np.array(stored_rows).swapaxes(0, 1)
    return CorrectionSet(tuple(series(times, data) for data in (*b_a1, data2)))


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
