"""Higher-order corrections to the packet profile and their assembly.

Each correction order solves a linear equation driven by the orders below
it: the homogeneous part is the same operator that propagates the
phase-absorbed profile, and the source terms are accumulated with a
midpoint-rule Duhamel step (one fixed-point refinement handles the term
that couples a correction back into its own source).  The correction
equations are free of the semiclassical parameter; it enters only when the
expansion is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np

from ._stepping import tabulate, time_nodes
from .classical import Trajectory, hessian_along_flow
from .errors import NumericalError
from .grids import (
    RESCALED,
    WaveFunction,
    WaveSeries,
    apply_radial_rfft,
    radial_kernel_rfft,
)
from .potentials import ExternalPotential, PairPotential

__all__ = [
    "CorrectionSet",
    "evolve_correction_1",
    "evolve_correction_2",
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


def _coverage_check(series: WaveSeries, T: float, dt: float, who: str) -> None:
    if series.times[-1] < T - 1e-9:
        raise ValueError(f"{who} does not cover [0, {T}]")
    spacing = float(np.max(np.diff(series.times)))
    if spacing > dt * (1.0 + 1e-9):
        raise ValueError(
            f"{who} node spacing {spacing:g} is coarser than the correction "
            f"step {dt:g}"
        )


def _drive(a0_seq: WaveSeries, kappa: float, hess_fn: Callable,
           coupling: Callable, T: float, dt: float, *,
           forcing: Optional[Callable] = None, label: str = "correction") -> WaveSeries:
    """Propagate a zero-initial-data linear problem with sources.

    Each step applies half of the homogeneous split propagator, deposits
    -i*dt*s at the midpoint, then the second half: s is coupling(t, u, a0),
    linear in u and refreshed by one fixed-point update of u, plus the
    u-free forcing(mids)(j, a0) of step j, evaluated once per step.
    `hess_fn` is called once, on the nodes and the step midpoints `mids`.
    """
    grid = a0_seq.grid
    mu = grid.points
    x2_half = 0.5 * mu ** 2
    k2 = grid.wavenumbers ** 2
    khat = radial_kernel_rfft(lambda r: r * r, grid)
    half_kappa = 0.5 * kappa
    times = time_nodes(T, dt)
    steps = np.diff(times)
    mids = times[:-1] + 0.5 * steps
    hess_at = tabulate(hess_fn, np.sort(np.concatenate([times, mids])))
    force = forcing(mids) if forcing is not None else None

    def quad_potential(a0_samples: np.ndarray, t: float) -> np.ndarray:
        density = a0_samples.real ** 2 + a0_samples.imag ** 2
        return (half_kappa * apply_radial_rfft(khat, density, grid)
                + hess_at(t) * x2_half)

    u = np.zeros(grid.n, dtype=np.complex128)
    data = np.empty((times.size, grid.n), dtype=np.complex128)
    data[0] = u

    h_prev = None
    kin_half = None
    v_left = quad_potential(a0_seq.interp_samples(times[0]), times[0])
    for j in range(times.size - 1):
        t1, h, tm = times[j + 1], steps[j], mids[j]
        if h != h_prev:
            kin_half = np.exp(-0.25j * h * k2)  # kinetic phase over h/2
            h_prev = h
        a0_mid = a0_seq.interp_samples(tm)
        v_mid = quad_potential(a0_mid, tm)
        v_right = quad_potential(a0_seq.interp_samples(t1), t1)

        # first half of the homogeneous propagator: [t0, t0 + h/2]
        u = u * np.exp(-0.25j * h * v_left)
        u = np.fft.ifft(np.fft.fft(u) * kin_half)
        u = u * np.exp(-0.25j * h * v_mid)
        # midpoint Duhamel deposit
        f = force(j, a0_mid) if force is not None else 0.0
        s = coupling(tm, u, a0_mid) + f
        s = coupling(tm, u - 0.5j * h * s, a0_mid) + f
        u = u - 1j * h * s
        # second half: [t0 + h/2, t1]
        u = u * np.exp(-0.25j * h * v_mid)
        u = np.fft.ifft(np.fft.fft(u) * kin_half)
        u = u * np.exp(-0.25j * h * v_right)

        if not np.all(np.isfinite(u)):
            raise NumericalError(f"{label}: non-finite samples at t={t1:.6g}")
        data[j + 1] = u
        v_left = v_right

    return WaveSeries(times, grid, RESCALED, data)


def evolve_correction_1(a0_seq: WaveSeries, phi: PairPotential,
                        U: ExternalPotential, trajectory: Trajectory,
                        T: float, dt: float) -> WaveSeries:
    """First correction: driven by the cubic term of the external potential
    along the trajectory, plus the quadratic interaction of the correction
    with the base profile (linear in the unknown, refreshed each step)."""
    _coverage_check(a0_seq, T, dt, "base profile sequence")
    grid = a0_seq.grid
    mu = grid.points
    dx = grid.dx
    kappa = phi.second_deriv_at_0
    half_kappa = 0.5 * kappa
    powers = np.vander(mu, 4, True).T.copy()  # rows mu**0 .. mu**3

    def coupling(t: float, u: np.ndarray, a0: np.ndarray) -> np.ndarray:
        cross = 2.0 * (a0.real * u.real + a0.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * a0

    def forcing(mids: np.ndarray):
        w3 = U.third(trajectory.qs_at(mids), mids) / 6.0
        return lambda j, a0: w3[j] * powers[3] * a0

    return _drive(a0_seq, kappa, hessian_along_flow(trajectory, U), coupling, T, dt,
                  forcing=forcing, label="first correction")


def evolve_correction_2(a0_seq: WaveSeries, a1_seq: WaveSeries,
                        phi: PairPotential, U: ExternalPotential,
                        trajectory: Trajectory, T: float, dt: float) -> WaveSeries:
    """Second correction: quartic interaction and external terms against the
    base profile, quadratic terms against the first correction, and the
    coupled term in the unknown itself."""
    _coverage_check(a0_seq, T, dt, "base profile sequence")
    _coverage_check(a1_seq, T, dt, "first-correction sequence")
    grid = a0_seq.grid
    mu = grid.points
    dx = grid.dx
    kappa = phi.second_deriv_at_0
    half_kappa = 0.5 * kappa
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0
    powers = np.vander(mu, 5, True).T.copy()  # rows mu**0 .. mu**4

    def coupling(t: float, u: np.ndarray, a0: np.ndarray) -> np.ndarray:
        cross02 = 2.0 * (a0.real * u.real + a0.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross02, dx, 2, powers) * a0

    def forcing(mids: np.ndarray):
        q = trajectory.qs_at(mids)
        w3, w4 = U.third(q, mids) / 6.0, U.fourth(q, mids) / 24.0

        def step(j: int, a0: np.ndarray) -> np.ndarray:
            a1 = a1_seq.interp_samples(mids[j])
            dens0 = a0.real ** 2 + a0.imag ** 2
            dens1 = a1.real ** 2 + a1.imag ** 2
            cross01 = 2.0 * (a0.real * a1.real + a0.imag * a1.imag)
            s = w4[j] * powers[4] * a0
            s = s + quartic_coeff * separation_power_form(mu, dens0, dx, 4, powers) * a0
            s = s + half_kappa * separation_power_form(mu, dens1, dx, 2, powers) * a0
            s = s + half_kappa * separation_power_form(mu, cross01, dx, 2, powers) * a1
            return s + w3[j] * powers[3] * a1

        return step

    return _drive(a0_seq, kappa, hessian_along_flow(trajectory, U), coupling, T, dt,
                  forcing=forcing, label="second correction")


@dataclass(frozen=True, eq=False)
class CorrectionSet:
    """Correction-order histories on a shared grid and shared nodes;
    index 0 is the base (phase-absorbed) profile."""

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
