"""Per-step coefficient tables and once-per-step forcing in the correction
orders, checked against the forms they replaced, which are written out here:
among them the correction drive with its own Strang loop, fed by a base
profile history stored at half its step."""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

import semihartree.corrections as corrections
from semihartree._stepping import tabulate, time_nodes
from semihartree.amplitude import evolve_b, evolve_beta
from semihartree.classical import Trajectory, hessian_along_flow, integrate_flow
from semihartree.corrections import evolve_corrections, separation_power_form
from semihartree.grids import RESCALED, WaveSeries, apply_radial_rfft, radial_kernel_rfft
from semihartree.potentials import builtin_external, builtin_pair

from helpers import interp_samples


def loop_power_form(mu, weight, dx, power):
    """The per-moment loop that `separation_power_form` replaced."""
    out = np.zeros_like(mu)
    for j in range(power + 1):
        moment = float(np.sum(weight * mu ** j) * dx)
        out += comb(power, j) * (-1.0) ** j * mu ** (power - j) * moment
    return out


@pytest.fixture(scope="module")
def stack(gauss):
    phi = builtin_pair("cosine")
    U = builtin_external("cosine", [1.0])
    traj = integrate_flow(0.0, 1.0, U, phi.value_at_0, 0.1, 1e-3)
    b = evolve_b(gauss, phi.second_deriv_at_0, hessian_along_flow(traj, U), 0.1, 5e-4)
    return phi, U, traj, b


class TestSeparationPowerForm:
    @pytest.mark.parametrize("power", [2, 4])
    def test_matches_moment_loop_with_signed_weight(self, mu_grid, gauss, power):
        # tolerance: rtol 1e-12 on every sample, against the largest sample
        mu, dx = mu_grid.points, mu_grid.dx
        weight = np.sin(mu) * np.abs(gauss.samples) ** 2 - 0.3 * np.exp(-(mu - 1.0) ** 2)
        assert weight.min() < 0 < weight.max()
        old = loop_power_form(mu, weight, dx, power)
        scale = np.max(np.abs(old))
        for table in (None, mu ** np.arange(5)[:, None]):
            new = separation_power_form(mu, weight, dx, power, table)
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12 * scale)


class TestHessianAlongFlow:
    def test_array_matches_scalar_calls_at_nodes_and_midpoints(self, stack):
        # tolerance: 1e-15 absolute (|U''| <= 1 for the cosine potential)
        _, U, traj, _ = stack
        nodes = time_nodes(0.1, 1e-3)
        mids = nodes[:-1] + 0.5 * np.diff(nodes)
        hess = hessian_along_flow(traj, U)
        for times in (nodes, mids):
            scalar = [float(U.hess(traj.q_at(t), t)) for t in times]
            np.testing.assert_allclose(hess(times), scalar, rtol=0, atol=1e-15)
        assert isinstance(hess(0.05), float)

    def test_array_call_makes_one_hess_call_and_no_scalar_lookup(self, stack, monkeypatch):
        _, U, traj, _ = stack
        calls = []
        counted = replace(U, hess=lambda x, t: calls.append(np.shape(x)) or U.hess(x, t))
        monkeypatch.setattr(Trajectory, "q_at", lambda self, t: pytest.fail("scalar q_at"))
        hessian_along_flow(traj, counted)(np.linspace(0.0, 0.1, 7))
        assert calls == [(7,)]


class TestTabulate:
    def test_lookup_at_every_node(self):
        times = time_nodes(1.0, 0.3)
        lookup = tabulate(lambda t: t ** 2, times)
        assert [lookup(t) for t in times] == list(times ** 2)

    def test_scalar_result_broadcasts(self):
        times = time_nodes(1.0, 0.25)
        lookup = tabulate(lambda t: 0.0, times)
        assert [lookup(t) for t in times] == [0.0] * times.size


def old_source_1(mu, dx, phi, U, traj):
    """The single combined source closure of the first correction."""
    half_kappa = 0.5 * phi.second_deriv_at_0

    def source(t, u, a0):
        cross = 2.0 * (a0.real * u.real + a0.imag * u.imag)
        coupled = half_kappa * loop_power_form(mu, cross, dx, 2) * a0
        return coupled + (float(U.third(traj.q_at(t), t)) / 6.0) * mu ** 3 * a0

    return source


def old_source_2(mu, dx, phi, U, traj, a1_seq):
    """The single combined source closure of the second correction."""
    half_kappa = 0.5 * phi.second_deriv_at_0
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0

    def source(t, u, a0):
        q = traj.q_at(t)
        a1 = interp_samples(a1_seq, t)
        dens0 = a0.real ** 2 + a0.imag ** 2
        dens1 = a1.real ** 2 + a1.imag ** 2
        cross02 = 2.0 * (a0.real * u.real + a0.imag * u.imag)
        cross01 = 2.0 * (a0.real * a1.real + a0.imag * a1.imag)
        s = half_kappa * loop_power_form(mu, cross02, dx, 2) * a0
        s = s + (float(U.fourth(q, t)) / 24.0) * mu ** 4 * a0
        s = s + quartic_coeff * loop_power_form(mu, dens0, dx, 4) * a0
        s = s + half_kappa * loop_power_form(mu, dens1, dx, 2) * a0
        s = s + half_kappa * loop_power_form(mu, cross01, dx, 2) * a1
        s = s + (float(U.third(q, t)) / 6.0) * mu ** 3 * a1
        return s

    return source


def old_drive(a0_seq, kappa, hess_fn, coupling, T, dt, *, forcing=None):
    """The correction drive that `evolve_corrections` replaced: a zero-data
    linear problem stepped by its own Strang loop, whose potential it
    rebuilds from the base history `a0_seq` (read at the nodes and step
    midpoints, blended linearly between stored nodes).  Each step applies
    half of the homogeneous propagator, deposits -i*dt*s at the midpoint,
    then the second half: s is coupling(t, u, a0), refreshed by one
    fixed-point update of u, plus forcing(mids)(j, a0)."""
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

    def quad_potential(a0_samples, t):
        density = a0_samples.real ** 2 + a0_samples.imag ** 2
        return (half_kappa * apply_radial_rfft(khat, density, grid)
                + hess_at(t) * x2_half)

    u = np.zeros(grid.n, dtype=np.complex128)
    data = np.empty((times.size, grid.n), dtype=np.complex128)
    data[0] = u
    v_left = quad_potential(interp_samples(a0_seq, times[0]), times[0])
    for j in range(times.size - 1):
        t1, h, tm = times[j + 1], steps[j], mids[j]
        kin_half = np.exp(-0.25j * h * k2)
        a0_mid = interp_samples(a0_seq, tm)
        v_mid = quad_potential(a0_mid, tm)
        v_right = quad_potential(interp_samples(a0_seq, t1), t1)
        u = u * np.exp(-0.25j * h * v_left)
        u = np.fft.ifft(np.fft.fft(u) * kin_half)
        u = u * np.exp(-0.25j * h * v_mid)
        f = force(j, a0_mid) if force is not None else 0.0
        s = coupling(tm, u, a0_mid) + f
        s = coupling(tm, u - 0.5j * h * s, a0_mid) + f
        u = u - 1j * h * s
        u = u * np.exp(-0.25j * h * v_mid)
        u = np.fft.ifft(np.fft.fft(u) * kin_half)
        u = u * np.exp(-0.25j * h * v_right)
        data[j + 1] = u
        v_left = v_right
    return WaveSeries(times, grid, RESCALED, data)


def old_corrections(a0_seq, phi, U, traj, T, dt):
    """(a1, a2) from the replaced drive, with the coupling and forcing of
    the first- and second-correction functions it served."""
    grid = a0_seq.grid
    mu, dx = grid.points, grid.dx
    hess = hessian_along_flow(traj, U)
    kappa = phi.second_deriv_at_0
    half_kappa = 0.5 * kappa
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0
    powers = np.vander(mu, 5, True).T.copy()

    def coupling(t, u, a0):
        cross = 2.0 * (a0.real * u.real + a0.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * a0

    def forcing_1(mids):
        w3 = U.third(traj.qs_at(mids), mids) / 6.0
        return lambda j, a0: w3[j] * powers[3] * a0

    a1_seq = old_drive(a0_seq, kappa, hess, coupling, T, dt, forcing=forcing_1)

    def forcing_2(mids):
        q = traj.qs_at(mids)
        w3, w4 = U.third(q, mids) / 6.0, U.fourth(q, mids) / 24.0

        def step(j, a0):
            a1 = interp_samples(a1_seq, mids[j])
            dens0 = a0.real ** 2 + a0.imag ** 2
            dens1 = a1.real ** 2 + a1.imag ** 2
            cross01 = 2.0 * (a0.real * a1.real + a0.imag * a1.imag)
            s = w4[j] * powers[4] * a0
            s = s + quartic_coeff * separation_power_form(mu, dens0, dx, 4, powers) * a0
            s = s + half_kappa * separation_power_form(mu, dens1, dx, 2, powers) * a0
            s = s + half_kappa * separation_power_form(mu, cross01, dx, 2, powers) * a1
            return s + w3[j] * powers[3] * a1

        return step

    return a1_seq, old_drive(a0_seq, kappa, hess, coupling, T, dt, forcing=forcing_2)


def max_rel_dev(new, old):
    return float(np.max(np.abs(new.data - old.data)) / np.max(np.abs(old.data)))


@pytest.fixture(scope="module")
def long_stack():
    phi = builtin_pair("cosine")
    U = builtin_external("cosine", [1.0])
    return phi, U, integrate_flow(0.0, 1.0, U, phi.value_at_0, 1.0, 1e-3)


class TestCorrectionDrives:
    T, DT = 0.1, 1e-3

    def test_corrections_match_combined_source_drive(self, stack, gauss, mu_grid):
        # tolerance: max deviation over every node <= 1e-13 of the largest sample
        phi, U, traj, b = stack
        mu, dx = mu_grid.points, mu_grid.dx
        hess = hessian_along_flow(traj, U)
        kappa = phi.second_deriv_at_0

        _, a1, a2 = evolve_corrections(gauss, phi, U, traj, self.T, self.DT, 2).orders
        a1_old = old_drive(b, kappa, hess, old_source_1(mu, dx, phi, U, traj),
                           self.T, self.DT)
        assert np.max(np.abs(a1_old.data)) > 1e-4
        assert max_rel_dev(a1, a1_old) <= 1e-13

        a2_old = old_drive(b, kappa, hess, old_source_2(mu, dx, phi, U, traj, a1),
                           self.T, self.DT)
        assert np.max(np.abs(a2_old.data)) > 1e-4
        assert max_rel_dev(a2, a2_old) <= 1e-13

    @pytest.mark.parametrize("T", [0.1, 1.0])
    @pytest.mark.parametrize("dt", [1e-3, 5e-4])
    def test_matches_old_drive_fed_by_half_step_history(self, long_stack, gauss, T, dt):
        # tolerance: max deviation over every dt node <= 1e-13 (a1) and
        # 1e-9 (a2) of the largest sample (measured up to 9.6e-15 and 1.0e-13)
        phi, U, traj = long_stack
        b = evolve_b(gauss, phi.second_deriv_at_0, hessian_along_flow(traj, U), T, dt / 2)
        a1_old, a2_old = old_corrections(b, phi, U, traj, T, dt)
        _, a1, a2 = evolve_corrections(gauss, phi, U, traj, T, dt, 2).orders
        assert np.array_equal(a1.times, a1_old.times)
        assert max_rel_dev(a1, a1_old) <= 1e-13
        assert max_rel_dev(a2, a2_old) <= 1e-9

    def test_short_final_step_against_old_drive(self, long_stack, gauss):
        # dt does not divide T: the old path read b at the short final
        # step's midpoint as a blend of its history at 0.0999 and T, where
        # the pass evolves b to that midpoint.  Before that step the two
        # agree as above; at T they differ by the blend's error.
        # tolerance: 1e-13 of the largest sample before T, and 1e-9 at T
        # (measured 1.1e-10 for a1 and 6.9e-11 for a2)
        phi, U, traj = long_stack
        T, dt = 0.1, 3e-4
        b = evolve_b(gauss, phi.second_deriv_at_0, hessian_along_flow(traj, U), T, dt / 2)
        a1_old, a2_old = old_corrections(b, phi, U, traj, T, dt)
        _, a1, a2 = evolve_corrections(gauss, phi, U, traj, T, dt, 2).orders
        np.testing.assert_allclose(a1.times[-2:], [0.0999, 0.1], rtol=1e-12)
        for new, old in ((a1, a1_old), (a2, a2_old)):
            scale = np.max(np.abs(old.data))
            assert np.max(np.abs(new.data[:-1] - old.data[:-1])) <= 1e-13 * scale
            assert np.max(np.abs(new.data[-1] - old.data[-1])) <= 1e-9 * scale

    def test_one_node_array_and_no_scalar_lookups_per_drive(self, stack, gauss,
                                                            monkeypatch):
        phi, U, traj, _ = stack
        node_calls = []

        def counted_nodes(T, dt):
            node_calls.append((T, dt))
            return time_nodes(T, dt)

        monkeypatch.setattr(corrections, "time_nodes", counted_nodes)
        monkeypatch.setattr(Trajectory, "q_at", lambda self, t: pytest.fail("scalar q_at"))
        evolve_corrections(gauss, phi, U, traj, self.T, self.DT, 2)
        assert node_calls == [(self.T, self.DT)]
        hess = hessian_along_flow(traj, U)
        evolve_b(gauss, -1.0, hess, self.T, self.DT)
        evolve_beta(gauss, -1.0, hess, self.T, self.DT)

    def test_forcing_once_and_coupling_twice_per_step(self, stack, gauss, monkeypatch):
        # per dt step, the first order's coupling takes one quadratic moment
        # form per call; the second order's forcing takes one quartic and two
        # quadratic forms per call, and its coupling one quadratic
        phi, U, traj, _ = stack
        powers = []
        real = corrections.separation_power_form

        def counted(mu, weight, dx, power, table=None):
            powers.append(power)
            return real(mu, weight, dx, power, table)

        monkeypatch.setattr(corrections, "separation_power_form", counted)
        n = time_nodes(self.T, self.DT).size - 1
        evolve_corrections(gauss, phi, U, traj, self.T, self.DT, 1)
        assert powers == [2] * (2 * n)
        powers.clear()
        evolve_corrections(gauss, phi, U, traj, self.T, self.DT, 2)
        assert powers.count(4) == n
        assert powers.count(2) == 2 * n + 2 * n + 2 * n
