"""Per-step coefficient tables and once-per-step forcing in the correction
orders, checked against the forms they replaced, which are written out here:
among them the correction drive with its own Strang loop, fed by a base
profile history stored at half its step, and the two-coupling deposit and
three-form sources that the closed forms replaced (in helpers.py)."""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

import semihartree.corrections as corrections
from semihartree._stepping import time_nodes
from semihartree.amplitude import evolve_beta
from semihartree.classical import Trajectory, integrate_flow
from semihartree.config import ExperimentConfig
from semihartree.corrections import _deposit, evolve_corrections, separation_power_form
from semihartree.grids import apply_radial_rfft, radial_kernel_rfft
from semihartree.potentials import builtin_external, builtin_pair

from helpers import (correction_drive, evolve_b, interp_samples, node_table, stored_corrections,
                     two_coupling_deposit)


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
    b = evolve_b(gauss, phi.second_deriv_at_0, U.hess(traj.qs_at(time_nodes(0.1, 5e-4))), 0.1,
                 5e-4)
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

    def test_stack_gives_each_rows_coefficients(self, mu_grid, gauss):
        # a (3, n) stack with powers (4, 2, 2): the coefficients, evaluated
        # on the grid, are each row's own form; tolerance as above
        mu, dx = mu_grid.points, mu_grid.dx
        density = np.abs(gauss.samples) ** 2
        weights = np.array([density, np.sin(mu) * density, np.cos(mu) * density - 0.1])
        table = mu ** np.arange(5)[:, None]
        coeffs = separation_power_form(mu, weights, dx, (4, 2, 2), table)
        assert coeffs.shape == (3, 5) and not coeffs[1:, 3:].any()
        for row, power, c in zip(weights, (4, 2, 2), coeffs):
            old = loop_power_form(mu, row, dx, power)
            np.testing.assert_allclose(c @ table, old, rtol=1e-12, atol=1e-12 * np.max(np.abs(old)))


class TestHessianAlongFlow:
    """The solvers take U'' along the path as a node table,
    U.hess(trajectory.qs_at(nodes)), from one vectorised lookup."""

    def test_array_matches_scalar_calls_at_nodes_and_midpoints(self, stack):
        # tolerance: 1e-15 absolute (|U''| <= 1 for the cosine potential)
        _, U, traj, _ = stack
        nodes = time_nodes(0.1, 1e-3)
        mids = nodes[:-1] + 0.5 * np.diff(nodes)
        hess = lambda t: U.hess(traj.qs_at(t))  # noqa: E731
        for times in (nodes, mids):
            scalar = [float(U.hess(traj.q_at(t))) for t in times]
            np.testing.assert_allclose(hess(times), scalar, rtol=0, atol=1e-15)
        assert isinstance(hess(0.05), float)

    def test_array_call_makes_one_hess_call_and_no_scalar_lookup(self, stack, gauss,
                                                                 monkeypatch):
        # the correction build reads U'' on its 201 interleaved nodes in one call
        phi, U, traj, _ = stack
        calls = []
        counted = replace(U, hess=lambda x: calls.append(np.shape(x)) or U.hess(x))
        monkeypatch.setattr(Trajectory, "q_at", lambda self, t: pytest.fail("scalar q_at"))
        evolve_corrections(gauss, phi, counted, traj, 0.1, 1e-3, 1)
        assert calls == [(201,)]


def old_source_1(mu, dx, phi, U, traj):
    """The single combined source closure of the first correction."""
    half_kappa = 0.5 * phi.second_deriv_at_0

    def source(t, u, a0):
        cross = 2.0 * (a0.real * u.real + a0.imag * u.imag)
        coupled = half_kappa * loop_power_form(mu, cross, dx, 2) * a0
        return coupled + (float(U.third(traj.q_at(t))) / 6.0) * mu ** 3 * a0

    return source


def old_source_2(mu, dx, phi, U, traj, a1_seq):
    """The single combined source closure of the second correction."""
    half_kappa = 0.5 * phi.second_deriv_at_0
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0

    def source(t, u, a0):
        q = traj.q_at(t)
        a1 = interp_samples(*a1_seq, t)
        dens0 = a0.real ** 2 + a0.imag ** 2
        dens1 = a1.real ** 2 + a1.imag ** 2
        cross02 = 2.0 * (a0.real * u.real + a0.imag * u.imag)
        cross01 = 2.0 * (a0.real * a1.real + a0.imag * a1.imag)
        s = half_kappa * loop_power_form(mu, cross02, dx, 2) * a0
        s = s + (float(U.fourth(q)) / 24.0) * mu ** 4 * a0
        s = s + quartic_coeff * loop_power_form(mu, dens0, dx, 4) * a0
        s = s + half_kappa * loop_power_form(mu, dens1, dx, 2) * a0
        s = s + half_kappa * loop_power_form(mu, cross01, dx, 2) * a1
        s = s + (float(U.third(q)) / 6.0) * mu ** 3 * a1
        return s

    return source


def old_drive(grid, a0_seq, kappa, hess_fn, coupling, T, dt, *, forcing=None):
    """The correction drive that `evolve_corrections` replaced: a zero-data
    linear problem on `grid` stepped by its own Strang loop, whose potential
    it rebuilds from the base history `a0_seq`, its (node times, states)
    (read at the nodes and step midpoints, blended linearly between stored
    nodes).  Each step applies half of the homogeneous propagator, deposits
    -i*dt*s at the midpoint, then the second half: s is coupling(t, u, a0),
    refreshed by one fixed-point update of u, plus forcing(mids)(j, a0).
    Returns (node times, states)."""
    mu = grid.points
    x2_half = 0.5 * mu ** 2
    k2 = grid.wavenumbers ** 2
    khat = radial_kernel_rfft(lambda r: r * r, grid)
    half_kappa = 0.5 * kappa
    times = time_nodes(T, dt)
    steps = np.diff(times)
    mids = times[:-1] + 0.5 * steps
    both = np.sort(np.concatenate([times, mids]))
    hess = node_table(hess_fn, both)
    force = forcing(mids) if forcing is not None else None

    def quad_potential(a0_samples, t):
        density = a0_samples.real ** 2 + a0_samples.imag ** 2
        return (half_kappa * apply_radial_rfft(khat, density, grid)
                + hess[np.searchsorted(both, t)] * x2_half)

    u = np.zeros(grid.n, dtype=np.complex128)
    data = np.empty((times.size, grid.n), dtype=np.complex128)
    data[0] = u
    v_left = quad_potential(interp_samples(*a0_seq, times[0]), times[0])
    for j in range(times.size - 1):
        t1, h, tm = times[j + 1], steps[j], mids[j]
        kin_half = np.exp(-0.25j * h * k2)
        a0_mid = interp_samples(*a0_seq, tm)
        v_mid = quad_potential(a0_mid, tm)
        v_right = quad_potential(interp_samples(*a0_seq, t1), t1)
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
    return times, data


def old_corrections(grid, a0_seq, phi, U, traj, T, dt):
    """(a1, a2) from the replaced drive, each its (node times, states), with
    the coupling and forcing of the first- and second-correction functions
    it served."""
    mu, dx = grid.points, grid.dx
    hess = lambda t: U.hess(traj.qs_at(t))  # noqa: E731
    kappa = phi.second_deriv_at_0
    half_kappa = 0.5 * kappa
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0
    powers = np.vander(mu, 5, True).T.copy()

    def coupling(t, u, a0):
        cross = 2.0 * (a0.real * u.real + a0.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * a0

    def forcing_1(mids):
        w3 = U.third(traj.qs_at(mids)) / 6.0
        return lambda j, a0: w3[j] * powers[3] * a0

    a1_seq = old_drive(grid, a0_seq, kappa, hess, coupling, T, dt, forcing=forcing_1)

    def forcing_2(mids):
        q = traj.qs_at(mids)
        w3, w4 = U.third(q) / 6.0, U.fourth(q) / 24.0

        def step(j, a0):
            a1 = interp_samples(*a1_seq, mids[j])
            dens0 = a0.real ** 2 + a0.imag ** 2
            dens1 = a1.real ** 2 + a1.imag ** 2
            cross01 = 2.0 * (a0.real * a1.real + a0.imag * a1.imag)
            s = w4[j] * powers[4] * a0
            s = s + quartic_coeff * separation_power_form(mu, dens0, dx, 4, powers) * a0
            s = s + half_kappa * separation_power_form(mu, dens1, dx, 2, powers) * a0
            s = s + half_kappa * separation_power_form(mu, cross01, dx, 2, powers) * a1
            return s + w3[j] * powers[3] * a1

        return step

    return a1_seq, old_drive(grid, a0_seq, kappa, hess, coupling, T, dt, forcing=forcing_2)


def sampled_runs(times, run):
    """{i: run(times[i])} at three node indices i: a third and two thirds
    of the way through, and the last."""
    last = times.size - 1
    return {i: run(times[i]) for i in (last // 3, 2 * last // 3, last)}


def max_rel_dev(runs, k, old):
    """Largest deviation of order k of each run in `runs` from the row of
    the states `old` at the node it ends at, relative to the largest
    sample of `old`."""
    dev = max(np.max(np.abs(orders[k].samples - old[i])) for i, orders in runs.items())
    return float(dev / np.max(np.abs(old)))


@pytest.fixture(scope="module")
def long_stack():
    phi = builtin_pair("cosine")
    U = builtin_external("cosine", [1.0])
    return phi, U, integrate_flow(0.0, 1.0, U, phi.value_at_0, 1.0, 1e-3)


class TestClosedForms:
    """The deposit with one coupling and the second order's sources from
    one moment-form call against the two-coupling deposit and three-form
    sources they replaced: equal in exact arithmetic, because coupling(u, b)
    is a real multiple of b, and -0.5j*h times it adds nothing to the
    Re(conj(b) u) that the coupling reads."""

    @pytest.fixture(scope="class")
    def default(self):
        config = ExperimentConfig(mode="corrections-2")
        return config, config.pair(), config.external(), config.initial_profile()

    def test_per_call_on_the_default_grid(self, default):
        # tolerance: 1e-14 of the old deposit's step and of the largest old
        # source sample (measured 1.5e-16, 0 and 4.3e-16); dropping the
        # forcing from the coupling's argument moves the second order's
        # deposit by 1.4e-4 of its step
        config, phi, U, a0 = default
        traj = integrate_flow(config.q0, config.p0, U, phi.value_at_0, 0.2, 1e-3)
        d = correction_drive(a0, phi, U, traj, 0.2, 1e-3, ())
        mu, j = a0.grid.points, 100
        b = a0.samples * np.exp(0.3j * mu ** 2 - 0.2j * mu)
        a1 = 0.4 * mu * a0.samples * np.exp(0.5j * mu)
        u = 0.2 * (mu ** 2 - 1.0) * a0.samples * np.exp(-0.7j * mu)
        new_source, old_source = d.second(j, b, a1), d.three_form_second(j, b, a1)
        scale = np.max(np.abs(old_source))
        assert np.max(np.abs(new_source - old_source)) <= 1e-14 * scale
        # the first order's forcing keeps Im(conj(b) f) = 0; the second's does not
        assert np.max(np.abs(np.imag(np.conj(b) * new_source))) > 1e-3
        for f in (d.first(j, b), new_source):
            new, old = u.copy(), u.copy()
            _deposit(new, b, d.steps[j], d.coupling, f)
            two_coupling_deposit(old, b, d.steps[j], d.coupling, f)
            assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old - u))

    @pytest.mark.parametrize("K", [1, 2])
    @pytest.mark.parametrize("level", [1, 2])
    def test_orders_at_T_of_the_default_levels(self, default, level, K):
        # b bit for bit; relative L2 at T <= 5e-14 (a1) and 2e-13 (a2),
        # measured up to 7.7e-15 and 3.7e-14 over these four runs
        config, phi, U, a0 = default
        dt = config.mu_dt() / level
        traj = integrate_flow(config.q0, config.p0, U, phi.value_at_0, config.T, min(1e-3, dt))
        orders = evolve_corrections(a0, phi, U, traj, config.T, dt, K)
        _, old = stored_corrections(a0, phi, U, traj, config.T, dt, K, reference=True)
        assert orders[0].samples.tobytes() == old[0][-1].tobytes()
        for psi, data, bound in zip(orders[1:], old[1:], (5e-14, 2e-13)):
            assert np.linalg.norm(psi.samples - data[-1]) <= bound * np.linalg.norm(data[-1])


class TestCorrectionDrives:
    T, DT = 0.1, 1e-3

    def test_corrections_match_combined_source_drive(self, stack, gauss, mu_grid):
        # tolerance: max deviation at the sampled end nodes <= 1e-13 of the
        # largest sample
        phi, U, traj, b = stack
        mu, dx = mu_grid.points, mu_grid.dx
        hess = lambda t: U.hess(traj.qs_at(t))  # noqa: E731
        kappa = phi.second_deriv_at_0

        times, a1_old = old_drive(mu_grid, b, kappa, hess, old_source_1(mu, dx, phi, U, traj),
                                  self.T, self.DT)
        runs = sampled_runs(times, lambda T: evolve_corrections(gauss, phi, U, traj, T,
                                                                self.DT, 2))
        assert np.max(np.abs(a1_old)) > 1e-4
        assert max_rel_dev(runs, 1, a1_old) <= 1e-13

        # the first correction at every dt node, from the path that stored it
        _, (_, a1) = stored_corrections(gauss, phi, U, traj, self.T, self.DT, 1, range(times.size))
        _, a2_old = old_drive(mu_grid, b, kappa, hess,
                              old_source_2(mu, dx, phi, U, traj, (times, a1)), self.T, self.DT)
        assert np.max(np.abs(a2_old)) > 1e-4
        assert max_rel_dev(runs, 2, a2_old) <= 1e-13

    @pytest.mark.parametrize("T", [0.1, 1.0])
    @pytest.mark.parametrize("dt", [1e-3, 5e-4])
    def test_matches_old_drive_fed_by_half_step_history(self, long_stack, gauss, T, dt):
        # tolerance: max deviation at the sampled end nodes <= 1e-13 (a1)
        # and 1e-9 (a2) of the largest sample (measured up to 8.6e-15 and 7.9e-14)
        phi, U, traj = long_stack
        b = evolve_b(gauss, phi.second_deriv_at_0, U.hess(traj.qs_at(time_nodes(T, dt / 2))), T,
                     dt / 2)
        (times, a1_old), (_, a2_old) = old_corrections(gauss.grid, b, phi, U, traj, T, dt)
        assert np.array_equal(time_nodes(T, dt), times)
        runs = sampled_runs(times, lambda end: evolve_corrections(gauss, phi, U, traj, end, dt, 2))
        assert max_rel_dev(runs, 1, a1_old) <= 1e-13
        assert max_rel_dev(runs, 2, a2_old) <= 1e-9

    def test_short_final_step_against_old_drive(self, long_stack, gauss):
        # dt does not divide T: the old path read b at the short final
        # step's midpoint as a blend of its history at 0.0999 and T, where
        # the pass evolves b to that midpoint.  A run to 0.0999 agrees as
        # above; at T they differ by the blend's error.
        # tolerance: 1e-13 of the largest sample for the run to 0.0999, and
        # 1e-9 for the run to T (measured 1.1e-10 for a1 and 6.9e-11 for a2)
        phi, U, traj = long_stack
        T, dt = 0.1, 3e-4
        b = evolve_b(gauss, phi.second_deriv_at_0, U.hess(traj.qs_at(time_nodes(T, dt / 2))), T,
                     dt / 2)
        (times, a1_old), (_, a2_old) = old_corrections(gauss.grid, b, phi, U, traj, T, dt)
        np.testing.assert_allclose(times[-2:], [0.0999, 0.1], rtol=1e-12)
        for row, bound in ((-2, 1e-13), (-1, 1e-9)):
            orders = evolve_corrections(gauss, phi, U, traj, times[row], dt, 2)
            for new, old in ((orders[1], a1_old), (orders[2], a2_old)):
                scale = np.max(np.abs(old))
                assert np.max(np.abs(new.samples - old[row])) <= bound * scale

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
        hess = U.hess(traj.qs_at(time_nodes(self.T, self.DT)))
        evolve_b(gauss, -1.0, hess, self.T, self.DT)
        evolve_beta(gauss, -1.0, hess, self.T, self.DT)

    def test_forcing_once_and_coupling_once_per_step(self, stack, gauss, monkeypatch):
        # per dt step, each order's deposit calls its coupling once, for one
        # quadratic moment form; the second order's forcing takes its quartic
        # and two quadratic forms from one call on a stack of three weights
        phi, U, traj, _ = stack
        powers = []
        real = corrections.separation_power_form

        def counted(mu, weight, dx, power, table=None):
            powers.append(power)
            return real(mu, weight, dx, power, table)

        monkeypatch.setattr(corrections, "separation_power_form", counted)
        n = time_nodes(self.T, self.DT).size - 1
        evolve_corrections(gauss, phi, U, traj, self.T, self.DT, 1)
        assert powers == [2] * n
        powers.clear()
        evolve_corrections(gauss, phi, U, traj, self.T, self.DT, 2)
        assert powers == [2] + [(4, 2, 2), 2, 2] * (n - 1) + [(4, 2, 2), 2]
