"""Per-step coefficient tables and once-per-step forcing in the correction
drives, checked against the forms they replaced, which are written out here."""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

import semihartree.corrections as corrections
from semihartree._stepping import tabulate, time_nodes
from semihartree.amplitude import evolve_b, evolve_beta
from semihartree.classical import Trajectory, hessian_along_flow, integrate_flow
from semihartree.corrections import (
    _drive,
    evolve_correction_1,
    evolve_correction_2,
    separation_power_form,
)
from semihartree.potentials import builtin_external, builtin_pair


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
        a1 = a1_seq.interp_samples(t)
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


def max_rel_dev(new, old):
    return float(np.max(np.abs(new.data - old.data)) / np.max(np.abs(old.data)))


class TestCorrectionDrives:
    T, DT = 0.1, 1e-3

    def test_corrections_match_combined_source_drive(self, stack, mu_grid):
        # tolerance: max deviation over every node <= 1e-13 of the largest sample
        phi, U, traj, b = stack
        mu, dx = mu_grid.points, mu_grid.dx
        hess = hessian_along_flow(traj, U)
        kappa = phi.second_deriv_at_0

        a1 = evolve_correction_1(b, phi, U, traj, self.T, self.DT)
        a1_old = _drive(b, kappa, hess, old_source_1(mu, dx, phi, U, traj), self.T, self.DT)
        assert np.max(np.abs(a1_old.data)) > 1e-4
        assert max_rel_dev(a1, a1_old) <= 1e-13

        a2 = evolve_correction_2(b, a1, phi, U, traj, self.T, self.DT)
        a2_old = _drive(b, kappa, hess, old_source_2(mu, dx, phi, U, traj, a1),
                        self.T, self.DT)
        assert np.max(np.abs(a2_old.data)) > 1e-4
        assert max_rel_dev(a2, a2_old) <= 1e-13

    def test_one_node_array_and_no_scalar_lookups_per_drive(self, stack, gauss,
                                                            monkeypatch):
        phi, U, traj, b = stack
        node_calls = []

        def counted_nodes(T, dt):
            node_calls.append((T, dt))
            return time_nodes(T, dt)

        monkeypatch.setattr(corrections, "time_nodes", counted_nodes)
        monkeypatch.setattr(Trajectory, "q_at", lambda self, t: pytest.fail("scalar q_at"))
        a1 = evolve_correction_1(b, phi, U, traj, self.T, self.DT)
        assert node_calls == [(self.T, self.DT)]
        evolve_correction_2(b, a1, phi, U, traj, self.T, self.DT)
        assert node_calls == [(self.T, self.DT)] * 2
        hess = hessian_along_flow(traj, U)
        evolve_b(gauss, -1.0, hess, self.T, self.DT)
        evolve_beta(gauss, -1.0, hess, self.T, self.DT)

    def test_forcing_once_and_coupling_twice_per_step(self, stack):
        phi, U, traj, b = stack
        steps, couplings = [], []

        def forcing(mids):
            return lambda j, a0: steps.append(j) or 0.0 * a0

        def coupling(t, u, a0):
            couplings.append(t)
            return 0.0 * u

        _drive(b, -1.0, hessian_along_flow(traj, U), coupling, self.T, self.DT,
               forcing=forcing)
        n = time_nodes(self.T, self.DT).size - 1
        assert steps == list(range(n))
        assert len(couplings) == 2 * n
