import tracemalloc

import numpy as np
import pytest

from semihartree._stepping import _resolve_store, tabulate, time_nodes
from semihartree.amplitude import b_potential, evolve_b
from semihartree.classical import hessian_along_flow, integrate_flow
from semihartree.corrections import (
    CorrectionSet,
    _interleaved_nodes,
    _pass,
    assemble_expansion,
    evolve_corrections,
    separation_power_form,
)
from semihartree.errors import NumericalError
from semihartree.grids import (
    RESCALED,
    WaveSeries,
    apply_radial_rfft,
    first_moment,
    gaussian_profile,
    make_grid,
    radial_kernel_rfft,
)
from semihartree.potentials import builtin_external, builtin_pair

from helpers import interp_samples


def series_norm(series, i=-1):
    return float(np.sqrt(np.sum(np.abs(series.data[i]) ** 2) * series.grid.dx))


def rk4_lines_oracle(grid, b_fine, kappa, hess_fn, source_fn, T, dt):
    """Independent reference: classic RK4 in time on the semi-discrete
    equation with a spectral Laplacian, all terms evaluated together."""
    mu = grid.points
    k2 = grid.wavenumbers ** 2
    khat = radial_kernel_rfft(lambda r: r * r, grid)

    def rhs(t, u):
        base = interp_samples(b_fine, t)
        density = base.real ** 2 + base.imag ** 2
        vq = (0.5 * kappa * apply_radial_rfft(khat, density, grid)
              + hess_fn(t) * 0.5 * mu ** 2)
        hu = np.fft.ifft(0.5 * k2 * np.fft.fft(u)) + vq * u
        return -1j * (hu + source_fn(t, u, base))

    steps = int(round(T / dt))
    u = np.zeros(grid.n, dtype=complex)
    for j in range(steps):
        t = j * dt
        k1 = rhs(t, u)
        k2_ = rhs(t + 0.5 * dt, u + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, u + 0.5 * dt * k2_)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2.0 * k2_ + 2.0 * k3 + k4)
    return u


@pytest.fixture(scope="module")
def quadratic_stack(gauss):
    phi = builtin_pair("quadratic", [1.0, -1.0])
    U = builtin_external("harmonic", [1.0])
    traj = integrate_flow(0.0, 1.0, U, 1.0, 1.0, 1e-3)
    return evolve_corrections(gauss, phi, U, traj, 1.0, 1e-3, 2)


@pytest.fixture(scope="module")
def cosine_driven():
    phi = builtin_pair("cosine")
    U = builtin_external("cosine", [1.0])
    traj = integrate_flow(0.0, 1.0, U, 1.0, 1.0, 1e-3)
    return phi, U, traj


class TestZeroSources:
    def test_first_correction_vanishes(self, quadratic_stack):
        a1 = quadratic_stack.orders[1]
        assert len(a1) == 1001
        assert max(series_norm(a1, i) for i in range(len(a1))) <= 1e-12

    def test_second_correction_vanishes(self, quadratic_stack):
        a2 = quadratic_stack.orders[2]
        assert max(series_norm(a2, i) for i in range(len(a2))) <= 1e-12

    def test_expansion_collapses(self, quadratic_stack):
        cset = quadratic_stack
        for K in (0, 1, 2):
            assembled = assemble_expansion(cset, K, 0.08)
            assert np.array_equal(assembled.samples, cset.orders[0].final.samples)


class TestShortTimeOracles:
    T = 0.01

    def test_first_correction_cubic_external(self, mu_grid, gauss):
        # no pair interaction, stationary trajectory: the only source is the
        # cubic external term and the homogeneous flow is free
        phi = builtin_pair("zero")
        U = builtin_external("cubic_window", [1.0])
        traj = integrate_flow(0.0, 0.0, U, 0.0, self.T, 1e-4)
        hess = hessian_along_flow(traj, U)
        b = evolve_b(gauss, 0.0, hess, self.T, 6.25e-5)
        mu = mu_grid.points

        def source(t, u, base):
            return (float(U.third(traj.q_at(t), t)) / 6.0) * mu ** 3 * base

        oracle = rk4_lines_oracle(mu_grid, b, 0.0, hess, source, self.T, 2e-5)
        a1 = evolve_corrections(gauss, phi, U, traj, self.T, 2.5e-4, 1).orders[1]
        rel = (np.sqrt(np.sum(np.abs(a1.data[-1] - oracle) ** 2) * mu_grid.dx)
               / np.sqrt(np.sum(np.abs(oracle) ** 2) * mu_grid.dx))
        assert rel <= 1e-5
        # leading short-time form: -i T * (third/3!) mu^3 * profile
        lead = -1j * self.T * mu ** 3 * gauss.samples
        lead_rel = (np.sqrt(np.sum(np.abs(a1.data[-1] - lead) ** 2) * mu_grid.dx)
                    / np.sqrt(np.sum(np.abs(lead) ** 2) * mu_grid.dx))
        assert lead_rel <= 5e-2

    def test_second_correction_quartic_pair(self, mu_grid, gauss):
        # cosine pair, no external: the first correction stays zero and the
        # quartic interaction drives the second correction
        phi = builtin_pair("cosine")
        U = builtin_external("zero")
        traj = integrate_flow(0.0, 0.0, U, phi.value_at_0, self.T, 1e-4)
        hess = hessian_along_flow(traj, U)
        b = evolve_b(gauss, -1.0, hess, self.T, 6.25e-5)
        mu = mu_grid.points
        dx = mu_grid.dx

        _, a1, a2 = evolve_corrections(gauss, phi, U, traj, self.T, 2.5e-4, 2).orders
        assert series_norm(a1) == 0.0

        def source(t, u, base):
            density = base.real ** 2 + base.imag ** 2
            cross = 2.0 * (base.real * u.real + base.imag * u.imag)
            return (-0.5 * separation_power_form(mu, cross, dx, 2) * base
                    + (1.0 / 24.0) * separation_power_form(mu, density, dx, 4)
                    * base)

        oracle = rk4_lines_oracle(mu_grid, b, -1.0, hess, source, self.T, 2e-5)
        rel = (np.sqrt(np.sum(np.abs(a2.data[-1] - oracle) ** 2) * dx)
               / np.sqrt(np.sum(np.abs(oracle) ** 2) * dx))
        assert rel <= 1e-5
        # leading short-time form from the quartic separation moment
        density = np.abs(gauss.samples) ** 2
        lead = (-1j * self.T / 24.0
                * separation_power_form(mu, density, dx, 4) * gauss.samples)
        lead_rel = (np.sqrt(np.sum(np.abs(a2.data[-1] - lead) ** 2) * dx)
                    / np.sqrt(np.sum(np.abs(lead) ** 2) * dx))
        assert lead_rel <= 5e-2


class TestCosineDriven:
    def test_first_correction_step_halving_stable(self, cosine_driven, gauss):
        phi, U, traj = cosine_driven
        vals = []
        for dt in (1e-3, 5e-4):
            a1 = evolve_corrections(gauss, phi, U, traj, 1.0, dt, 1, (1.0,)).orders[1]
            vals.append(series_norm(a1))
        assert all(np.isfinite(v) for v in vals)
        assert abs(vals[0] - vals[1]) / vals[1] < 0.02

    def test_second_correction_step_halving_stable(self, cosine_driven, gauss):
        phi, U, traj = cosine_driven
        vals = []
        for dt in (1e-3, 5e-4):
            a2 = evolve_corrections(gauss, phi, U, traj, 1.0, dt, 2, (1.0,)).orders[2]
            vals.append(series_norm(a2))
        assert abs(vals[0] - vals[1]) / vals[1] < 0.02

    def test_first_moment_measured(self, cosine_driven, gauss):
        # centering of the first correction is observed, not asserted
        phi, U, traj = cosine_driven
        a1 = evolve_corrections(gauss, phi, U, traj, 1.0, 1e-3, 1, (1.0,)).orders[1]
        fm = first_moment(a1.final)
        assert np.isfinite(fm)
        print(f"first-correction first moment at T=1: {fm:.3e}")


class TestCorrectionGuard:
    def test_correction_row_leaving_the_window_names_itself(self):
        # on a narrow window b stays inside the guard, while the first
        # correction, weighted by mu^3, reaches the edge cells
        grid = make_grid(128, -6.0, 6.0)
        a0 = gaussian_profile(grid)
        phi = builtin_pair("zero")
        U = builtin_external("cubic_window", [1.0])
        traj = integrate_flow(0.0, 0.0, U, 0.0, 0.5, 1e-3)
        evolve_b(a0, 0.0, hessian_along_flow(traj, U), 0.5, 5e-4)  # passes
        with pytest.raises(NumericalError,
                           match=r"^first correction: boundary mass fraction") as err:
            evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 1)
        assert err.value.row == 1

    @staticmethod
    def window_case(half_width):
        grid = make_grid(128, -half_width, half_width)
        U = builtin_external("cubic_window", [1.0])
        traj = integrate_flow(0.0, 0.0, U, 0.0, 0.5, 1e-3)
        return gaussian_profile(grid), builtin_pair("zero"), U, traj

    # at K=2 the two passes run in lockstep, so the correction that reaches
    # the guard first in time fails: on [-5, 5] the first does at t=0.01; on
    # [-6, 6] the second does at the first midpoint, before the first
    # reaches it at t=0.21 (the case above)
    @pytest.mark.parametrize("half_width, label", [(5.0, "first correction"),
                                                   (6.0, "second correction")])
    def test_second_order_names_the_earlier_row(self, half_width, label):
        a0, phi, U, traj = self.window_case(half_width)
        with pytest.raises(NumericalError, match=rf"^{label}: boundary mass fraction") as err:
            evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 2)
        assert err.value.row == 1

    def test_only_the_second_correction_leaving_the_window_names_itself(self):
        # on [-7, 7] b and the first correction stay inside the guard
        a0, phi, U, traj = self.window_case(7.0)
        evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 1)  # passes
        with pytest.raises(NumericalError,
                           match=r"^second correction: boundary mass fraction") as err:
            evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 2)
        assert err.value.row == 1


class TestExpansionOrders:
    # (epsilon, error) rows and fitted slope of the default corrections-1
    # sweep, captured from the drive that `evolve_corrections` replaced;
    # every row settles at dt=5e-4 on n=512
    CORRECTIONS_1_ROWS = (
        (0.08, 0.19724388423760122),
        (0.04, 0.10563154473409427),
        (0.02, 0.05450691885842185),
        (0.01, 0.027566462104273607),
        (0.005, 0.013824983753636387),
    )
    CORRECTIONS_1_SLOPE = 0.9607316459636454

    def test_second_order_improves_on_first(self):
        # each added order steepens the measured rate
        from semihartree.config import ExperimentConfig
        from semihartree.sweep import run_sweep

        rep1 = run_sweep(ExperimentConfig(mode="corrections-1"))
        rep2 = run_sweep(ExperimentConfig(mode="corrections-2"))
        assert rep2.fitted_slope - rep1.fitted_slope >= 0.2
        assert rep2.fit_r2 >= 0.99
        # tolerance: rtol 1e-9 on every error and on the slope
        assert [r.epsilon for r in rep1.rows] == [e for e, _ in self.CORRECTIONS_1_ROWS]
        np.testing.assert_allclose([r.error for r in rep1.rows],
                                   [err for _, err in self.CORRECTIONS_1_ROWS], rtol=1e-9)
        assert [(r.dt_used, r.n_used) for r in rep1.rows] == [(5e-4, 512)] * 5
        assert rep1.fitted_slope == pytest.approx(self.CORRECTIONS_1_SLOPE, rel=1e-9)


class TestDuhamelLinearity:
    def test_external_source_additivity(self, mu_grid, gauss):
        # frozen homogeneous background, two externally supplied source
        # streams: the accumulated responses add exactly
        U = builtin_external("cosine", [1.0])
        traj = integrate_flow(0.0, 1.0, U, 1.0, 0.2, 1e-3)
        hess = hessian_along_flow(traj, U)
        mu = mu_grid.points
        _, steps, nodes = _interleaved_nodes(0.2, 1e-3)
        mids = nodes[1::2]
        potential = b_potential(mu_grid, -1.0, tabulate(hess, nodes))
        no_coupling = lambda u, base: 0.0 * u

        def response(forcing):
            ((_, final),) = _pass(gauss.samples, mu_grid, nodes, steps, potential,
                                  no_coupling, forcing, [nodes.size - 1], "response")
            return final[1].copy()

        src_a = lambda j, base: mu ** 3 * base
        src_b = lambda j, base: np.sin(mu) * base * np.cos(mids[j])
        src_ab = lambda j, base: src_a(j, base) + src_b(j, base)
        ra, rb, rab = response(src_a), response(src_b), response(src_ab)
        dev = np.max(np.abs(ra + rb - rab))
        assert dev < 1e-12


def stored_first_pass_corrections(a0, phi, U, traj, T, dt, store_times):
    """The orders of `evolve_corrections(K=2)` by the path it replaced: the
    first pass stored at every dt node, then the second pass reading it at
    each midpoint through `interp_samples`."""
    grid = a0.grid
    mu, dx = grid.points, grid.dx
    half_kappa = 0.5 * phi.second_deriv_at_0
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0
    coarse, steps, nodes = _interleaved_nodes(T, dt)
    store_idx = _resolve_store(nodes, coarse[_resolve_store(coarse, store_times)])
    potential = b_potential(grid, phi.second_deriv_at_0,
                            tabulate(hessian_along_flow(traj, U), nodes))
    mids = nodes[1::2]
    q = traj.qs_at(mids)
    w3, w4 = U.third(q, mids) / 6.0, U.fourth(q, mids) / 24.0
    powers = np.vander(mu, 5, True).T.copy()

    def coupling(u, b):
        cross = 2.0 * (b.real * u.real + b.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * b

    def run(forcing, visit, label):
        return np.array([psi.copy() for _, psi in _pass(
            a0.samples, grid, nodes, steps, potential, coupling, forcing, visit, label)])

    evens = np.arange(0, nodes.size, 2)
    data1 = run(lambda j, b: w3[j] * powers[3] * b, evens, "first correction")
    a1_seq = WaveSeries(nodes[evens], grid, RESCALED, data1[:, 1])

    def second(j, b):
        a1 = interp_samples(a1_seq, mids[j])
        dens0 = b.real ** 2 + b.imag ** 2
        dens1 = a1.real ** 2 + a1.imag ** 2
        cross01 = 2.0 * (b.real * a1.real + b.imag * a1.imag)
        s = w4[j] * powers[4] * b
        s = s + quartic_coeff * separation_power_form(mu, dens0, dx, 4, powers) * b
        s = s + half_kappa * separation_power_form(mu, dens1, dx, 2, powers) * b
        s = s + half_kappa * separation_power_form(mu, cross01, dx, 2, powers) * a1
        return s + w3[j] * powers[3] * a1

    data2 = run(second, store_idx, "second correction")
    return nodes[store_idx], (data2[:, 0], data1[store_idx // 2, 1], data2[:, 1])


class TestLockstep:
    """The two correction passes run in lockstep, the second reading a
    two-row window of the first; every order equals the stored-pass path
    bit for bit."""

    @pytest.mark.parametrize("store", ["every-node", "final-only"])
    @pytest.mark.parametrize("dt", [1e-3, 3e-4], ids=["dividing", "short-last-step"])
    def test_orders_equal_the_stored_first_pass(self, cosine_driven, gauss, store, dt):
        phi, U, traj = cosine_driven
        T = 0.1
        store_times = None if store == "every-node" else (T,)
        times, oracle = stored_first_pass_corrections(gauss, phi, U, traj, T, dt,
                                                      store_times)
        orders = evolve_corrections(gauss, phi, U, traj, T, dt, 2, store_times).orders
        assert len(orders) == 3
        assert times.size == (1 if store_times else time_nodes(T, dt).size)
        for series, data in zip(orders, oracle):
            np.testing.assert_array_equal(series.times, times)
            np.testing.assert_array_equal(series.data, data)
        assert np.max(np.abs(orders[2].data[-1])) > 1e-4  # the window is live

    def test_second_order_keeps_no_history(self, cosine_driven, gauss):
        # one (2, n) store of the first pass over the default level-2 run
        # (dt 5e-4) would be 2001 x 2 x 512 x 16 B = 32.8 MB
        phi, U, _ = cosine_driven
        traj = integrate_flow(0.0, 1.0, U, phi.value_at_0, 1.0, 5e-4)
        tracemalloc.start()
        try:
            evolve_corrections(gauss, phi, U, traj, 1.0, 5e-4, 2, store_times=(1.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestAssembleExpansion:
    def test_base_only(self, gauss):
        U = builtin_external("zero")
        traj = integrate_flow(0.0, 0.0, U, 0.0, 0.1, 1e-3)
        b = evolve_b(gauss, 0.0, hessian_along_flow(traj, U), 0.1, 1e-3)
        cset = CorrectionSet((b,))
        out = assemble_expansion(cset, 0, 0.04)
        assert np.array_equal(out.samples, b.final.samples)

    def test_missing_orders_rejected(self, gauss):
        U = builtin_external("zero")
        traj = integrate_flow(0.0, 0.0, U, 0.0, 0.1, 1e-3)
        b = evolve_b(gauss, 0.0, hessian_along_flow(traj, U), 0.1, 1e-3)
        cset = CorrectionSet((b,))
        with pytest.raises(ValueError, match="missing correction orders"):
            assemble_expansion(cset, 1, 0.04)
