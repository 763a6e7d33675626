import numpy as np
import pytest

from semihartree._stepping import tabulate
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
    apply_radial_rfft,
    first_moment,
    gaussian_profile,
    make_grid,
    radial_kernel_rfft,
)
from semihartree.potentials import builtin_external, builtin_pair


def series_norm(series, i=-1):
    return float(np.sqrt(np.sum(np.abs(series.data[i]) ** 2) * series.grid.dx))


def rk4_lines_oracle(grid, b_fine, kappa, hess_fn, source_fn, T, dt):
    """Independent reference: classic RK4 in time on the semi-discrete
    equation with a spectral Laplacian, all terms evaluated together."""
    mu = grid.points
    k2 = grid.wavenumbers ** 2
    khat = radial_kernel_rfft(lambda r: r * r, grid)

    def rhs(t, u):
        base = b_fine.interp_samples(t)
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
        coarse, steps, nodes = _interleaved_nodes(0.2, 1e-3)
        mids = nodes[1::2]
        potential = b_potential(mu_grid, -1.0, tabulate(hess, nodes))
        no_coupling = lambda u, base: 0.0 * u

        def response(forcing):
            _, data = _pass(gauss.samples, mu_grid, nodes, steps, potential,
                            no_coupling, forcing, coarse[-1:], "response")
            return data[-1, 1]

        src_a = lambda j, base: mu ** 3 * base
        src_b = lambda j, base: np.sin(mu) * base * np.cos(mids[j])
        src_ab = lambda j, base: src_a(j, base) + src_b(j, base)
        ra, rb, rab = response(src_a), response(src_b), response(src_ab)
        dev = np.max(np.abs(ra + rb - rab))
        assert dev < 1e-12


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
