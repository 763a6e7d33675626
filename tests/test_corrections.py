import re
import tracemalloc

import numpy as np
import pytest

from semihartree import _stepping, amplitude
from semihartree._stepping import GUARD_MASS, time_nodes
from semihartree.amplitude import B_LABEL, b_potential
from semihartree.classical import integrate_flow
from semihartree.corrections import (
    _interleaved_nodes,
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
from semihartree.rescaled import evolve_wave

from helpers import (correction_drive, correction_pass, evolve_b, interp_samples,
                     own_b_corrections, stored_corrections)


def norm(psi):
    return float(np.sqrt(np.sum(np.abs(psi.samples) ** 2) * psi.grid.dx))


def sampled_ends(T, dt):
    """Three node times of `time_nodes(T, dt)` at which a run can end: a
    third and two thirds of the way through, and T."""
    nodes = time_nodes(T, dt)
    return nodes[[(nodes.size - 1) // 3, 2 * (nodes.size - 1) // 3, -1]]


def rk4_lines_oracle(grid, b_fine, kappa, hess_fn, source_fn, T, dt):
    """Independent reference: classic RK4 in time on the semi-discrete
    equation with a spectral Laplacian, all terms evaluated together; b is
    read from `b_fine`, its (node times, states)."""
    mu = grid.points
    k2 = grid.wavenumbers ** 2
    khat = radial_kernel_rfft(lambda r: r * r, grid)

    def rhs(t, u):
        base = interp_samples(*b_fine, t)
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
    # the orders of runs that end at three node times, T = 1 the last
    phi = builtin_pair("quadratic", [1.0, -1.0])
    U = builtin_external("harmonic", [1.0])
    traj = integrate_flow(0.0, 1.0, U, 1.0, 1.0, 1e-3)
    return [evolve_corrections(gauss, phi, U, traj, T, 1e-3, 2) for T in (0.25, 0.5, 1.0)]


@pytest.fixture(scope="module")
def cosine_driven():
    phi = builtin_pair("cosine")
    U = builtin_external("cosine", [1.0])
    traj = integrate_flow(0.0, 1.0, U, 1.0, 1.0, 1e-3)
    return phi, U, traj


class TestZeroSources:
    def test_first_correction_vanishes(self, quadratic_stack):
        assert max(norm(orders[1]) for orders in quadratic_stack) <= 1e-12

    def test_second_correction_vanishes(self, quadratic_stack):
        assert max(norm(orders[2]) for orders in quadratic_stack) <= 1e-12

    def test_expansion_collapses(self, quadratic_stack):
        for orders in quadratic_stack:
            for K in (0, 1, 2):
                assembled = assemble_expansion(orders, K, 0.08)
                assert np.array_equal(assembled.samples, orders[0].samples)


class TestShortTimeOracles:
    T = 0.01

    def test_first_correction_cubic_external(self, mu_grid, gauss):
        # no pair interaction, stationary trajectory: the only source is the
        # cubic external term and the homogeneous flow is free
        phi = builtin_pair("zero")
        U = builtin_external("cubic_window", [1.0])
        traj = integrate_flow(0.0, 0.0, U, 0.0, self.T, 1e-4)
        hess = lambda t: U.hess(traj.qs_at(t))  # noqa: E731
        b = evolve_b(gauss, 0.0, hess(time_nodes(self.T, 6.25e-5)), self.T, 6.25e-5)
        mu = mu_grid.points

        def source(t, u, base):
            return (float(U.third(traj.q_at(t))) / 6.0) * mu ** 3 * base

        oracle = rk4_lines_oracle(mu_grid, b, 0.0, hess, source, self.T, 2e-5)
        a1 = evolve_corrections(gauss, phi, U, traj, self.T, 2.5e-4, 1)[1]
        rel = (np.sqrt(np.sum(np.abs(a1.samples - oracle) ** 2) * mu_grid.dx)
               / np.sqrt(np.sum(np.abs(oracle) ** 2) * mu_grid.dx))
        assert rel <= 1e-5
        # leading short-time form: -i T * (third/3!) mu^3 * profile
        lead = -1j * self.T * mu ** 3 * gauss.samples
        lead_rel = (np.sqrt(np.sum(np.abs(a1.samples - lead) ** 2) * mu_grid.dx)
                    / np.sqrt(np.sum(np.abs(lead) ** 2) * mu_grid.dx))
        assert lead_rel <= 5e-2

    def test_second_correction_quartic_pair(self, mu_grid, gauss):
        # cosine pair, no external: the first correction stays zero and the
        # quartic interaction drives the second correction
        phi = builtin_pair("cosine")
        U = builtin_external("zero")
        traj = integrate_flow(0.0, 0.0, U, phi.value_at_0, self.T, 1e-4)
        hess = lambda t: U.hess(traj.qs_at(t))  # noqa: E731
        b = evolve_b(gauss, -1.0, hess(time_nodes(self.T, 6.25e-5)), self.T, 6.25e-5)
        mu = mu_grid.points
        dx = mu_grid.dx

        _, a1, a2 = evolve_corrections(gauss, phi, U, traj, self.T, 2.5e-4, 2)
        assert norm(a1) == 0.0

        def source(t, u, base):
            density = base.real ** 2 + base.imag ** 2
            cross = 2.0 * (base.real * u.real + base.imag * u.imag)
            return (-0.5 * separation_power_form(mu, cross, dx, 2) * base
                    + (1.0 / 24.0) * separation_power_form(mu, density, dx, 4)
                    * base)

        oracle = rk4_lines_oracle(mu_grid, b, -1.0, hess, source, self.T, 2e-5)
        rel = (np.sqrt(np.sum(np.abs(a2.samples - oracle) ** 2) * dx)
               / np.sqrt(np.sum(np.abs(oracle) ** 2) * dx))
        assert rel <= 1e-5
        # leading short-time form from the quartic separation moment
        density = np.abs(gauss.samples) ** 2
        lead = (-1j * self.T / 24.0
                * separation_power_form(mu, density, dx, 4) * gauss.samples)
        lead_rel = (np.sqrt(np.sum(np.abs(a2.samples - lead) ** 2) * dx)
                    / np.sqrt(np.sum(np.abs(lead) ** 2) * dx))
        assert lead_rel <= 5e-2


class TestCosineDriven:
    def test_first_correction_step_halving_stable(self, cosine_driven, gauss):
        phi, U, traj = cosine_driven
        vals = []
        for dt in (1e-3, 5e-4):
            a1 = evolve_corrections(gauss, phi, U, traj, 1.0, dt, 1)[1]
            vals.append(norm(a1))
        assert all(np.isfinite(v) for v in vals)
        assert abs(vals[0] - vals[1]) / vals[1] < 0.02

    def test_second_correction_step_halving_stable(self, cosine_driven, gauss):
        phi, U, traj = cosine_driven
        vals = []
        for dt in (1e-3, 5e-4):
            a2 = evolve_corrections(gauss, phi, U, traj, 1.0, dt, 2)[2]
            vals.append(norm(a2))
        assert abs(vals[0] - vals[1]) / vals[1] < 0.02

    def test_first_moment_measured(self, cosine_driven, gauss):
        # centering of the first correction is observed, not asserted
        phi, U, traj = cosine_driven
        a1 = evolve_corrections(gauss, phi, U, traj, 1.0, 1e-3, 1)[1]
        fm = first_moment(a1)
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
        evolve_b(a0, 0.0, U.hess(traj.qs_at(time_nodes(0.5, 5e-4))), 0.5, 5e-4)  # passes
        with pytest.raises(NumericalError,
                           match=r"^first correction: boundary mass") as err:
            evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 1)
        assert err.value.row == 1

    @staticmethod
    def window_case(half_width, amp=1.0):
        grid = make_grid(128, -half_width, half_width)
        U = builtin_external("cubic_window", [amp])
        traj = integrate_flow(0.0, 0.0, U, 0.0, 0.5, 1e-3)
        return gaussian_profile(grid), builtin_pair("zero"), U, traj

    def test_a_large_correction_row_prints_the_mass_it_tested(self):
        # a strong cubic source grows the first correction to a squared norm
        # of several hundred, so on [-7, 7] its guard-band mass exceeds the
        # guard while its share of the row's mass (9.8e-11) stays far below
        a0, phi, U, traj = self.window_case(7.0, amp=30.0)
        with pytest.raises(NumericalError) as err:
            evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 1)
        found = re.fullmatch(r"first correction: boundary mass (\S+) at t=0\.243 "
                             r"exceeds guard 1\.0e-08", str(err.value))
        assert found, str(err.value)
        assert float(found.group(1)) > GUARD_MASS
        assert err.value.row == 1

    # at K=2 the corrections step as one batch with b, the second one node
    # behind, so the correction that reaches the guard first in time fails
    # (the first, on a tie): on [-5, 5] the first does at t=0.015; on
    # [-6, 6] the second does at t=0.073, before the first reaches it at
    # t=0.213 (the case above).  The first correction is row 1, after b;
    # the second correction's error has no row
    @pytest.mark.parametrize("half_width, label", [(5.0, "first correction"),
                                                   (6.0, "second correction")])
    def test_second_order_names_the_earlier_row(self, half_width, label):
        a0, phi, U, traj = self.window_case(half_width)
        with pytest.raises(NumericalError, match=rf"^{label}: boundary mass") as err:
            evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 2)
        assert err.value.row == (1 if label == "first correction" else None)

    def test_only_the_second_correction_leaving_the_window_names_itself(self):
        # on [-7, 7] b and the first correction stay inside the guard
        a0, phi, U, traj = self.window_case(7.0)
        evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 1)  # passes
        with pytest.raises(NumericalError,
                           match=r"^second correction: boundary mass") as err:
            evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 2)
        assert err.value.row is None

    def test_b_leaving_the_window_fails_once_at_second_order(self, monkeypatch):
        # on [-3, 3] b itself breaches the guard at t=0; b evolves once, as
        # a row of the batch, so one error is built, and it names b
        built = []

        class CountedError(NumericalError):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(_stepping, "NumericalError", CountedError)
        a0, phi, U, traj = self.window_case(3.0)
        with pytest.raises(NumericalError,
                           match=rf"^{B_LABEL}: boundary mass .* at t=0 ") as err:
            evolve_corrections(a0, phi, U, traj, 0.5, 1e-3, 2)
        assert err.value.row == 0
        assert built == [str(err.value)]


class TestOneEvolutionOfB:
    """At K = 2 b evolves once, as a row of the batch, and the second
    correction follows its potential and b."""

    @pytest.mark.parametrize("K", [1, 2])
    def test_b_potential_once_per_node(self, monkeypatch, cosine_driven, gauss, K):
        phi, U, traj = cosine_driven
        real, calls = amplitude.apply_radial_rfft, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(amplitude, "apply_radial_rfft", counted)
        T, dt = 0.1, 1e-3
        evolve_corrections(gauss, phi, U, traj, T, dt, K)
        # one convolution per interleaved node: b's potential, built once
        assert len(calls) == _interleaved_nodes(T, dt)[2].size

    def test_matches_the_pass_that_evolves_its_own_b(self):
        # the default corrections-2 level 2: a1 is the same pass; b and a2
        # differ at roundoff, because that second b fuses its phases at the
        # dt nodes it does not store (measured 1.05e-14 and 1.32e-11)
        from semihartree.config import ExperimentConfig

        config = ExperimentConfig(mode="corrections-2")
        phi, U, T, dt = config.pair(), config.external(), config.T, config.mu_dt() / 2
        traj = integrate_flow(config.q0, config.p0, U, phi.value_at_0, T, dt)
        a0 = config.initial_profile()
        times, (b, a1, a2) = own_b_corrections(a0, phi, U, traj, T, dt, ())
        orders = evolve_corrections(a0, phi, U, traj, T, dt, 2)
        assert times.tolist() == [T]
        np.testing.assert_array_equal(orders[1].samples, a1[-1])
        np.testing.assert_allclose(orders[0].samples, b[-1], rtol=0, atol=1e-13)
        np.testing.assert_allclose(orders[2].samples, a2[-1], rtol=0, atol=1e-10)


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
        mu = mu_grid.points
        _, steps, nodes = _interleaved_nodes(0.2, 1e-3)
        mids = nodes[1::2]
        potential = b_potential(mu_grid, -1.0, U.hess(traj.qs_at(nodes)))
        no_coupling = lambda u, base: 0.0 * u

        def response(forcing):
            ((_, final),) = correction_pass(gauss.samples, mu_grid, nodes, steps, potential,
                                            no_coupling, forcing, [nodes.size - 1],
                                            "response")
            return final[1].copy()

        src_a = lambda j, base: mu ** 3 * base
        src_b = lambda j, base: np.sin(mu) * base * np.cos(mids[j])
        src_ab = lambda j, base: src_a(j, base) + src_b(j, base)
        ra, rb, rab = response(src_a), response(src_b), response(src_ab)
        dev = np.max(np.abs(ra + rb - rab))
        assert dev < 1e-12


def stored_first_pass_corrections(a0, phi, U, traj, T, dt, keep):
    """The orders of `evolve_corrections(K=2)` from a stored first pass: b
    and the first correction at every node and b's potential at every
    node, then the second correction stepping alone under that potential,
    reading b at each midpoint from the store and the first correction
    through `interp_samples`."""
    d = correction_drive(a0, phi, U, traj, T, dt, keep)
    vs = []

    def recorded(i, density):
        vs.append(d.potential(i, density))
        return vs[-1]

    data1 = np.array([psi.copy() for _, psi in correction_pass(
        a0.samples, a0.grid, d.nodes, d.steps, recorded, d.coupling, d.first,
        range(d.nodes.size), "first correction")])
    data2 = np.array([psi.copy() for _, psi in correction_pass(
        a0.samples, a0.grid, d.nodes, d.steps,
        lambda i, _: vs[i], d.coupling,
        lambda j, b: d.second(j, b, interp_samples(d.nodes[::2], data1[::2, 1], d.mids[j])),
        d.store_idx, "second correction", lambda j: data1[2 * j + 1, 0])])
    return d.nodes[d.store_idx], (data1[d.store_idx, 0], data1[d.store_idx, 1], data2[:, 0])


class TestLockstep:
    """One batch steps b and both orders, the second reading b's potential,
    b and the first correction from the batch as it goes; the orders of
    runs that end at three node times equal the stored-pass path bit for
    bit, and at K = 1 the two-row pass of the oracle."""

    @pytest.mark.parametrize("dt", [1e-3, 3e-4], ids=["dividing", "short-last-step"])
    def test_first_order_equals_the_two_row_pass(self, cosine_driven, gauss, dt):
        phi, U, traj = cosine_driven
        for T in sampled_ends(0.1, dt):
            d = correction_drive(gauss, phi, U, traj, T, dt, ())
            ((_, oracle),) = [(i, psi.copy()) for i, psi in correction_pass(
                gauss.samples, gauss.grid, d.nodes, d.steps, d.potential, d.coupling, d.first,
                d.store_idx, "first correction")]
            orders = evolve_corrections(gauss, phi, U, traj, T, dt, 1)
            assert len(orders) == 2
            for k, psi in enumerate(orders):
                np.testing.assert_array_equal(psi.samples, oracle[k])
        assert np.max(np.abs(orders[1].samples)) > 1e-4  # the source is live

    @pytest.mark.parametrize("dt", [1e-3, 3e-4], ids=["dividing", "short-last-step"])
    def test_orders_equal_the_stored_first_pass(self, cosine_driven, gauss, dt):
        phi, U, traj = cosine_driven
        for T in sampled_ends(0.1, dt):
            times, oracle = stored_first_pass_corrections(gauss, phi, U, traj, T, dt, ())
            orders = evolve_corrections(gauss, phi, U, traj, T, dt, 2)
            assert len(orders) == 3 and times.tolist() == [T]
            for psi, data in zip(orders, oracle):
                np.testing.assert_array_equal(psi.samples, data[-1])
        assert np.max(np.abs(orders[2].samples)) > 1e-4  # the window is live

    def test_second_order_keeps_no_history(self, cosine_driven, gauss):
        # one (2, n) store of the first pass over the default level-2 run
        # (dt 5e-4) would be 2001 x 2 x 512 x 16 B = 32.8 MB
        phi, U, _ = cosine_driven
        traj = integrate_flow(0.0, 1.0, U, phi.value_at_0, 1.0, 5e-4)
        tracemalloc.start()
        try:
            evolve_corrections(gauss, phi, U, traj, 1.0, 5e-4, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


ENDS = pytest.mark.parametrize("T, dt", [(1.0, 5e-4), (0.1, 3e-4), (1e-3, 1e-3), (0.0, 1e-3)],
                               ids=["dividing", "short-last-step", "one-step", "T=0"])


class TestFinalOrdersEqualTheStoredPath:
    """The orders at T equal, bit for bit, the last row of the path that
    stored them at chosen nodes, with its store set to T alone; at K = 0,
    b is the profile row of a packet-frame wave."""

    @pytest.mark.parametrize("K", [1, 2])
    @ENDS
    def test_bitwise(self, cosine_driven, gauss, K, T, dt):
        phi, U, traj = cosine_driven
        orders = evolve_corrections(gauss, phi, U, traj, T, dt, K)
        times, stored = stored_corrections(gauss, phi, U, traj, T, dt, K)
        assert times.tolist() == [T] and len(orders) == len(stored) == K + 1
        for psi, data in zip(orders, stored):
            assert psi.samples.tobytes() == data[-1].tobytes()

    @ENDS
    def test_wave_profile_row_bitwise(self, cosine_driven, gauss, T, dt):
        # b steps beside an eps row, in a ragged batch of two rows
        phi, U, traj = cosine_driven
        b, _ = evolve_wave(gauss, phi, U, T, [(traj, dt, [0.08])], True)
        times, (stored,) = stored_corrections(gauss, phi, U, traj, T, dt, 0)
        assert times.tolist() == [T]
        assert b.samples.tobytes() == stored[-1].tobytes()

    def test_order_zero_is_the_wave(self, cosine_driven, gauss):
        phi, U, traj = cosine_driven
        with pytest.raises(ValueError, match="correction order K must be 1 or 2"):
            evolve_corrections(gauss, phi, U, traj, 0.1, 1e-3, 0)


class TestAssembleExpansion:
    def test_base_only(self, gauss):
        U = builtin_external("zero")
        traj = integrate_flow(0.0, 0.0, U, 0.0, 0.1, 1e-3)
        b = gauss.with_samples(evolve_b(gauss, 0.0, U.hess(traj.qs_at(time_nodes(0.1, 1e-3))),
                                        0.1, 1e-3)[1][-1])
        out = assemble_expansion((b,), 0, 0.04)
        assert np.array_equal(out.samples, b.samples)

    def test_missing_orders_rejected(self, gauss):
        U = builtin_external("zero")
        traj = integrate_flow(0.0, 0.0, U, 0.0, 0.1, 1e-3)
        b = gauss.with_samples(evolve_b(gauss, 0.0, U.hess(traj.qs_at(time_nodes(0.1, 1e-3))),
                                        0.1, 1e-3)[1][-1])
        with pytest.raises(ValueError, match="missing correction orders"):
            assemble_expansion((b,), 1, 0.04)
