import numpy as np
import pytest
from scipy.integrate import solve_ivp

from semihartree.amplitude import evolve_beta, validate_initial_amplitude
from semihartree.errors import NumericalError
from semihartree.grids import (
    WaveFunction,
    abs_moment,
    first_moment,
    gaussian_profile,
    l2_distance,
    l2_norm,
    make_grid,
)

from helpers import evolve_b, gamma_step

ZERO_HESS = lambda t: 0.0


def ehrenfest_second_moment(c, T):
    """Independent oracle: second-moment closure for a quadratic potential
    c*x^2/2, integrated at high order from the standard-Gaussian start."""
    def rhs(t, y):
        A, B, C = y  # <x^2>, <xp + px>, <p^2>
        return [B, 2.0 * C - 2.0 * c * A, -c * B]

    sol = solve_ivp(rhs, (0.0, T), [0.5, 0.0, 0.5], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    return sol.sol


class TestValidateInitialAmplitude:
    def test_standard_gaussian_passes(self, gauss):
        report = validate_initial_amplitude(gauss)
        assert report.passed
        assert report.abs_moments[0] == pytest.approx(1.0, abs=1e-9)
        assert report.abs_moments[1] == pytest.approx(0.5, abs=1e-9)
        assert report.abs_moments[2] == pytest.approx(0.75, abs=1e-9)

    def test_shifted_gaussian_fails(self, mu_grid):
        report = validate_initial_amplitude(gaussian_profile(mu_grid, center=1.0))
        assert not report.passed
        assert report.first_moment == pytest.approx(1.0, abs=1e-6)

    def test_unnormalized_fails(self, gauss):
        report = validate_initial_amplitude(gauss.with_samples(2.0 * gauss.samples))
        assert not report.passed
        assert report.norm_defect == pytest.approx(1.0, abs=1e-9)


class TestMomentPropagation:
    def test_free_spreading(self, gauss):
        states = evolve_beta(gauss, 0.0, ZERO_HESS, 1.0, 1e-3, range(0, 1001, 200))
        moment = ehrenfest_second_moment(0.0, 1.0)
        for s in states:
            assert abs_moment(s.beta, 1) == pytest.approx(
                (1.0 + s.t ** 2) / 2.0, abs=1e-6)
            assert abs_moment(s.beta, 1) == pytest.approx(
                float(moment(s.t)[0]), abs=1e-6)

    def test_inverted_oscillator_spreading(self, gauss):
        states = evolve_beta(gauss, -1.0, ZERO_HESS, 1.0, 1e-3)
        moment = ehrenfest_second_moment(-1.0, 1.0)
        final = abs_moment(states[-1].beta, 1)
        assert final == pytest.approx(np.cosh(2.0) / 2.0, abs=1e-5)
        assert final == pytest.approx(float(moment(1.0)[0]), abs=1e-5)

    def test_ground_state_stationary(self, gauss):
        # eigenpair residual of the initial profile under -Lap/2 + x^2/2
        g = gauss.grid
        lap = np.fft.ifft(-(g.wavenumbers ** 2) * np.fft.fft(gauss.samples))
        residual = -0.5 * lap + 0.5 * g.points ** 2 * gauss.samples \
            - 0.5 * gauss.samples
        assert np.sqrt(np.sum(np.abs(residual) ** 2) * g.dx) < 1e-10

        states = evolve_beta(gauss, 1.0, ZERO_HESS, 2.0, 2.5e-4, range(0, 8001, 1000))
        for s in states:
            assert abs_moment(s.beta, 1) == pytest.approx(0.5, abs=1e-8)
        assert abs_moment(states[-1].beta, 1) == pytest.approx(0.5, abs=1e-8)

    def test_first_moment_stays_zero(self, gauss):
        states = evolve_beta(gauss, 0.0, ZERO_HESS, 2.0, 1e-3, range(0, 2001, 50))
        assert max(abs(first_moment(s.beta)) for s in states) < 1e-8

    def test_moments_bounded_and_grid_converged(self):
        finals = {}
        for n in (512, 1024):
            g = make_grid(n, -16.0, 16.0)
            states = evolve_beta(gaussian_profile(g), -1.0, ZERO_HESS, 1.0, 1e-3)
            finals[n] = [abs_moment(states[-1].beta, m) for m in (1, 2, 3)]
            assert all(np.isfinite(finals[n]))
        for a, b in zip(finals[512], finals[1024]):
            assert abs(a - b) < 1e-6


class TestNonlinearPhase:
    def test_zero_curvature_means_zero_phase(self, gauss):
        states = evolve_beta(gauss, 0.0, ZERO_HESS, 1.0, 1e-3, range(1001))
        assert all(s.gamma == 0.0 for s in states)

    def test_inverted_phase_closed_form(self, gauss):
        states = evolve_beta(gauss, -1.0, ZERO_HESS, 1.0, 1e-3)
        assert states[-1].gamma == pytest.approx(np.sinh(2.0) / 8.0, abs=1e-5)

    def test_ground_state_phase_closed_form(self, gauss):
        states = evolve_beta(gauss, 1.0, ZERO_HESS, 2.0, 1e-3)
        assert states[-1].gamma == pytest.approx(-0.5, abs=1e-6)

    @pytest.mark.parametrize("kappa", [-1.0, 1.0])
    def test_phase_sign_opposes_curvature(self, gauss, kappa):
        states = evolve_beta(gauss, kappa, ZERO_HESS, 0.5, 1e-3, range(501))
        diffs = np.diff([s.gamma for s in states])
        assert np.all(np.sign(diffs) == np.sign(-kappa))

    def test_gamma_step_matches_evolution(self, gauss):
        states = evolve_beta(gauss, -1.0, ZERO_HESS, 0.01, 1e-3, range(11))
        acc = 0.0
        for prev, cur in zip(states, states[1:]):
            acc = gamma_step(prev.beta, cur.beta, -1.0, cur.t - prev.t, acc)
            assert acc == pytest.approx(cur.gamma, abs=1e-15)

    def test_phase_additivity_under_restart(self, gauss):
        full = evolve_beta(gauss, -1.0, ZERO_HESS, 1.0, 1e-3)
        first = evolve_beta(gauss, -1.0, ZERO_HESS, 0.5, 1e-3)
        resumed = evolve_beta(first[-1].beta, -1.0, ZERO_HESS, 0.5, 1e-3)
        total = first[-1].gamma + resumed[-1].gamma
        assert total == pytest.approx(full[-1].gamma, abs=1e-10)


class TestKeptNodes:
    def test_keep_is_sorted_unique_and_ends_at_the_final_node(self, gauss):
        keep = [7, 3, 7, 0, 3]
        every = evolve_beta(gauss, -1.0, ZERO_HESS, 0.01, 1e-3, range(11))
        kept = evolve_beta(gauss, -1.0, ZERO_HESS, 0.01, 1e-3, keep)
        rows = [0, 3, 7, 10]
        assert len(kept) == 4
        assert kept.times.tobytes() == every.times[rows].tobytes()
        assert kept.data.tobytes() == every.data[rows].tobytes()
        assert kept.gammas.tobytes() == every.gammas[rows].tobytes()

    @pytest.mark.parametrize("keep", [[11], [-1]])
    def test_keep_outside_the_nodes_is_rejected(self, gauss, keep):
        with pytest.raises(ValueError, match="node indices"):
            evolve_beta(gauss, -1.0, ZERO_HESS, 0.01, 1e-3, keep)


class TestNormConservation:
    def test_free_profile_norm(self, gauss):
        states = evolve_beta(gauss, 0.0, ZERO_HESS, 2.0, 1e-3, range(0, 2001, 100))
        assert max(abs(l2_norm(s.beta) - 1.0) for s in states) < 1e-9

    def test_inverted_profile_norm_wide_grid(self):
        g = make_grid(1024, -32.0, 32.0)
        states = evolve_beta(gaussian_profile(g), -1.0, ZERO_HESS, 2.0, 1e-3, range(0, 2001, 100))
        assert max(abs(l2_norm(s.beta) - 1.0) for s in states) < 1e-9
        assert max(abs(first_moment(s.beta)) for s in states) < 1e-8

    def test_boundary_guard_trips_with_explicit_time(self, gauss):
        with pytest.raises(NumericalError, match="boundary mass"):
            evolve_beta(gauss, -1.0, ZERO_HESS, 2.0, 1e-3)


class TestPhaseAbsorbedProfile:
    def test_zero_curvature_bit_identical(self, gauss):
        states = evolve_beta(gauss, 0.0, ZERO_HESS, 0.2, 1e-3, range(201))
        _, series = evolve_b(gauss, 0.0, ZERO_HESS, 0.2, 1e-3)
        assert len(series) == len(states)
        for i, s in enumerate(states):
            assert np.array_equal(s.beta.samples, series[i])

    def test_equivalence_to_phased_profile(self, gauss):
        T, dt = 0.5, 1e-3
        states = evolve_beta(gauss, -1.0, ZERO_HESS, T, dt, range(0, 501, 50))
        _, series = evolve_b(gauss, -1.0, ZERO_HESS, T, dt)
        worst = 0.0
        for i, s in zip(range(0, 501, 50), states):
            phased = WaveFunction(gauss.grid, np.exp(1j * s.gamma) * s.beta.samples)
            worst = max(worst, l2_distance(gauss.with_samples(series[i]), phased))
        assert worst <= 1e-6

    def test_norm_and_centering(self, gauss):
        series = [gauss.with_samples(b) for b in evolve_b(gauss, -1.0, ZERO_HESS, 1.0, 1e-3)[1]]
        norms = [l2_norm(series[i]) for i in range(0, len(series), 100)]
        assert max(abs(n - 1.0) for n in norms) < 1e-9
        firsts = [first_moment(series[i]) for i in range(0, len(series), 100)]
        assert max(abs(f) for f in firsts) < 1e-8
