import numpy as np
import pytest

from semihartree._stepping import time_nodes
from semihartree.classical import integrate_flow
from semihartree.errors import NumericalError
from semihartree.grids import gaussian_profile, l2_distance, l2_norm, make_grid
from semihartree.potentials import builtin_external, builtin_pair
from semihartree.rescaled import evolve_wave

from helpers import evolve_b, packet_frame_history

T = 1.0
DT = 1e-3
EPS_SWEEP = (0.32, 0.16, 0.08, 0.04, 0.02)


def distance(a0, x, y):
    """L^2 distance of the samples x and y on a0's grid."""
    return l2_distance(a0.with_samples(x), a0.with_samples(y))


@pytest.fixture(scope="module")
def cosine_stack(mu_grid, gauss):
    phi = builtin_pair("cosine")
    U = builtin_external("cosine", [1.0])
    trajectory = integrate_flow(0.0, 1.0, U, phi.value_at_0, T, 1e-3)
    hess = U.hess(trajectory.qs_at(time_nodes(T, DT)))
    _, b = evolve_b(gauss, phi.second_deriv_at_0, hess, T, DT)
    return {"phi": phi, "U": U, "trajectory": trajectory, "hess": hess, "b": b}


@pytest.fixture(scope="module")
def residuals(cosine_stack, gauss):
    out = {}
    for eps in EPS_SWEEP:
        out[eps] = packet_frame_history(gauss, eps, cosine_stack["phi"], cosine_stack["U"],
                                        cosine_stack["trajectory"], T, DT)
    return out


class TestExactAnsatz:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
    def test_quadratic_pair_harmonic_external(self, mu_grid, gauss, eps):
        # polynomial data: both descriptions solve the same equation
        phi = builtin_pair("quadratic", [1.0, -1.0])
        U = builtin_external("harmonic", [1.0])
        trajectory = integrate_flow(0.0, 1.0, U, phi.value_at_0, T, 1e-3)
        hess = U.hess(trajectory.qs_at(time_nodes(T, DT)))
        _, b = evolve_b(gauss, phi.second_deriv_at_0, hess, T, DT)
        a, _ = packet_frame_history(gauss, eps, phi, U, trajectory, T, DT)
        worst = max(distance(gauss, b[i], a[i]) for i in range(0, len(b), 100))
        assert worst <= 1e-6


class TestResidualScaling:
    def test_zero_at_start(self, cosine_stack, residuals, gauss):
        a, _ = residuals[0.08]
        assert distance(gauss, cosine_stack["b"][0], a[0]) == 0.0

    def test_halving_eps_halves_residual(self, cosine_stack, residuals, gauss):
        b_final = cosine_stack["b"][-1]
        r16 = distance(gauss, b_final, residuals[0.16][0][-1])
        r04 = distance(gauss, b_final, residuals[0.04][0][-1])
        assert 1.6 <= r16 / r04 <= 2.6

    def test_normalized_residual_stable(self, cosine_stack, residuals, gauss):
        b_final = cosine_stack["b"][-1]
        scaled = [distance(gauss, b_final, residuals[e][0][-1]) / np.sqrt(e)
                  for e in EPS_SWEEP]
        assert all(0.01 <= s <= 10.0 for s in scaled)
        assert max(scaled) / min(scaled) <= 2.0

    def test_growth_is_monotone_and_continuous(self, cosine_stack, residuals, gauss):
        a, _ = residuals[0.04]
        b = cosine_stack["b"]
        trace = np.sqrt(np.sum(np.abs(b - a) ** 2, axis=1) * gauss.grid.dx)
        diffs = np.diff(trace)
        assert diffs.min() >= -1e-8
        assert diffs.max() <= 10.0 * np.mean(np.abs(diffs)) + 1e-10

    def test_grid_doubling_changes_little(self, cosine_stack):
        # the packet frame removes eps from the resolution requirement
        coarse = {}
        fine = {}
        for n, out in ((512, coarse), (1024, fine)):
            g = make_grid(n, -16.0, 16.0)
            a0 = gaussian_profile(g)
            _, b = evolve_b(a0, -1.0, cosine_stack["hess"], T, DT)
            finals = evolve_wave(a0, cosine_stack["phi"], cosine_stack["U"], T,
                                   [(cosine_stack["trajectory"], DT, EPS_SWEEP)], False)
            for eps, a in zip(EPS_SWEEP, finals):
                out[eps] = l2_distance(a.with_samples(b[-1]), a)
        for eps in EPS_SWEEP:
            assert abs(coarse[eps] - fine[eps]) / fine[eps] < 0.05


class TestGaussianPair:
    def test_rate_persists_across_interactions(self, gauss):
        # same square-root scaling for the smooth bump interaction
        from semihartree.config import ExperimentConfig
        from semihartree.sweep import run_sweep

        rep = run_sweep(ExperimentConfig(phi_name="gaussian", mode="rescaled",
                                         eps_list=(0.16, 0.08, 0.04, 0.02)))
        assert 0.4 <= rep.fitted_slope <= 0.9
        assert rep.fit_r2 >= 0.98


class TestRunContract:
    def test_norm_preserved(self, residuals, gauss):
        for eps, (a, drift) in residuals.items():
            assert drift <= 1e-9
            assert abs(l2_norm(gauss.with_samples(a[-1])) - 1.0) <= 1e-9

    def test_epsilon_validated(self, cosine_stack, gauss):
        with pytest.raises(ValueError):
            evolve_wave(gauss, cosine_stack["phi"], cosine_stack["U"], T,
                        [(cosine_stack["trajectory"], DT, [-0.1])], False)

    def test_trajectory_must_cover_horizon(self, cosine_stack, gauss):
        short = integrate_flow(0.0, 1.0, cosine_stack["U"], 1.0, 0.5, 1e-3)
        with pytest.raises(ValueError, match="cover"):
            evolve_wave(gauss, cosine_stack["phi"], cosine_stack["U"], T, [(short, DT, [0.1])],
                        False)

    def test_boundary_guard(self, cosine_stack):
        g = make_grid(128, -4.0, 4.0)
        a0 = gaussian_profile(g)
        with pytest.raises(NumericalError, match="boundary mass"):
            evolve_wave(a0, cosine_stack["phi"], cosine_stack["U"], T,
                        [(cosine_stack["trajectory"], DT, [0.08])], False)
