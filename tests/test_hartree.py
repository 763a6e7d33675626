import tracemalloc

import numpy as np
import pytest

from semihartree._stepping import split_step_nodes, time_nodes
from semihartree.amplitude import evolve_beta
from semihartree.classical import integrate_flow
from semihartree.config import ExperimentConfig
from semihartree.errors import NumericalError
from semihartree.grids import (
    WaveFunction,
    first_moment,
    fourier_first_moment,
    l2_distance,
    l2_norm,
    make_grid,
)
from semihartree.hartree import (
    _phase_bounds,
    _reference_potential,
    _reference_start,
    assemble_approximation,
    build_coherent_state,
    compare,
    physical_level,
    size_physical_grid,
)
from semihartree.potentials import builtin_external, builtin_pair
from semihartree.rescaled import evolve_wave

from helpers import evaluate_trig_interpolant, evolve_b, hartree_run, run_nodes, stored_comparison

COSINE_CFG = ExperimentConfig()  # cosine pair, cosine external, (0, 1), T = 1


def sized_grid(epsilon, q0=0.0, p0=1.0, T=0.5, U=None, var_x=1.0, var_k=0.5):
    U = U or builtin_external("zero")
    traj = integrate_flow(q0, p0, U, 0.0, T, 1e-3)
    return size_physical_grid(traj, epsilon, var_x, var_k)


class TestGridSizing:
    @pytest.mark.parametrize("q0", [1e16, 1e17])
    def test_domain_that_collapses_in_floating_point_fails_its_eps(self, q0):
        # far from 0 the pad is below the spacing of floats: at 1e16 the
        # grid's points collide, at 1e17 its two ends coincide
        with pytest.raises(NumericalError, match=r"collide in floating point \(eps=0.32\)"):
            sized_grid(0.32, q0=q0)

    def test_far_domain_that_holds_its_points(self):
        grid = sized_grid(0.32, q0=1e12)
        assert np.all(np.diff(grid.points) > 0)


class TestCoherentState:
    @pytest.mark.parametrize("eps", [0.01, 0.02, 0.08, 0.32])
    def test_norm_mean_variance_momentum(self, gauss, eps):
        q, p = 0.3, 1.0
        grid = sized_grid(eps, q0=q, p0=p)
        psi = build_coherent_state(gauss, q, p, eps, grid)
        assert abs(l2_norm(psi) - 1.0) <= 1e-8
        assert first_moment(psi) == pytest.approx(q, abs=1e-8)
        density = np.abs(psi.samples) ** 2
        variance = np.sum((grid.points - q) ** 2 * density) * grid.dx
        assert variance == pytest.approx(eps / 2.0, abs=1e-6)
        assert eps * fourier_first_moment(psi) == pytest.approx(
            p, abs=1e-6 / np.sqrt(eps))

    def test_resolution_precondition(self, gauss):
        grid = make_grid(64, -4.0, 4.0)  # dx = 0.125 too coarse for eps = 0.02
        with pytest.raises(ValueError, match="need n >="):
            build_coherent_state(gauss, 0.0, 1.0, 0.02, grid)

    def test_profile_window_not_replicated(self, gauss):
        # periodic images of the profile window must not leak into the
        # physical domain at small eps
        eps = 0.02
        grid = sized_grid(eps)
        psi = build_coherent_state(gauss, 0.0, 1.0, eps, grid)
        density = np.abs(psi.samples) ** 2
        far = np.abs(grid.points) > 2.0
        assert np.max(density[far]) < 1e-12


    @pytest.mark.parametrize("eps", [0.32, 0.02])
    def test_equals_the_dense_table_state(self, eps):
        # the default profile at (q0, p0) on the grid the comparison sizes
        a0, q, p = COSINE_CFG.initial_profile(), COSINE_CFG.q0, COSINE_CFG.p0
        grid = sized_grid(eps, T=COSINE_CFG.T, U=COSINE_CFG.external())
        psi = build_coherent_state(a0, q, p, eps, grid)
        mu = (grid.points - q) / np.sqrt(eps)
        inside = (mu >= a0.grid.x_min) & (mu < a0.grid.x_max)
        profile = np.zeros(grid.n, dtype=np.complex128)
        profile[inside] = evaluate_trig_interpolant(a0, mu[inside])
        ref = eps ** (-0.25) * profile * np.exp(1j * p * (grid.points - q) / eps)
        assert np.all(psi.samples[~inside] == 0.0)
        tol = eps ** (-0.25) * 1e-15 * (a0.grid.n + inside.sum()) * np.max(np.abs(a0.samples))
        assert np.max(np.abs(psi.samples - ref)) <= tol

    def test_no_point_inside_the_window(self, gauss):
        # the packet sits far left of the grid: the profile stays zero
        grid = make_grid(64, 50.0, 60.0)
        psi = build_coherent_state(gauss, 0.0, 1.0, 0.32, grid)
        assert np.all(psi.samples == 0.0)


class TestReferenceSolver:
    def test_free_packet_closed_form(self, gauss):
        eps, T, q0, p0 = 0.1, 0.5, 0.0, 1.0
        phi = builtin_pair("zero")
        U = builtin_external("zero")
        grid = sized_grid(eps, T=T, var_x=(1 + T * T) / 2.0)
        psi0 = build_coherent_state(gauss, q0, p0, eps, grid)
        _, psi, _ = hartree_run(psi0, phi, U, T, 2e-4)
        x = grid.points
        qT = q0 + p0 * T
        z = 1.0 + 1j * T
        profile = np.pi ** (-0.25) * z ** (-0.5) * np.exp(
            -((x - qT) / np.sqrt(eps)) ** 2 / (2.0 * z))
        exact = (eps ** (-0.25) * profile * np.exp(1j * p0 * (x - qT) / eps)
                 * np.exp(1j * (0.5 * p0 ** 2 * T) / eps))
        dev = np.sqrt(np.sum(np.abs(psi[-1] - exact) ** 2) * grid.dx)
        assert dev <= 1e-6

    def test_norm_drift(self, gauss):
        eps, T = 0.08, 1.0
        cfg = COSINE_CFG
        [(_, _, _, drift)] = compare([(eps, physical_level(cfg))], cfg)
        assert drift <= 1e-9

    def test_harmonic_mean_follows_trajectory(self, gauss):
        eps, T = 0.1, 1.0
        phi = builtin_pair("zero")
        U = builtin_external("harmonic", [1.0])
        grid = sized_grid(eps, T=T, U=U, var_x=0.5)
        psi0 = build_coherent_state(gauss, 0.0, 1.0, eps, grid)
        _, psi, _ = hartree_run(psi0, phi, U, T, 2e-4)
        assert first_moment(psi0.with_samples(psi[-1])) == pytest.approx(np.sin(T), abs=1e-6)

    def test_potential_phase_guard(self, gauss):
        eps = 0.08
        phi = builtin_pair("cosine")
        U = builtin_external("cosine", [1.0])
        grid = sized_grid(eps)
        psi0 = build_coherent_state(gauss, 0.0, 1.0, eps, grid)
        with pytest.raises(NumericalError, match="phase per step"):
            hartree_run(psi0, phi, U, 0.5, 0.2)

    def test_potential_phase_warning(self, gauss):
        # between pi/2 and pi per step: degraded but not fatal.  The phase
        # bound exceeds pi/2, so the batch's reference potential scans its
        # phase and warns as the per-row oracle does
        eps = 0.08
        phi = builtin_pair("cosine")
        U = builtin_external("cosine", [1.0])
        grid = sized_grid(eps)
        psi0 = build_coherent_state(gauss, 0.0, 1.0, eps, grid)
        with pytest.warns(RuntimeWarning, match="phase per step") as alone:
            hartree_run(psi0, phi, U, 0.14, 0.07)
        runs = [(psi0, 0.07, time_nodes(0.14, 0.07))]
        assert _phase_bounds(runs, phi, [U.value(grid.points)])[0] > 0.5 * np.pi
        with pytest.warns(RuntimeWarning, match="phase per step") as batch:
            run_nodes(split_step_nodes([psi0.samples], [grid], [runs[0][2]],
                                       _reference_potential(runs, phi, U), [eps], [()],
                                       ["evolution"]))
        assert [str(w.message) for w in batch] == [str(w.message) for w in alone]

    @pytest.mark.parametrize("eps, n", [(0.32, 512), (0.02, 1024)])
    def test_time_reversal_returns_to_the_initial_state(self, eps, n):
        # the default level-1 reference row, stepped over its nodes and back
        # over the reversed nodes under one reference potential: each step is
        # symmetric in time, its potential read off the density at either end,
        # so the run returns to psi0 (4.1e-13 and 2.9e-11); a potential fed the
        # previous node's density does not (2.4e-3 at eps 0.08)
        cfg = ExperimentConfig(mode="physical")
        psi0, dt, nodes, _ = _reference_start(eps, cfg, physical_level(cfg))
        potential = _reference_potential([(psi0, dt, nodes)], cfg.pair(), cfg.external())
        psi = psi0.samples
        for times in (nodes, nodes[::-1]):
            [(_, state)] = split_step_nodes([psi], [psi0.grid], [times], potential, [eps], [()],
                                            ["reversal"])
            psi = state[0].copy()
        assert psi0.grid.n == n
        assert l2_distance(psi0.with_samples(psi), psi0) < 1e-10


class TestAssembly:
    def test_initial_time_identity(self, gauss):
        eps = 0.08
        phi = builtin_pair("cosine")
        U = builtin_external("cosine", [1.0])
        traj = integrate_flow(0.0, 1.0, U, phi.value_at_0, 1.0, 1e-3)
        states = evolve_beta(gauss, -1.0, U.hess(traj.qs_at(time_nodes(1.0, 1e-3))), 1.0, 1e-3, [0])
        grid = size_physical_grid(traj, eps, 1.0, 0.5)
        direct = build_coherent_state(gauss, 0.0, 1.0, eps, grid)
        assembled = assemble_approximation(states[0], traj[0], eps, grid)
        assert np.array_equal(direct.samples, assembled.samples)

    def test_modulus_ignores_global_phases(self, gauss):
        eps = 0.08
        U = builtin_external("harmonic", [1.0])
        traj = integrate_flow(0.0, 1.0, U, 1.0, 1.0, 1e-3)
        states = evolve_beta(gauss, -1.0, U.hess(traj.qs_at(time_nodes(1.0, 1e-3))), 1.0, 1e-3)
        grid = size_physical_grid(traj, eps, 1.0, 0.5)
        assembled = assemble_approximation(states[-1], traj[-1], eps, grid)
        bare = build_coherent_state(states[-1].beta, traj[-1].q, traj[-1].p, eps, grid)
        assert np.allclose(np.abs(assembled.samples), np.abs(bare.samples),
                           atol=1e-13)

    def test_time_mismatch_rejected(self, gauss):
        eps = 0.08
        U = builtin_external("harmonic", [1.0])
        traj = integrate_flow(0.0, 1.0, U, 1.0, 1.0, 1e-3)
        states = evolve_beta(gauss, -1.0, U.hess(traj.qs_at(time_nodes(1.0, 1e-3))), 1.0, 1e-3, [0])
        grid = size_physical_grid(traj, eps, 1.0, 0.5)
        with pytest.raises(ValueError, match="time mismatch"):
            assemble_approximation(states[0], traj[-1], eps, grid)


class TestComparison:
    def test_shared_initial_datum(self, gauss):
        # at t = 0 the assembled state is the initial state itself
        eps = 0.08
        U = builtin_external("cosine", [1.0])
        traj = integrate_flow(0.0, 1.0, U, 1.0, 1.0, 1e-3)
        states = evolve_beta(gauss, -1.0, U.hess(traj.qs_at(time_nodes(1.0, 1e-3))), 1.0, 1e-3, [0])
        grid = size_physical_grid(traj, eps, 1.0, 0.5)
        psi0 = build_coherent_state(gauss, 0.0, 1.0, eps, grid)
        assembled = assemble_approximation(states[0], traj[0], eps, grid)
        assert l2_distance(psi0, assembled) <= 1e-10

    def test_exact_ansatz_single_eps(self):
        cfg = ExperimentConfig(phi_name="quadratic", phi_params=(1.0, -1.0),
                               U_name="harmonic", U_params=(1.0,))
        [(errors, _, _, _)] = compare([(0.08, physical_level(cfg))], cfg)
        assert errors[-1] <= 1e-5

    def test_second_order_in_dt(self):
        errs = [errors[-1] for errors, _, _, _ in compare(
            [(0.08, physical_level(COSINE_CFG, r)) for r in (1, 2, 8)], COSINE_CFG)]
        reference = errs.pop()
        order = np.log2(abs(errs[0] - reference) / abs(errs[1] - reference))
        assert order >= 1.8

    @pytest.mark.parametrize("eps", [0.32, 0.02])
    def test_frame_consistency(self, mu_grid, gauss, eps):
        # the physical-frame error and the packet-frame residual measure the
        # same object in different coordinates
        [(errors, _, _, _)] = compare([(eps, physical_level(COSINE_CFG))], COSINE_CFG)
        phys = errors[-1]
        phi = builtin_pair("cosine")
        U = builtin_external("cosine", [1.0])
        traj = integrate_flow(0.0, 1.0, U, 1.0, 1.0, 1e-3)
        hess = U.hess(traj.qs_at(time_nodes(1.0, 1e-3)))
        b = WaveFunction(gauss.grid, evolve_b(gauss, -1.0, hess, 1.0, 1e-3)[1][-1])
        [a] = evolve_wave(gauss, phi, U, 1.0, [(traj, 1e-3, [eps])], False)
        resc = l2_distance(b, a)
        # measured at level 1: a relative gap of 2.97e-7 at eps 0.32 and
        # 1.33e-6 at eps 0.02
        assert abs(phys / resc - 1.0) <= 4e-6

    def test_error_trace_starts_at_zero(self):
        level = physical_level(COSINE_CFG, 1, 11)
        [(errors, _, _, _)] = compare([(0.08, level)], COSINE_CFG)
        assert len(errors) == len(level.states) == 11
        assert level.states[0].t == 0.0
        assert errors[0] <= 1e-10


class TestStreamedComparison:
    """`compare` visits the reference run at its trace nodes and
    computes each error there, storing no trace: its times, errors and norm
    drift equal, bit for bit, those of the run that stored its states at
    the nodes nearest the trace times and compared them afterwards
    (`helpers.stored_comparison`)."""

    @pytest.mark.parametrize("T, trace_points", [(1.0, 0), (1.0, 1), (1.0, 5), (1.0, 21),
                                                 (1.0, 1001), (0.5005, 7)])
    def test_equals_the_stored_run(self, T, trace_points):
        # T = 0.5005 is not a multiple of dt, so both runs end on a short step
        config = ExperimentConfig(T=T)
        level = physical_level(config, 1, trace_points)
        [(got, _, _, got_drift)] = compare([(0.32, level)], config)
        times, errors, drift = stored_comparison(0.32, config, level)
        assert np.array([amp.t for amp in level.states]).tobytes() == times.tobytes()
        assert np.array(got).tobytes() == errors.tobytes()
        assert np.float64(got_drift).tobytes() == np.float64(drift).tobytes()
        assert times[-1] == T

    def test_peak_memory_stays_off_the_trace_length(self):
        # 1,001 states of n = 512 stored for the comparison peaked at 8.05 MiB;
        # streamed, one state is held at a time (about 0.43 MiB measured)
        config = ExperimentConfig()
        level = physical_level(config, 1, 1001)
        tracemalloc.start()
        try:
            [(errors, _, n, _)] = compare([(0.32, level)], config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 512 and len(errors) == 1001
        assert peak < 2 * 2 ** 20
