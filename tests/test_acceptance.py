"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them inline).

All measurements are property- or oracle-based at desk scale; nothing here
depends on stored reference data.
"""

import time

import numpy as np

import semihartree.sweep as sweep_module
from semihartree.amplitude import evolve_beta
from semihartree._stepping import time_nodes
from semihartree.classical import integrate_flow
from semihartree.config import ExperimentConfig
from semihartree.corrections import _interleaved_nodes, evolve_corrections, separation_power_form
from semihartree.grids import (
    abs_moment,
    first_moment,
    gaussian_profile,
    l2_distance,
    l2_norm,
    make_grid,
)
from semihartree.hartree import compare, physical_level
from semihartree.potentials import builtin_external, builtin_pair
from semihartree.rescaled import evolve_wave
from semihartree.sweep import lemma_check, render_report, run_sweep

from helpers import evolve_b, packet_frame_history, thawed_gaussian, thawed_profile
from test_corrections import rk4_lines_oracle
from test_grids import direct_radial_sum, fft_convolve

ZERO_HESS = 0.0  # U'' at every node


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_exactness_under_quadratic_data():
    budget = 120.0
    cfg = ExperimentConfig(phi_name="quadratic", phi_params=(1.0, -1.0),
                           U_name="harmonic", U_params=(1.0,),
                           q0=0.0, p0=1.0, T=1.0, eps_list=(0.32, 0.08, 0.02))
    with Stopwatch() as sw:
        level = physical_level(cfg)
        epsilons = (0.02, 0.08, 0.32)
        errors = {eps: errs[-1] for eps, (errs, _, _, _)
                  in zip(epsilons, compare([(eps, level) for eps in epsilons], cfg))}
    vals = list(errors.values())
    ratio = max(vals) / min(vals)
    ok = all(v <= 1e-5 for v in vals) and ratio <= 3.0 and sw.elapsed <= budget
    report(1, "exactness under quadratic data", ok,
           f"errors={[f'{v:.2e}' for v in vals]} ratio={ratio:.2f} "
           f"elapsed={sw.elapsed:.1f}s")
    assert all(v <= 1e-5 for v in vals)
    assert ratio <= 3.0
    assert sw.elapsed <= budget


def test_criterion_2_sqrt_eps_rate():
    budget = 600.0
    cfg = ExperimentConfig(mode="rescaled")  # cosine/cosine, (0,1), T=1, defaults
    with Stopwatch() as sw:
        rep = run_sweep(cfg)
    errors = [r.error for r in rep.rows]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = (0.45 <= rep.fitted_slope <= 0.8 and rep.fit_r2 >= 0.98
          and decreasing and sw.elapsed <= budget)
    report(2, "square-root error rate", ok,
           f"slope={rep.fitted_slope:.3f} r2={rep.fit_r2:.4f} "
           f"decreasing={decreasing} elapsed={sw.elapsed:.1f}s")
    assert 0.45 <= rep.fitted_slope <= 0.8
    assert rep.fit_r2 >= 0.98
    assert decreasing
    assert sw.elapsed <= budget


def test_criterion_3_profile_crosscheck():
    budget = 60.0
    with Stopwatch() as sw:
        check = lemma_check(kappa=-1.0, T=1.0, dt=1e-3)
    assert check.probe_times == (0.25, 0.5, 1.0)
    worst = max(check.deviations)
    order_text = ("floor" if np.isnan(check.measured_order)
                  else f"{check.measured_order:.2f}")
    ok = worst <= 1e-6 and check.order_ok and sw.elapsed <= budget
    report(3, "two-solver profile cross-check", ok,
           f"worst={worst:.2e} order={order_text} elapsed={sw.elapsed:.1f}s")
    assert worst <= 1e-6
    assert check.order_ok
    assert sw.elapsed <= budget


def test_criterion_4_phase_closed_forms(gauss):
    budget = 30.0
    with Stopwatch() as sw:
        inverted = evolve_beta(gauss, -1.0, ZERO_HESS, 1.0, 1e-3)
        ground = evolve_beta(gauss, 1.0, ZERO_HESS, 2.0, 1e-3)
    g1 = inverted[-1].gamma
    g2 = ground[-1].gamma
    dev1 = abs(g1 - np.sinh(2.0) / 8.0)
    dev2 = abs(g2 + 0.5)
    ok = dev1 <= 1e-5 and dev2 <= 1e-6 and sw.elapsed <= budget
    report(4, "phase closed forms", ok,
           f"|gamma(1)-sinh(2)/8|={dev1:.2e} |gamma(2)+1/2|={dev2:.2e} "
           f"elapsed={sw.elapsed:.1f}s")
    assert dev1 <= 1e-5
    assert dev2 <= 1e-6
    assert sw.elapsed <= budget


def test_criterion_5_moment_propagation(gauss):
    budget = 60.0
    wide = make_grid(1024, -32.0, 32.0)
    with Stopwatch() as sw:
        every_50 = range(0, 2001, 50)  # of 2,001 nodes
        free = evolve_beta(gauss, 0.0, ZERO_HESS, 2.0, 1e-3, every_50)
        inverted = evolve_beta(gaussian_profile(wide), -1.0, ZERO_HESS, 2.0, 1e-3, every_50)
        m_free = abs_moment(free[20].beta, 1)  # node 1000, t = 1
        m_inv = abs_moment(inverted[20].beta, 1)
        centering = max(
            max(abs(first_moment(s.beta)) for s in free),
            max(abs(first_moment(s.beta)) for s in inverted),
        )
        # grid convergence of moments m <= 3 under n doubling
        conv = 0.0
        for n in (512,):
            g1, g2 = make_grid(n, -16.0, 16.0), make_grid(2 * n, -16.0, 16.0)
            s1 = evolve_beta(gaussian_profile(g1), -1.0, ZERO_HESS, 1.0, 1e-3)[-1]
            s2 = evolve_beta(gaussian_profile(g2), -1.0, ZERO_HESS, 1.0, 1e-3)[-1]
            for m in (1, 2, 3):
                conv = max(conv, abs(abs_moment(s1.beta, m) - abs_moment(s2.beta, m)))
    dev_free = abs(m_free - 1.0)
    dev_inv = abs(m_inv - np.cosh(2.0) / 2.0)
    ok = (dev_free <= 1e-5 and dev_inv <= 1e-5 and centering <= 1e-8
          and conv < 1e-6 and sw.elapsed <= budget)
    report(5, "moment propagation", ok,
           f"free={dev_free:.2e} inverted={dev_inv:.2e} centering={centering:.2e} "
           f"grid_conv={conv:.2e} elapsed={sw.elapsed:.1f}s")
    assert dev_free <= 1e-5
    assert dev_inv <= 1e-5
    assert centering <= 1e-8
    assert conv < 1e-6
    assert sw.elapsed <= budget


def test_criterion_6_norm_conservation(mu_grid, gauss):
    phi = builtin_pair("cosine")
    U = builtin_external("cosine", [1.0])
    traj = integrate_flow(0.0, 1.0, U, phi.value_at_0, 1.0, 1e-3)
    hess = U.hess(traj.qs_at(time_nodes(1.0, 1e-3)))
    with Stopwatch() as sw:
        beta_states = evolve_beta(gauss, -1.0, hess, 1.0, 1e-3, range(0, 1001, 25))
        drift_beta = max(abs(l2_norm(s.beta) - 1.0) for s in beta_states)
        _, b = evolve_b(gauss, -1.0, hess, 1.0, 1e-3)
        drift_b = max(abs(l2_norm(gauss.with_samples(b[i])) - 1.0) for i in range(0, len(b), 25))
        _, drift_a = packet_frame_history(gauss, 0.08, phi, U, traj, 1.0, 1e-3)
        [(_, _, _, drift_psi)] = compare([(0.08, physical_level(ExperimentConfig()))],
                                         ExperimentConfig())
    drifts = {
        "profile": drift_beta,
        "phase-absorbed": drift_b,
        "packet-frame": drift_a,
        "reference": drift_psi,
    }
    ok = all(d <= 1e-9 for d in drifts.values())
    report(6, "norm conservation", ok,
           " ".join(f"{k}={v:.1e}" for k, v in drifts.items())
           + f" elapsed={sw.elapsed:.1f}s")
    for name, d in drifts.items():
        assert d <= 1e-9, name


def test_criterion_7_corrections(mu_grid, gauss):
    budget = 600.0
    mu = mu_grid.points
    dx = mu_grid.dx
    with Stopwatch() as sw:
        # (a) vanishing corrections for polynomial data, at four end times
        phi_q = builtin_pair("quadratic", [1.0, -1.0])
        U_h = builtin_external("harmonic", [1.0])
        traj_q = integrate_flow(0.0, 1.0, U_h, 1.0, 1.0, 1e-3)
        zero_norm = max(
            np.sqrt(np.sum(np.abs(a.samples) ** 2) * dx)
            for T_q in (0.25, 0.5, 0.75, 1.0)
            for a in evolve_corrections(gauss, phi_q, U_h, traj_q, T_q, 1e-3, 2)[1:])

        # (b) short-time sources against the independent line-method oracle
        T = 0.01
        phi_0 = builtin_pair("zero")
        U_c = builtin_external("cubic_window", [1.0])
        traj_c = integrate_flow(0.0, 0.0, U_c, 0.0, T, 1e-4)
        hess_c = lambda t: U_c.hess(traj_c.qs_at(t))  # noqa: E731
        b_c = evolve_b(gauss, 0.0, hess_c(time_nodes(T, 6.25e-5)), T, 6.25e-5)

        def source1(t, u, base):
            return (float(U_c.third(traj_c.q_at(t))) / 6.0) * mu ** 3 * base

        oracle1 = rk4_lines_oracle(mu_grid, b_c, 0.0, hess_c, source1, T, 2e-5)
        a1_s = evolve_corrections(gauss, phi_0, U_c, traj_c, T, 2.5e-4, 1)[1]
        rel1 = (np.sqrt(np.sum(np.abs(a1_s.samples - oracle1) ** 2) * dx)
                / np.sqrt(np.sum(np.abs(oracle1) ** 2) * dx))

        phi_c = builtin_pair("cosine")
        U_0 = builtin_external("zero")
        traj_0 = integrate_flow(0.0, 0.0, U_0, 1.0, T, 1e-4)
        hess_0 = lambda t: U_0.hess(traj_0.qs_at(t))  # noqa: E731
        b_0 = evolve_b(gauss, -1.0, hess_0(time_nodes(T, 6.25e-5)), T, 6.25e-5)

        def source2(t, u, base):
            density = base.real ** 2 + base.imag ** 2
            cross = 2.0 * (base.real * u.real + base.imag * u.imag)
            return (-0.5 * separation_power_form(mu, cross, dx, 2) * base
                    + (1.0 / 24.0)
                    * separation_power_form(mu, density, dx, 4) * base)

        oracle2 = rk4_lines_oracle(mu_grid, b_0, -1.0, hess_0, source2, T, 2e-5)
        a2_s = evolve_corrections(gauss, phi_c, U_0, traj_0, T, 2.5e-4, 2)[2]
        rel2 = (np.sqrt(np.sum(np.abs(a2_s.samples - oracle2) ** 2) * dx)
                / np.sqrt(np.sum(np.abs(oracle2) ** 2) * dx))

        # (c) first-order expansion rate on the transcendental configuration
        rep1 = run_sweep(ExperimentConfig(mode="corrections-1"))
        rep0 = run_sweep(ExperimentConfig(
            mode="rescaled", eps_list=tuple(r.epsilon for r in rep1.rows)))
        gap = rep1.fitted_slope - rep0.fitted_slope
    ok = (zero_norm <= 1e-12 and rel1 <= 1e-5 and rel2 <= 1e-5
          and rep1.fitted_slope >= 0.9 and gap >= 0.35 and sw.elapsed <= budget)
    report(7, "correction hierarchy", ok,
           f"zero_norm={zero_norm:.1e} oracle1={rel1:.2e} oracle2={rel2:.2e} "
           f"K1_slope={rep1.fitted_slope:.3f} gap={gap:.2f} "
           f"elapsed={sw.elapsed:.1f}s")
    assert zero_norm <= 1e-12
    assert rel1 <= 1e-5
    assert rel2 <= 1e-5
    assert rep1.fitted_slope >= 0.9
    assert gap >= 0.35
    assert sw.elapsed <= budget


def test_criterion_8_oracle_equivalence():
    with Stopwatch() as sw:
        # convolution: FFT path against O(n^2) summation
        g = make_grid(256, -8.0, 8.0)
        rng = np.random.default_rng(1234)
        density = rng.random(g.n)
        kernel = lambda r: np.exp(-0.5 * r ** 2) + 0.05 * r ** 2
        fft_path = fft_convolve(kernel, density, g)
        direct = direct_radial_sum(kernel, density, g)
        conv_rel = np.max(np.abs(fft_path - direct)) / np.max(np.abs(direct))

        # classical flow against its Richardson half-step extrapolation
        U = builtin_external("cosine", [1.0])
        T = 0.01
        full = integrate_flow(0.0, 0.2, U, 1.0, T, T)[-1]
        half = integrate_flow(0.0, 0.2, U, 1.0, T, T / 2.0)[-1]
        rich_dev = max(
            abs(getattr(half, a) - (16.0 * getattr(half, a) - getattr(full, a)) / 15.0)
            for a in ("q", "p", "action"))
    ok = conv_rel <= 1e-10 and rich_dev <= 1e-10
    report(8, "oracle equivalence", ok,
           f"convolve_rel={conv_rel:.2e} richardson={rich_dev:.2e} "
           f"elapsed={sw.elapsed:.1f}s")
    assert conv_rel <= 1e-10
    assert rich_dev <= 1e-10


def test_criterion_9_deterministic_reports():
    cfg = ExperimentConfig(mode="rescaled", T=0.5, eps_list=(0.32, 0.16, 0.08))
    with Stopwatch() as sw:
        first = render_report(run_sweep(cfg))
        second = render_report(run_sweep(cfg))
    data1 = [l for l in first.splitlines() if not l.startswith("#")]
    data2 = [l for l in second.splitlines() if not l.startswith("#")]
    ok = data1 == data2
    report(9, "deterministic reports", ok,
           f"rows={len(data1) - 1} identical={ok} elapsed={sw.elapsed:.1f}s")
    assert data1 == data2


DEFAULT_WINDOW, DOUBLED_WINDOW = (512, 16.0), (1024, 32.0)


def wave_b_distances(mu_n, mu_halfwidth):
    """Distances of the default rescaled wave's b row at levels 1 and 2 from
    exp(i gamma) times the thawed Gaussian on b's dt/2 nodes; the wave
    carries one eps row per level beside b, which b does not read."""
    cfg = ExperimentConfig(mode="rescaled", mu_n=mu_n, mu_halfwidth=mu_halfwidth)
    phi, U, grid = cfg.pair(), cfg.external(), cfg.mu_grid()
    levels = [sweep_module._build_level(cfg, refine) for refine in (1, 2)]
    finals = evolve_wave(cfg.initial_profile(), phi, U, cfg.T,
                         [(level["trajectory"], level["dt"], cfg.eps_list[:1])
                          for level in levels], True)
    dists = []
    for level, b in zip(levels, finals[::2]):
        Q, P, gamma = thawed_gaussian(level["trajectory"], U, phi.second_deriv_at_0,
                                      _interleaved_nodes(cfg.T, level["dt"])[2])
        closure = np.exp(1j * gamma[-1]) * thawed_profile(grid, Q, P)
        dists.append(l2_distance(b, b.with_samples(closure)))
    return tuple(dists)


# the default config's distances from the thawed Gaussian at levels 1 and 2:
# final profile (L2), final gamma, and max |Q|^2/2 - maxvar_x, max |P|^2/2 - maxvar_k
THAWED_MEASURED = {1: (1.727e-7, 2.114e-7, 7.808e-7, 8.844e-7),
                   2: (4.318e-8, 5.285e-8, 1.952e-7, 2.211e-7)}
THAWED_MULTIPLE = 2.0  # each distance lies within twice its measured value
# the rescaled wave's b row (levels 1 and 2) from exp(i gamma) times the
# closed form, on the default window and on the doubled one (mu_n 1024 on
# +-32).  On the default window the periodic r^2 kernel sets a floor (level
# 4 reads 6.589e-8); on the doubled one the distance falls by 4.00
THAWED_B_MEASURED = {DEFAULT_WINDOW: (1.104e-7, 6.928e-8),
                     DOUBLED_WINDOW: (8.883e-8, 2.221e-8)}


def test_criterion_10_thawed_gaussian_profile():
    # the profile equation is linear with a quadratic potential, so the
    # standard Gaussian stays Gaussian: evolve_beta's final profile and
    # gamma, and the level's spreads, against that closed form, which reads
    # the same U'' table; the profile and gamma errors fall by about 4 per
    # halving of the step (Strang order 2)
    budget = 30.0
    cfg = ExperimentConfig()
    phi, U, grid = cfg.pair(), cfg.external(), cfg.mu_grid()
    with Stopwatch() as sw:
        dists = {}
        for refine in (1, 2):
            level = physical_level(cfg, refine)
            Q, P, gamma = thawed_gaussian(level.trajectory, U, phi.second_deriv_at_0,
                                          time_nodes(cfg.T, level.dt_amp))
            final = level.states[-1]
            dists[refine] = (
                l2_distance(final.beta, final.beta.with_samples(thawed_profile(grid, Q, P))),
                abs(final.gamma - gamma[-1]),
                abs(np.max(np.abs(Q) ** 2) / 2.0 - level.maxvar_x),
                abs(np.max(np.abs(P) ** 2) / 2.0 - level.maxvar_k))
        b_dists = {window: wave_b_distances(*window) for window in THAWED_B_MEASURED}
    within = all(d <= THAWED_MULTIPLE * m for r in (1, 2)
                 for d, m in zip(dists[r], THAWED_MEASURED[r]))
    b_within = all(d <= THAWED_MULTIPLE * m for window, measured in THAWED_B_MEASURED.items()
                   for d, m in zip(b_dists[window], measured))
    falls = [dists[1][i] / dists[2][i] for i in (0, 1)]
    b_fall = b_dists[DOUBLED_WINDOW][0] / b_dists[DOUBLED_WINDOW][1]
    ok = (within and b_within and all(3.5 <= f <= 4.5 for f in falls + [b_fall])
          and sw.elapsed <= budget)
    report(10, "thawed Gaussian profile", ok,
           " ".join(f"L{r}=" + "/".join(f"{d:.2e}" for d in dists[r]) for r in (1, 2))
           + f" falls={falls[0]:.2f}/{falls[1]:.2f} wave_b L1/L2 "
           + " ".join(f"n{n}+-{hw:g}={b[0]:.3e}/{b[1]:.3e}"
                      for (n, hw), b in b_dists.items())
           + f" b_fall={b_fall:.2f} elapsed={sw.elapsed:.1f}s")
    for r in (1, 2):
        for d, m in zip(dists[r], THAWED_MEASURED[r]):
            assert d <= THAWED_MULTIPLE * m
    for window, measured in THAWED_B_MEASURED.items():
        for d, m in zip(b_dists[window], measured):
            assert d <= THAWED_MULTIPLE * m
    assert all(3.5 <= f <= 4.5 for f in falls + [b_fall])
    assert sw.elapsed <= budget
