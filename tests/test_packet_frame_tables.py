"""The packet-frame potential of a wave from per-level tables: U's
addition form against the pointwise Taylor remainder, the eps rows against
the closure of pointwise brackets (`helpers.pointwise_packet_frame_potential`),
every row against the closures it replaced (`helpers.packet_frame_potential`
and `amplitude.b_potential`), the wave's final rows against runs of their
own, and the kernel transforms that carry dx, 1/n and the coupling
constants."""

from dataclasses import replace

import numpy as np
import pytest

from semihartree._stepping import time_nodes
from semihartree.amplitude import b_potential
from semihartree.classical import integrate_flow
from semihartree.config import ExperimentConfig, config_from_mapping
from semihartree.corrections import _interleaved_nodes
from semihartree.grids import apply_radial_rfft, make_grid, radial_distances, radial_kernel_rfft
from semihartree.potentials import builtin_external, builtin_pair
from semihartree.rescaled import _wave_potential, evolve_wave
from semihartree.sweep import run_sweep

from helpers import (node_table, packet_frame_history, packet_frame_potential,
                     pointwise_packet_frame_potential, stored_corrections)

EPS = np.array([0.32, 0.16, 0.08, 0.04, 0.02, 0.01, 0.005])
GRIDS = {"default": make_grid(512, -16.0, 16.0), "384-12": make_grid(384, -12.0, 12.0)}
ADDITIVE = {"cosine": [1.0], "harmonic": [1.3], "zero": []}
ROUNDOFF = np.finfo(np.float64).eps


@pytest.fixture(scope="module")
def default_path():
    """The default sweep's trajectory on its step nodes."""
    cfg = ExperimentConfig(mode="rescaled")
    nodes = time_nodes(cfg.T, cfg.mu_dt())
    U = cfg.external()
    return integrate_flow(cfg.q0, cfg.p0, U, cfg.pair().value_at_0, cfg.T, 1e-3), nodes


def density_rows(grid, m):
    """m positive densities of unit mass, one Gaussian each, off center."""
    mu = grid.points
    rows = [np.exp(-(mu - 0.3 * k) ** 2 / (1.0 + 0.2 * k)) for k in range(m)]
    return np.array([row / (row.sum() * grid.dx) for row in rows])


class TestAdditionForm:
    """sum_k c_k(q) r_k(y) against U(q + y) - U(q) - U'(q) y at
    y = sqrt(eps) mu, q along the default trajectory.  Tolerance: 8 units
    of roundoff of the pointwise form's three terms (2.9 measured),
    |U(q+y)| + |U(q)| + |U'(q) y|, at every sample."""

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("name", ADDITIVE)
    def test_matches_pointwise_remainder(self, default_path, grid, name):
        U = builtin_external(name, ADDITIVE[name])
        trajectory, nodes = default_path
        qs = trajectory.qs_at(nodes[::50])
        y = np.sqrt(EPS)[:, None] * grid.points
        remainders, coeffs = U.addition(y)
        table = coeffs(qs)
        assert remainders.shape[1:] == y.shape and table.shape == (qs.size, len(remainders))
        for q, row in zip(qs, table):
            terms = (U.value(q + y), U.value(q), U.grad(q) * y)
            pointwise = terms[0] - terms[1] - terms[2]
            added = np.tensordot(row, remainders, axes=1)
            bound = 8.0 * ROUNDOFF * sum(np.abs(term) for term in terms)
            assert np.all(np.abs(added - pointwise) <= bound)

    def test_cubic_window_has_none(self):
        assert builtin_external("cubic_window", [1.0]).addition is None

    def test_tiny_offsets_keep_the_quadratic_term(self):
        # the remainder is U''(q) y^2/2 to leading order; no cancellation
        # of U(q + y) against U(q) wipes it out, even at y = 1e-150
        U = builtin_external("cosine", [1.0])
        y = 1e-150 * np.array([1.0, -2.0, 3.0])
        remainders, coeffs = U.addition(y)
        got = coeffs(np.array([0.4]))[0] @ remainders
        np.testing.assert_allclose(got / y ** 2, -0.5 * np.cos(0.4), rtol=1e-15)


class TestTablePotential:
    """The eps rows of the wave's potential against the closure of
    pointwise brackets, for the default eps ladders at several nodes of the
    default trajectory."""

    @staticmethod
    def both(grid, phi, U, default_path):
        # (the wave's potential at node j, the pointwise closure at node j)
        trajectory, nodes = default_path
        new = _wave_potential(grid, phi, U, [(trajectory, nodes, EPS)])
        old = pointwise_packet_frame_potential(grid, EPS, phi, U, trajectory, nodes)
        return new, old, [0, 1, 377, 600, nodes.size - 1]

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("pair", ["cosine", "gaussian"])
    @pytest.mark.parametrize("name", ADDITIVE)
    def test_addition_form_within_roundoff(self, default_path, grid, pair, name):
        # tolerance: 1e-14 of each row's largest value, plus 1e-16/eps for
        # the pointwise bracket's cancellation of U(q + y) against U(q)
        new, old, nodes = self.both(grid, builtin_pair(pair), builtin_external(name, ADDITIVE[name]),
                                    default_path)
        density = density_rows(grid, EPS.size)
        for j in nodes:
            want = old(j, density)
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            bound = 1e-14 * scale + 1e-16 / EPS[:, None]
            assert np.all(np.abs(new(j, density) - want) <= bound)

    def test_steps_call_no_closure_of_u(self, default_path):
        # the bracket is read from the level's tables, not from U per step
        U = builtin_external("cosine", [1.0])
        fail = lambda x: pytest.fail("U evaluated in a step")
        trajectory, nodes = default_path
        potential = _wave_potential(GRIDS["default"], builtin_pair("cosine"),
                                    replace(U, value=fail, grad=fail), [(trajectory, nodes, EPS)])
        assert np.all(np.isfinite(potential(5, density_rows(GRIDS["default"], EPS.size))))

    @pytest.mark.parametrize("pair", ["cosine", "gaussian", "quadratic"])
    def test_tiny_eps_gives_the_quadratic_model(self, default_path, pair):
        # as eps -> 0 the potential tends to b's, (kappa/2) conv(r^2) +
        # U''(q) mu^2/2; the next terms are O(sqrt(eps)) = 1e-10 here.  Tolerance
        # 1e-8 of the largest value: no difference of two O(1) values over eps
        # (the pointwise bracket's roundoff over eps is 1e4 at this eps)
        # the wave's b row on the same nodes is that model
        phi = builtin_pair(pair, [1.0, -1.0] if pair == "quadratic" else [])
        U, grid = builtin_external("cosine", [1.0]), GRIDS["default"]
        trajectory, nodes = default_path
        potential = _wave_potential(grid, phi, U, [(trajectory, nodes, None),
                                                   (trajectory, nodes, np.array([1e-20]))])
        density = np.repeat(density_rows(grid, 1), 2, axis=0)
        for j in (0, 500, nodes.size - 1):
            model, got = potential(j, density)
            assert np.max(np.abs(got - model)) <= 1e-8 * np.max(np.abs(model))

    @pytest.mark.parametrize("pair", ["cosine", "gaussian"])
    def test_cubic_window_is_the_old_closure(self, default_path, pair):
        # no addition form: the pointwise path, bit for bit on the default grid
        grid = GRIDS["default"]
        new, old, nodes = self.both(grid, builtin_pair(pair), builtin_external("cubic_window", [1.0]),
                                    default_path)
        density = density_rows(grid, EPS.size)
        for j in nodes:
            assert np.array_equal(new(j, density), old(j, density))


def wave_groups(cfg):
    """(trajectory per level, the groups of a K = 0 wave of levels 1 and 2
    of cfg in row order) with the default eps at level 2 and the first
    three at level 1: b of level 2, b of level 1 (on the dt nodes of level
    2 when dt divides T), the eps of level 2, the eps of level 1."""
    phi, U = cfg.pair(), cfg.external()
    eps = np.array(cfg.eps_list)
    levels = []
    for refine, epsilons in ((1, eps[:3]), (2, eps)):
        dt = cfg.mu_dt() / refine
        trajectory = integrate_flow(cfg.q0, cfg.p0, U, phi.value_at_0, cfg.T, min(1e-3, dt))
        levels.append((trajectory, dt, epsilons))
    (t1, dt1, e1), (t2, dt2, e2) = levels
    groups = [(t2, _interleaved_nodes(cfg.T, dt2)[2], None),
              (t1, _interleaved_nodes(cfg.T, dt1)[2], None),
              (t2, time_nodes(cfg.T, dt2), e2), (t1, time_nodes(cfg.T, dt1), e1)]
    return levels, groups


WAVES = {"default": {}, "short-final-step": {"T": 0.5005},
         "cubic_window": {"T": 0.5, "U": {"name": "cubic_window", "params": [0.25]}}}


class TestWavePotential:
    """Each row of the wave's stacked potential against the closure it
    replaced: `amplitude.b_potential` for b's rows, the per-level closure
    `helpers.packet_frame_potential` for the eps rows.  Tolerance 0, for
    every count of held rows."""

    @pytest.mark.parametrize("case", list(WAVES))
    def test_rows_equal_their_closures(self, case):
        cfg = config_from_mapping(dict(WAVES[case], mode="rescaled"))
        _, groups = wave_groups(cfg)
        grid, phi, U = cfg.mu_grid(), cfg.pair(), cfg.external()
        potential = _wave_potential(grid, phi, U, groups)
        closures = []  # (rows, nodes, closure) per group
        lo = 0
        for trajectory, nodes, epsilons in groups:
            if epsilons is None:
                closure = b_potential(grid, phi.second_deriv_at_0,
                                      U.hess(trajectory.qs_at(nodes)))
                closures.append((slice(lo, lo + 1), nodes, lambda j, d, c=closure: c(j, d[0])))
                lo += 1
            else:
                closure = packet_frame_potential(grid, epsilons, phi, U, trajectory, nodes)
                closures.append((slice(lo, lo + epsilons.size), nodes, closure))
                lo += epsilons.size
        density = density_rows(grid, lo)
        for held in (lo, closures[-1][0].start, closures[2][0].start, 1):
            last = min(nodes.size for rows, nodes, _ in closures if rows.start < held) - 1
            for j in (0, 1, last // 3, last):
                got = potential(j, density[:held])
                assert got.shape == (held, grid.n)
                for rows, nodes, closure in closures:
                    if rows.start < held:
                        assert got[rows].tobytes() == closure(j, density[rows]).tobytes()


class TestWaveRows:
    """The final rows of a K = 0 wave of levels 1 and 2 against runs of
    their own: each eps row against `helpers.packet_frame_history` visited at
    its final node only, each b row against the path of the level build that
    evolved b alone (`helpers.stored_corrections` at K = 0).  Tolerance 0."""

    @pytest.mark.parametrize("case", list(WAVES))
    def test_rows_equal_their_own_runs(self, case):
        cfg = config_from_mapping(dict(WAVES[case], mode="rescaled"))
        levels, groups = wave_groups(cfg)
        a0, phi, U = cfg.initial_profile(), cfg.pair(), cfg.external()
        if case == "default":  # b of level 1 steps on the dt nodes of level 2
            assert np.array_equal(groups[1][1], groups[2][1])
        if case == "short-final-step":
            nodes = time_nodes(cfg.T, cfg.mu_dt())
            assert nodes[-1] - nodes[-2] < 0.9 * cfg.mu_dt()
        finals = evolve_wave(a0, phi, U, cfg.T, levels, True)
        assert len(finals) == 10
        for (trajectory, dt, epsilons), (b, *rows) in zip(levels, (finals[:4], finals[4:])):
            _, (alone,) = stored_corrections(a0, phi, U, trajectory, cfg.T, dt, 0)
            assert b.samples.tobytes() == alone[-1].tobytes()
            for eps, a in zip(epsilons, rows):
                [alone], _ = packet_frame_history(a0, eps, phi, U, trajectory, cfg.T, dt,
                                                  every=False)
                assert a.samples.tobytes() == alone.tobytes()


class TestFoldedTransforms:
    """`radial_kernel_rfft` carries dx and 1/n (and `b_potential` its
    kappa/2): bit for bit the old arithmetic where those are powers of two,
    within 1e-15 of the largest value elsewhere."""

    @staticmethod
    def old_convolution(kernel, density, grid):
        khat = np.fft.rfft(kernel(radial_distances(grid)))
        return np.fft.irfft(np.fft.rfft(density) * khat, grid.n) * grid.dx

    @pytest.mark.parametrize("kernel", [lambda r: r * r, lambda r: np.cos(0.3 * r) - 1.0],
                             ids=["r2", "cosine"])
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_apply_radial_rfft(self, grid, kernel):
        density = density_rows(grid, 3)
        old = self.old_convolution(kernel, density, grid)
        new = apply_radial_rfft(radial_kernel_rfft(kernel, grid), density, grid)
        if grid is GRIDS["default"]:
            assert np.array_equal(new, old)
        else:
            assert np.max(np.abs(new - old)) <= 1e-15 * np.max(np.abs(old))

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_b_potential(self, grid):
        kappa = -1.0  # the default cosine pair's phi''(0)
        nodes = time_nodes(0.01, 1e-3)
        hess = node_table(lambda t: -np.cos(t + 0.2), nodes)
        potential = b_potential(grid, kappa, hess)
        density = density_rows(grid, 1)[0]
        for j in (0, 3, nodes.size - 1):
            old = (0.5 * kappa * self.old_convolution(lambda r: r * r, density, grid)
                   + hess[j] * (0.5 * grid.points ** 2))
            new = potential(j, density)
            if grid is GRIDS["default"]:
                assert np.array_equal(new, old)
            else:
                assert np.max(np.abs(new - old)) <= 1e-15 * np.max(np.abs(old))


def test_pointwise_bracket_settles_end_to_end():
    # cubic_window has no addition form, so the packet-frame modes take the
    # pointwise bracket; every row settles in all three modes, and the two
    # frames measure one error: measured gap 1.5e-7 relative, bound 1e-5.
    # Its physical grids double with each eps (64 ... 1024), so each
    # physical comparison is a batch of one.
    doc = {"U": {"name": "cubic_window", "params": [0.25]}, "T": 0.5}
    assert builtin_external("cubic_window", [0.25]).addition is None
    configs = {mode: config_from_mapping(dict(doc, mode=mode))
               for mode in ("rescaled", "corrections-2", "physical")}
    reports = {mode: run_sweep(cfg) for mode, cfg in configs.items()}
    for mode, report in reports.items():
        assert [r.epsilon for r in report.rows] == list(configs[mode].eps_list)
    assert [r.n_used for r in reports["physical"].rows] == [64, 128, 256, 512, 1024]
    for resc, phys in zip(reports["rescaled"].rows, reports["physical"].rows):
        assert abs(resc.error - phys.error) <= 1e-5 * phys.error
