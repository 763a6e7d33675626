"""The packet-frame potential from per-level tables: U's addition form
against the pointwise Taylor remainder, the whole potential against the
closure it replaced (`helpers.pointwise_packet_frame_potential`), and the
kernel transforms that carry dx, 1/n and the coupling constants."""

from dataclasses import replace

import numpy as np
import pytest

from semihartree._stepping import tabulate, time_nodes
from semihartree.amplitude import b_potential
from semihartree.classical import integrate_flow
from semihartree.config import ExperimentConfig, config_from_mapping
from semihartree.grids import apply_radial_rfft, make_grid, radial_distances, radial_kernel_rfft
from semihartree.potentials import builtin_external, builtin_pair
from semihartree.rescaled import _packet_frame_potential
from semihartree.sweep import run_sweep

from helpers import pointwise_packet_frame_potential

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
    """The whole packet-frame potential against the closure it replaced,
    for the default eps ladders at several nodes of the default trajectory."""

    @staticmethod
    def both(grid, phi, U, default_path):
        trajectory, nodes = default_path
        new = _packet_frame_potential(grid, EPS, phi, U, trajectory, nodes)
        old = pointwise_packet_frame_potential(grid, EPS, phi, U, trajectory, nodes)
        return new, old, nodes[[0, 1, 377, 600, -1]]

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("pair", ["cosine", "gaussian"])
    @pytest.mark.parametrize("name", ADDITIVE)
    def test_addition_form_within_roundoff(self, default_path, grid, pair, name):
        # tolerance: 1e-14 of each row's largest value, plus 1e-16/eps for
        # the pointwise bracket's cancellation of U(q + y) against U(q)
        new, old, times = self.both(grid, builtin_pair(pair), builtin_external(name, ADDITIVE[name]),
                                    default_path)
        density = density_rows(grid, EPS.size)
        for t in times:
            want = old(t, density)
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            bound = 1e-14 * scale + 1e-16 / EPS[:, None]
            assert np.all(np.abs(new(t, density) - want) <= bound)

    def test_steps_call_no_closure_of_u(self, default_path):
        # the bracket is read from the level's tables, not from U per step
        U = builtin_external("cosine", [1.0])
        fail = lambda x: pytest.fail("U evaluated in a step")
        trajectory, nodes = default_path
        potential = _packet_frame_potential(GRIDS["default"], EPS, builtin_pair("cosine"),
                                            replace(U, value=fail, grad=fail), trajectory, nodes)
        assert np.all(np.isfinite(potential(nodes[5], density_rows(GRIDS["default"], EPS.size))))

    @pytest.mark.parametrize("pair", ["cosine", "gaussian", "quadratic"])
    def test_tiny_eps_gives_the_quadratic_model(self, default_path, pair):
        # as eps -> 0 the potential tends to b's, (kappa/2) conv(r^2) +
        # U''(q) mu^2/2; the next terms are O(sqrt(eps)) = 1e-10 here.  Tolerance
        # 1e-8 of the largest value: no difference of two O(1) values over eps
        # (the pointwise bracket's roundoff over eps is 1e4 at this eps)
        phi = builtin_pair(pair, [1.0, -1.0] if pair == "quadratic" else [])
        U, grid = builtin_external("cosine", [1.0]), GRIDS["default"]
        trajectory, nodes = default_path
        potential = _packet_frame_potential(grid, np.array([1e-20]), phi, U, trajectory, nodes)
        hess_at = tabulate(lambda t: U.hess(trajectory.qs_at(t)), nodes)
        model = b_potential(grid, phi.second_deriv_at_0, hess_at)
        density = density_rows(grid, 1)
        for t in nodes[[0, 500, -1]]:
            want = model(t, density[0])
            assert np.max(np.abs(potential(t, density)[0] - want)) <= 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("pair", ["cosine", "gaussian"])
    def test_cubic_window_is_the_old_closure(self, default_path, pair):
        # no addition form: the pointwise path, bit for bit on the default grid
        grid = GRIDS["default"]
        new, old, times = self.both(grid, builtin_pair(pair), builtin_external("cubic_window", [1.0]),
                                    default_path)
        density = density_rows(grid, EPS.size)
        for t in times:
            assert np.array_equal(new(t, density), old(t, density))


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
        hess_at = tabulate(lambda t: -np.cos(t + 0.2), nodes)
        potential = b_potential(grid, kappa, hess_at)
        density = density_rows(grid, 1)[0]
        for t in nodes[[0, 3, -1]]:
            old = (0.5 * kappa * self.old_convolution(lambda r: r * r, density, grid)
                   + hess_at(t) * (0.5 * grid.points ** 2))
            new = potential(t, density)
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
