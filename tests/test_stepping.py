import numpy as np
import pytest

from semihartree._stepping import split_step_evolve, time_nodes
from semihartree.errors import NumericalError
from semihartree.grids import (
    apply_radial_rfft,
    boundary_mass,
    gaussian_profile,
    make_grid,
    radial_kernel_rfft,
)


class TestTimeNodes:
    def test_exact_division(self):
        t = time_nodes(1.0, 0.25)
        assert np.allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert t[-1] == 1.0

    def test_short_final_step(self):
        t = time_nodes(1.0, 0.3)
        assert np.allclose(t, [0.0, 0.3, 0.6, 0.9, 1.0])
        assert t[-1] == 1.0

    def test_many_steps_land_exactly(self):
        t = time_nodes(1.0, 1e-3)
        assert t.size == 1001
        assert t[-1] == 1.0

    def test_zero_horizon(self):
        assert np.array_equal(time_nodes(0.0, 0.1), [0.0])

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            time_nodes(1.0, 0.0)


class TestEngine:
    def test_free_step_is_unitary(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        potential = lambda t, s: np.zeros(g.n)
        _, stored_t, data, drift = split_step_evolve(
            psi0.samples, g, 0.5, 1e-2, potential)
        assert drift < 1e-12
        assert stored_t.size == 51

    def test_explicit_store_times_snap_to_nodes(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        potential = lambda t, s: np.zeros(g.n)
        _, stored_t, data, _ = split_step_evolve(
            psi0.samples, g, 1.0, 1e-2, potential, store_times=[0.0, 0.501, 1.0])
        assert np.allclose(stored_t, [0.0, 0.5, 1.0])
        assert data.shape == (3, g.n)

    def test_final_state_always_stored(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        potential = lambda t, s: np.zeros(g.n)
        _, stored_t, _, _ = split_step_evolve(
            psi0.samples, g, 1.0, 1e-2, potential, store_times=[0.25])
        assert stored_t[-1] == pytest.approx(1.0)

    def test_constant_potential_is_pure_phase(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        # zero kinetic scale isolates the potential factor
        _, _, data, _ = split_step_evolve(
            psi0.samples, g, 1.0, 1e-2, lambda t, s: np.full(g.n, 2.0),
            kinetic_scale=0.0)
        assert np.allclose(data[-1], np.exp(-2.0j) * psi0.samples, atol=1e-12)


class TestBatchedEngine:
    """Rows of an (m, n) batch evolve exactly as m separate 1-D runs."""

    coeffs = (0.5, -1.0, 2.0)

    @staticmethod
    def self_consistent(grid, c):
        # mean field rebuilt from the evolved density plus a moving well;
        # `c` is a scalar for one state or an (m, 1) column for a batch
        khat = radial_kernel_rfft(lambda r: np.cos(r), grid)
        x2 = grid.points ** 2

        def potential(t, s):
            density = s.real ** 2 + s.imag ** 2
            return c * apply_radial_rfft(khat, density, grid) + (1.0 + t) * x2
        return potential

    def test_batch_rows_equal_single_runs(self):
        g = make_grid(128, -10.0, 10.0)
        rows = [gaussian_profile(g, center=c, width=w).samples
                for c, w in ((0.0, 1.0), (0.5, 0.8), (-0.3, 1.2))]
        column = np.array(self.coeffs)[:, None]
        _, stored_t, data, drift = split_step_evolve(
            np.stack(rows), g, 0.5, 1e-2, self.self_consistent(g, column),
            store_times=[0.25], label=["a", "b", "c"])
        assert data.shape == (stored_t.size, 3, g.n)
        assert drift.shape == (3,)
        for i, (row, c) in enumerate(zip(rows, self.coeffs)):
            _, _, single, single_drift = split_step_evolve(
                row, g, 0.5, 1e-2, self.self_consistent(g, c), store_times=[0.25])
            scale = np.max(np.abs(single))
            assert np.max(np.abs(data[:, i] - single)) <= 1e-12 * scale
            assert abs(drift[i] - single_drift) <= 1e-12

    def test_failing_row_is_named(self):
        # the middle row travels into the guard band; its neighbours stay put
        g = make_grid(128, -10.0, 10.0)
        rows = np.stack([gaussian_profile(g).samples,
                         gaussian_profile(g, wavenumber=12.0).samples,
                         gaussian_profile(g).samples])
        free = lambda t, s: np.zeros(g.n)
        with pytest.raises(NumericalError, match=r"^moving row: boundary mass") as err:
            split_step_evolve(rows, g, 1.0, 1e-2, free,
                              label=["still row", "moving row", "other row"])
        assert err.value.row == 1
        # the same state run alone fails the same way and carries no row
        with pytest.raises(NumericalError, match=r"^moving row: boundary mass") as err:
            split_step_evolve(rows[1], g, 1.0, 1e-2, free, label="moving row")
        assert err.value.row is None

    def test_boundary_mass_per_row(self):
        g = make_grid(128, -10.0, 10.0)
        rows = np.stack([gaussian_profile(g, center=c).samples for c in (0.0, 7.0)])
        per_row = boundary_mass(rows, g)
        assert per_row.shape == (2,)
        for i in range(2):
            single = boundary_mass(rows[i], g)
            assert isinstance(single, float)
            assert per_row[i] == single
