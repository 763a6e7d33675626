import numpy as np
import pytest

from semihartree._stepping import GUARD_CELLS, split_step_evolve, time_nodes
from semihartree.corrections import _interleaved_nodes
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
            psi0.samples, g, time_nodes(0.5, 1e-2), potential)
        assert drift < 1e-12
        assert stored_t.size == 51

    def test_explicit_store_times_snap_to_nodes(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        potential = lambda t, s: np.zeros(g.n)
        _, stored_t, data, _ = split_step_evolve(
            psi0.samples, g, time_nodes(1.0, 1e-2), potential,
            store_times=[0.0, 0.501, 1.0])
        assert np.allclose(stored_t, [0.0, 0.5, 1.0])
        assert data.shape == (3, g.n)

    def test_final_state_always_stored(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        potential = lambda t, s: np.zeros(g.n)
        _, stored_t, _, _ = split_step_evolve(
            psi0.samples, g, time_nodes(1.0, 1e-2), potential, store_times=[0.25])
        assert stored_t[-1] == pytest.approx(1.0)

    def test_constant_potential_is_pure_phase(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        # zero kinetic scale isolates the potential factor
        _, _, data, _ = split_step_evolve(
            psi0.samples, g, time_nodes(1.0, 1e-2), lambda t, s: np.full(g.n, 2.0),
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

        def potential(t, density):
            return c * apply_radial_rfft(khat, density, grid) + (1.0 + t) * x2
        return potential

    def test_batch_rows_equal_single_runs(self):
        g = make_grid(128, -10.0, 10.0)
        rows = [gaussian_profile(g, center=c, width=w).samples
                for c, w in ((0.0, 1.0), (0.5, 0.8), (-0.3, 1.2))]
        column = np.array(self.coeffs)[:, None]
        _, stored_t, data, drift = split_step_evolve(
            np.stack(rows), g, time_nodes(0.5, 1e-2), self.self_consistent(g, column),
            store_times=[0.25], label=["a", "b", "c"])
        assert data.shape == (stored_t.size, 3, g.n)
        assert drift.shape == (3,)
        for i, (row, c) in enumerate(zip(rows, self.coeffs)):
            _, _, single, single_drift = split_step_evolve(
                row, g, time_nodes(0.5, 1e-2), self.self_consistent(g, c),
                store_times=[0.25])
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
            split_step_evolve(rows, g, time_nodes(1.0, 1e-2), free,
                              label=["still row", "moving row", "other row"])
        assert err.value.row == 1
        # the same state run alone fails the same way and carries no row
        with pytest.raises(NumericalError, match=r"^moving row: boundary mass") as err:
            split_step_evolve(rows[1], g, time_nodes(1.0, 1e-2), free, label="moving row")
        assert err.value.row is None

    def test_boundary_mass_per_row(self):
        g = make_grid(128, -10.0, 10.0)
        rows = np.stack([gaussian_profile(g, center=c).samples for c in (0.0, 7.0)])
        per_row = boundary_mass(rows, g, GUARD_CELLS)
        assert per_row.shape == (2,)
        for i in range(2):
            single = boundary_mass(rows[i], g, GUARD_CELLS)
            assert isinstance(single, float)
            assert per_row[i] == single


def strang_reference(samples0, grid, T, dt, potential, store_times=None,
                     guard_cells=12, guard_mass=1e-8, label="evolution"):
    """Plain Strang loop, both half phases applied every step.  Returns
    (stored_t, stored_data, norm_drift) or raises the engine's messages."""
    times = time_nodes(T, dt)
    if store_times is None:
        store = set(range(times.size))
    else:
        store = {int(np.argmin(np.abs(times - t))) for t in store_times}
        store.add(times.size - 1)
    psi = np.array(samples0, dtype=np.complex128)
    k2 = grid.wavenumbers ** 2

    def norm():
        return np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1) * grid.dx)

    def check(t):
        if not np.isfinite(psi).all():
            raise NumericalError(f"{label}: non-finite samples at t={t:.6g}")
        bm = boundary_mass(psi, grid, guard_cells)
        if np.any(bm > guard_mass):  # guard trips are tested on one state
            frac = bm / np.sum(np.abs(psi) ** 2) / grid.dx
            raise NumericalError(f"{label}: boundary mass fraction {frac:.3e} at "
                                 f"t={t:.6g} exceeds guard {guard_mass:.1e}")

    norm0 = norm()
    drift = np.zeros_like(norm0)
    stored = [psi] if 0 in store else []
    check(0.0)
    v = potential(times[0], np.abs(psi) ** 2)
    for j in range(times.size - 1):
        h = times[j + 1] - times[j]
        psi = psi * np.exp(-0.5j * h * v)
        psi = np.fft.ifft(np.fft.fft(psi) * np.exp(-0.5j * h * k2))
        v = potential(times[j + 1], np.abs(psi) ** 2)
        psi = psi * np.exp(-0.5j * h * v)
        check(times[j + 1])
        drift = np.maximum(drift, np.abs(norm() - norm0))
        if j + 1 in store:
            stored.append(psi)
    return times[sorted(store)], np.array(stored), drift


class TestFusedPhases:
    """The engine fuses the half phases between unstored nodes; it must
    agree with the plain two-halves loop to roundoff."""

    @staticmethod
    def setup(batch):
        g = make_grid(128, -10.0, 10.0)
        if not batch:
            return g, gaussian_profile(g, width=0.9).samples, 0.7
        rows = np.stack([gaussian_profile(g, center=c, width=w).samples
                         for c, w in ((0.0, 1.0), (0.5, 0.8), (-0.3, 1.2))])
        return g, rows, np.array(TestBatchedEngine.coeffs)[:, None]

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    @pytest.mark.parametrize("store_times", [None, [0.1, 0.25, 0.47], []],
                             ids=["every-node", "sparse", "final-only"])
    @pytest.mark.parametrize("dt", [1e-2, 0.03], ids=["dividing", "short-last-step"])
    def test_equals_two_halves_loop(self, batch, store_times, dt):
        g, samples, c = self.setup(batch)
        T = 0.5
        ref_t, ref_data, ref_drift = strang_reference(
            samples, g, T, dt, TestBatchedEngine.self_consistent(g, c),
            store_times=store_times)
        labels = ["a", "b", "c"] if batch else "evolution"
        _, stored_t, data, drift = split_step_evolve(
            samples, g, time_nodes(T, dt), TestBatchedEngine.self_consistent(g, c),
            store_times=store_times, label=labels)
        assert np.array_equal(stored_t, ref_t)
        assert data.shape == ref_data.shape
        assert np.max(np.abs(data - ref_data)) <= 1e-12 * np.max(np.abs(ref_data))
        assert np.max(np.abs(drift - ref_drift)) <= 1e-14

    @pytest.mark.parametrize("store_times", [None, [0.3], []],
                             ids=["every-node", "sparse", "final-only"])
    def test_boundary_guard_trips_alike(self, store_times):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g, wavenumber=12.0).samples
        pull = lambda t, s: 0.3 * g.points
        with pytest.raises(NumericalError) as ref:
            strang_reference(psi0, g, 1.0, 0.03, pull, store_times=store_times)
        with pytest.raises(NumericalError) as got:
            split_step_evolve(psi0, g, time_nodes(1.0, 0.03), pull,
                              store_times=store_times)
        assert "boundary mass" in str(ref.value)
        assert str(got.value) == str(ref.value)

    def test_non_finite_potential_trips_alike(self):
        # a potential that goes non-finite at an unstored node is caught at
        # that node, although its phase is fused with the next step's
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g).samples
        bad = lambda t, s: np.full(g.n, np.nan if t > 0.2 else 0.0)
        with pytest.raises(NumericalError) as ref:
            strang_reference(psi0, g, 0.5, 0.03, bad, store_times=[])
        with pytest.raises(NumericalError) as got:
            split_step_evolve(psi0, g, time_nodes(0.5, 0.03), bad, store_times=[])
        assert str(ref.value) == "evolution: non-finite samples at t=0.21"
        assert str(got.value) == str(ref.value)


class TestDeposit:
    """A deposit acts at the midpoint of every step of an interleaved node
    array, where the half phases are applied apart as at a store node."""

    @pytest.mark.parametrize("dt", [1e-2, 0.03], ids=["dividing", "short-last-step"])
    def test_identity_deposit_equals_storing_the_midpoints(self, dt):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g, width=0.9).samples
        potential = TestBatchedEngine.self_consistent(g, 0.7)
        coarse, _, nodes = _interleaved_nodes(0.5, dt)
        calls = []
        _, _, data, _ = split_step_evolve(
            psi0, g, nodes, potential, store_times=[],
            deposit=lambda j, psi: calls.append(j) or psi)
        assert calls == list(range(coarse.size - 1))
        _, stored_t, stored, _ = split_step_evolve(
            psi0, g, nodes, potential, store_times=nodes[1::2])
        assert np.array_equal(stored_t[:-1], nodes[1::2])
        assert np.array_equal(data[-1], stored[-1])

    def test_deposit_reaches_the_stored_state(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = np.stack([gaussian_profile(g).samples, np.zeros(g.n)])
        free = lambda t, s: np.zeros(g.n)
        coarse, _, nodes = _interleaved_nodes(0.1, 0.05)

        def deposit(j, psi):
            psi[1] = psi[1] + psi0[0]
            return psi

        _, stored_t, data, _ = split_step_evolve(
            psi0, g, nodes, free, store_times=[0.025], label=["b", "u"],
            deposit=deposit)
        assert np.array_equal(stored_t, [0.025, 0.1])
        assert np.array_equal(data[0, 1], psi0[0])  # one deposit, no kinetic step yet
