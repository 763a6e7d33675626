import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from semihartree._stepping import GUARD_CELLS, GUARD_MASS, split_step_nodes, time_nodes
from semihartree.classical import integrate_flow
from semihartree.config import ExperimentConfig
from semihartree.corrections import _interleaved_nodes
from semihartree.errors import NumericalError
from semihartree.grids import (
    apply_radial_rfft,
    boundary_mass,
    gaussian_profile,
    make_grid,
    radial_kernel_rfft,
)
from semihartree.hartree import build_coherent_state, size_physical_grid

import helpers
from helpers import exp_split_step_nodes, hartree_run, run_nodes, shared_rows


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

    @given(T=st.floats(1e-300, 10.0), dt=st.floats(1e-3, 1.0))
    @example(T=1e-9, dt=1e-3)  # below the end-snap tolerance: [0, T], node 0 kept
    @example(T=1e-300, dt=2.5e-4)
    def test_nodes_run_from_0_to_T_rising_strictly(self, T, dt):
        t = time_nodes(T, dt)
        assert t[0] == 0.0 and t[-1] == T
        assert np.all(np.diff(t) > 0)


class TestEngine:
    def test_free_step_is_unitary(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        potential = lambda j, s: np.zeros(g.n)
        idx, _, drift = run_nodes(split_step_nodes(
            [psi0.samples], [g], [time_nodes(0.5, 1e-2)], potential, [1.0], [range(51)],
            ["evolution"]))
        assert drift < 1e-12
        assert idx.tolist() == list(range(51))

    def test_constant_potential_is_pure_phase(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g)
        # zero kinetic scale isolates the potential factor
        _, final = next(split_step_nodes(
            [psi0.samples], [g], [time_nodes(1.0, 1e-2)], lambda j, s: np.full(g.n, 2.0),
            [0.0], [[100]], ["evolution"]))
        assert np.allclose(final, np.exp(-2.0j) * psi0.samples, atol=1e-12)


class TestBatchedEngine:
    """Rows of an (m, n) batch evolve exactly as m separate one-row runs."""

    coeffs = (0.5, -1.0, 2.0)

    @staticmethod
    def self_consistent(grid, c, times):
        # mean field rebuilt from the evolved density plus a well moving over
        # the node times `times`; `c` is a scalar for one row or an (m, 1)
        # column for a batch
        khat = radial_kernel_rfft(lambda r: np.cos(r), grid)
        x2 = grid.points ** 2

        def potential(j, density):
            return c * apply_radial_rfft(khat, density, grid) + (1.0 + times[j]) * x2
        return potential

    def test_batch_rows_equal_single_runs(self):
        g = make_grid(128, -10.0, 10.0)
        rows = [gaussian_profile(g, center=c, width=w).samples
                for c, w in ((0.0, 1.0), (0.5, 0.8), (-0.3, 1.2))]
        column, times = np.array(self.coeffs)[:, None], time_nodes(0.5, 1e-2)
        idx, data, drift = run_nodes(shared_rows(
            np.stack(rows), g, times, self.self_consistent(g, column, times), 1.0, [25, 50],
            ["a", "b", "c"]))
        assert data.shape == (idx.size, 3, g.n)
        assert drift.shape == (3,)
        for i, (row, c) in enumerate(zip(rows, self.coeffs)):
            _, single, single_drift = run_nodes(split_step_nodes(
                [row], [g], [times], self.self_consistent(g, c, times), [1.0], [[25, 50]],
                ["evolution"]))
            single, single_drift = single[:, 0], single_drift[0]
            scale = np.max(np.abs(single))
            assert np.max(np.abs(data[:, i] - single)) <= 1e-12 * scale
            assert abs(drift[i] - single_drift) <= 1e-12

    def test_failing_row_is_named(self):
        # the middle row travels into the guard band; its neighbours stay put
        g = make_grid(128, -10.0, 10.0)
        rows = np.stack([gaussian_profile(g).samples,
                         gaussian_profile(g, wavenumber=12.0).samples,
                         gaussian_profile(g).samples])
        free = lambda j, s: np.zeros(g.n)
        with pytest.raises(NumericalError, match=r"^moving row: boundary mass") as err:
            run_nodes(shared_rows(rows, g, time_nodes(1.0, 1e-2), free, 1.0, range(101),
                                  ["still row", "moving row", "other row"]))
        assert err.value.row == 1
        # the same state run as a one-row batch fails the same way and carries row 0
        with pytest.raises(NumericalError, match=r"^moving row: boundary mass") as err:
            run_nodes(split_step_nodes([rows[1]], [g], [time_nodes(1.0, 1e-2)], free, [1.0],
                                       [range(101)], ["moving row"]))
        assert err.value.row == 0

    def test_boundary_mass_per_row(self):
        g = make_grid(128, -10.0, 10.0)
        rows = np.stack([gaussian_profile(g, center=c).samples for c in (0.0, 7.0)])
        per_row = boundary_mass(rows, g, GUARD_CELLS)
        assert per_row.shape == (2,)
        for i in range(2):
            single = boundary_mass(rows[i], g, GUARD_CELLS)
            assert isinstance(single, float)
            assert per_row[i] == single


def strang_reference(samples0, grid, T, dt, potential, store=None,
                     guard_cells=12, guard_mass=1e-8, label="evolution"):
    """Plain Strang loop, both half phases applied every step, keeping the
    node indices `store` (every node by default) and the final node.
    Returns (stored_t, stored_data, norm_drift) or raises the engine's
    messages."""
    times = time_nodes(T, dt)
    store = set(range(times.size)) if store is None else {*store, times.size - 1}
    psi = np.array(samples0, dtype=np.complex128)
    k2 = grid.wavenumbers ** 2

    def norm():
        return np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1) * grid.dx)

    def check(t):
        if not np.isfinite(psi).all():
            raise NumericalError(f"{label}: non-finite samples at t={t:.6g}")
        bm = boundary_mass(psi, grid, guard_cells)
        if np.any(bm > guard_mass):  # guard trips are tested on one state
            raise NumericalError(f"{label}: boundary mass {bm:.3e} at t={t:.6g} "
                                 f"exceeds guard {guard_mass:.1e}")

    norm0 = norm()
    drift = np.zeros_like(norm0)
    stored = [psi] if 0 in store else []
    check(0.0)
    v = potential(0, np.abs(psi) ** 2)
    for j in range(times.size - 1):
        h = times[j + 1] - times[j]
        psi = psi * np.exp(-0.5j * h * v)
        psi = np.fft.ifft(np.fft.fft(psi) * np.exp(-0.5j * h * k2))
        v = potential(j + 1, np.abs(psi) ** 2)
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
        if not batch:  # one row
            return g, gaussian_profile(g, width=0.9).samples[None], 0.7
        rows = np.stack([gaussian_profile(g, center=c, width=w).samples
                         for c, w in ((0.0, 1.0), (0.5, 0.8), (-0.3, 1.2))])
        return g, rows, np.array(TestBatchedEngine.coeffs)[:, None]

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    @pytest.mark.parametrize("store", [None, [3, 8, 16], []],
                             ids=["every-node", "sparse", "final-only"])
    @pytest.mark.parametrize("dt", [1e-2, 0.03], ids=["dividing", "short-last-step"])
    def test_equals_two_halves_loop(self, batch, store, dt):
        g, samples, c = self.setup(batch)
        T = 0.5
        times = time_nodes(T, dt)
        ref_t, ref_data, ref_drift = strang_reference(
            samples, g, T, dt, TestBatchedEngine.self_consistent(g, c, times), store=store)
        labels = ["a", "b", "c"] if batch else ["evolution"]
        idx, data, drift = run_nodes(shared_rows(
            samples, g, times, TestBatchedEngine.self_consistent(g, c, times), 1.0,
            range(times.size) if store is None else store + [times.size - 1], labels))
        assert np.array_equal(times[idx], ref_t)
        assert data.shape == ref_data.shape
        assert np.max(np.abs(data - ref_data)) <= 1e-12 * np.max(np.abs(ref_data))
        assert np.max(np.abs(drift - ref_drift)) <= 1e-14

    @pytest.mark.parametrize("store", [None, [10], []],
                             ids=["every-node", "sparse", "final-only"])
    def test_boundary_guard_trips_alike(self, store):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g, wavenumber=12.0).samples
        pull = lambda j, s: 0.3 * g.points
        times = time_nodes(1.0, 0.03)
        with pytest.raises(NumericalError) as ref:
            strang_reference(psi0, g, 1.0, 0.03, pull, store=store)
        with pytest.raises(NumericalError) as got:
            run_nodes(split_step_nodes([psi0], [g], [times], pull, [1.0],
                                       [range(times.size) if store is None else store],
                                       ["evolution"]))
        assert "boundary mass" in str(ref.value)
        assert str(got.value) == str(ref.value)

    def test_non_finite_potential_trips_alike(self):
        # a potential that goes non-finite at an unstored node is caught at
        # that node, although its phase is fused with the next step's
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g).samples
        nodes = time_nodes(0.5, 0.03)
        bad = lambda j, s: np.full(g.n, np.nan if nodes[j] > 0.2 else 0.0)
        with pytest.raises(NumericalError) as ref:
            strang_reference(psi0, g, 0.5, 0.03, bad, store=[])
        with pytest.raises(NumericalError) as got:
            run_nodes(split_step_nodes([psi0], [g], [nodes], bad, [1.0], [()], ["evolution"]))
        assert str(ref.value) == "evolution: non-finite samples at t=0.21"
        assert str(got.value) == str(ref.value)


class TestDeposit:
    """A deposit is what the caller does at each visited midpoint of an
    interleaved node array, where the half phases are applied apart as at
    a store node."""

    @pytest.mark.parametrize("dt", [1e-2, 0.03], ids=["dividing", "short-last-step"])
    def test_identity_deposit_visits_every_midpoint(self, dt):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g, width=0.9).samples
        coarse, _, nodes = _interleaved_nodes(0.5, dt)
        potential = TestBatchedEngine.self_consistent(g, 0.7, nodes)
        visit = list(range(1, nodes.size, 2)) + [nodes.size - 1]
        idx, _, _ = run_nodes(split_step_nodes([psi0], [g], [nodes], potential, [1.0], [visit],
                                               ["evolution"]))
        assert idx.tolist() == visit
        assert len(visit) == coarse.size

    def test_deposit_reaches_the_stored_state(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = np.stack([gaussian_profile(g).samples, np.zeros(g.n)])
        free = lambda j, s: np.zeros(g.n)
        _, _, nodes = _interleaved_nodes(0.1, 0.05)
        seen = {}
        for j, psi in shared_rows(psi0, g, nodes, free, 1.0, [1, 2, 3], ["b", "u"]):
            if j % 2:
                psi[1] = psi[1] + psi0[0]
            seen[j] = psi.copy()
        assert np.allclose(nodes[[1, 2, 3]], [0.025, 0.05, 0.075], rtol=0, atol=1e-15)
        assert np.array_equal(seen[1][1], psi0[0])  # one deposit, no kinetic step yet
        assert np.max(np.abs(seen[2][1])) > 0.5  # carried to the next node


class TestNodeGenerator:
    """`split_step_nodes` hands the caller the state at each visited node,
    between the two half phases there."""

    @pytest.mark.parametrize("visit", [[0, 7, 20, 50], [3, 4, 5, 50]],
                             ids=["sparse", "adjacent"])
    @pytest.mark.parametrize("dt", [1e-2, 0.0099], ids=["dividing", "short-last-step"])
    def test_visits_equal_the_two_halves_loop(self, visit, dt):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g, width=0.9).samples
        times = time_nodes(0.5, dt)
        potential = TestBatchedEngine.self_consistent(g, 0.7, times)
        visit = [j for j in visit if j < times.size - 1] + [times.size - 1]
        idx, seen, drift = run_nodes(split_step_nodes([psi0], [g], [times], potential, [1.0],
                                                      [visit], ["evolution"]))
        seen, drift = seen[:, 0], drift[0]
        assert idx.tolist() == visit
        # a visited node sees the state of the plain two-halves loop there
        ref_t, ref_data, ref_drift = strang_reference(psi0, g, 0.5, dt, potential, store=visit)
        assert np.array_equal(ref_t, times[visit])
        assert np.max(np.abs(seen - ref_data)) <= 1e-12 * np.max(np.abs(ref_data))
        assert abs(drift - ref_drift) <= 1e-14

    @pytest.mark.parametrize("node", [0, 9])
    def test_in_place_change_is_carried_forward(self, node):
        # a fixed well keeps the equation linear, and doubling is exact in
        # floating point, so the doubled run ends at exactly twice the other
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g, width=0.9).samples
        times = time_nodes(0.3, 0.01)
        well = lambda j, s: 0.5 * (1.0 + times[j]) * g.points ** 2
        idx, plain, _ = run_nodes(split_step_nodes([psi0], [g], [times], well, [1.0],
                                                   [[node, times.size - 1]], ["evolution"]))
        plain = plain[:, 0]
        assert idx[0] == node
        if node == 0:
            assert np.array_equal(plain[0], psi0)  # before the first step
        doubled = []
        for j, (psi,) in split_step_nodes([psi0], [g], [times], well, [1.0],
                                          [[node, times.size - 1]], ["evolution"]):
            if j == node:
                psi *= 2.0
            doubled.append(psi.copy())
        assert np.array_equal(doubled[-1], 2.0 * plain[-1])

    def test_yields_its_own_buffer(self):
        g = make_grid(128, -10.0, 10.0)
        free = lambda j, s: np.zeros(g.n)
        buffers = [psi for _, psi in split_step_nodes(
            [gaussian_profile(g).samples], [g], [time_nodes(0.1, 0.01)], free, [1.0], [[2, 5]],
            ["evolution"])]
        assert buffers[0] is buffers[1]


def run_with_change(engine, samples, grid, times, potential, kinetic_scale, visit,
                    label, change_at):
    """(list of (j, copy of the state) at each visit, return value) of one
    engine run of rows on one node array that scales the state by 1.5 in
    place at node `change_at`."""
    seen = []
    nodes = shared_rows(samples, grid, times, potential, kinetic_scale, visit, label, engine)
    while True:
        try:
            j, psi = next(nodes)
        except StopIteration as end:
            return seen, end.value
        if j == change_at:
            psi *= 1.5
        seen.append((j, psi.copy()))


class TestEngineEquivalence:
    """The engine keeps a kinetic table per step length, takes each half
    phase by cos/sin and squares the density into its own buffers; every
    state it hands out, and its norm drift, equal bit for bit those of the
    loop that rebuilt the table on each change of step length and took the
    phase by a complex exp (`helpers.exp_split_step_nodes`)."""

    @pytest.mark.parametrize("kinetic_scale", [1.0, 0.37], ids=["unit", "scaled"])
    @pytest.mark.parametrize("change_at", [0, 3], ids=["change-node-0", "change-node-3"])
    @pytest.mark.parametrize("nodes", ["time-nodes", "interleaved"])
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_visits_and_drift_equal_the_exp_loop(self, batch, nodes, change_at,
                                                  kinetic_scale):
        g, samples, c = TestFusedPhases.setup(batch)
        # dt 0.03 does not divide T = 0.5: both node arrays end on a short step
        times = time_nodes(0.5, 0.03) if nodes == "time-nodes" else _interleaved_nodes(0.5, 0.03)[2]
        assert times[-1] - times[-2] < 0.9 * (times[1] - times[0])
        last = times.size - 1
        # the node before the short last step takes its trailing half apart
        visit = [0, 3, 7, last - 1, last]
        labels = ["a", "b", "c"] if batch else ["evolution"]
        potential = TestBatchedEngine.self_consistent(g, c, times)
        got, drift = run_with_change(split_step_nodes, samples, g, times, potential,
                                     kinetic_scale, visit, labels, change_at)
        ref, ref_drift = run_with_change(exp_split_step_nodes, samples, g, times,
                                         potential, kinetic_scale, visit, labels, change_at)
        assert [j for j, _ in got] == [j for j, _ in ref] == visit
        for (_, psi), (_, ref_psi) in zip(got, ref):
            np.testing.assert_array_equal(psi, ref_psi)
        np.testing.assert_array_equal(drift, ref_drift)
        assert np.shape(drift) == ((3,) if batch else (1,))

    def test_reference_solver_equals_the_exp_loop(self, gauss, monkeypatch):
        # the self-consistent cosine mean field of the default config at
        # eps 0.02 over 1,000 steps, whose float step lengths vary
        eps, T, dt = 0.02, 0.1, 1e-4
        config = ExperimentConfig()
        U = config.external()
        traj = integrate_flow(0.0, 1.0, U, 0.0, T, 1e-3)
        grid = size_physical_grid(traj, eps, 1.0, 0.5)
        psi0 = build_coherent_state(gauss, 0.0, 1.0, eps, grid)

        def run():
            return hartree_run(psi0, config.pair(), U, T, dt, [0, 371, 500])

        got, got_states, got_drift = run()
        monkeypatch.setattr(helpers, "split_step_nodes", exp_split_step_nodes)
        ref, ref_states, ref_drift = run()
        steps = np.diff(time_nodes(T, dt))
        assert steps.size == 1000 and np.unique(steps).size > 2
        np.testing.assert_array_equal(got, [0, 371, 500, 1000])
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got_states, ref_states)
        assert got_drift == ref_drift


class TestGuardBookkeeping:
    """One product `density @ weights` per step gives the engine its norms
    and its guard-band masses; the drift stays that of the summed norms,
    and the guard raises as it did when it summed the edge cells apart."""

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_drift_equals_the_summed_norms_of_every_node(self, batch):
        g, samples, c = TestFusedPhases.setup(batch)
        times = time_nodes(0.5, 0.03)
        labels = ["a", "b", "c"] if batch else ["evolution"]
        idx, seen, drift = run_nodes(shared_rows(
            samples, g, times, TestBatchedEngine.self_consistent(g, c, times), 1.0,
            range(times.size), labels))
        assert idx.tolist() == list(range(times.size))
        norms = np.array([np.sqrt(np.add.reduce(np.abs(psi) ** 2, axis=-1) * g.dx)
                          for psi in seen])
        ref = np.max(np.abs(norms - norms[0]), axis=0)
        assert np.shape(drift) == np.shape(ref)
        assert np.max(np.abs(drift - ref)) <= 1e-15

    def test_single_edge_breach(self):
        g = make_grid(128, -10.0, 10.0)
        psi0 = gaussian_profile(g, wavenumber=12.0).samples
        free = lambda j, s: np.zeros(g.n)
        with pytest.raises(NumericalError) as err:
            run_nodes(split_step_nodes([psi0], [g], [time_nodes(1.0, 1e-2)], free, [1.0],
                                       [range(101)], ["moving"]))
        assert str(err.value) == ("moving: boundary mass 1.914e-08 at t=0.33 "
                                  "exceeds guard 1.0e-08")
        assert err.value.row == 0

    def test_later_row_breaching_first_is_named(self):
        # row 2 runs faster than row 1 and reaches the guard band first
        g = make_grid(128, -10.0, 10.0)
        rows = np.stack([gaussian_profile(g).samples,
                         gaussian_profile(g, wavenumber=8.0).samples,
                         gaussian_profile(g, wavenumber=-14.0).samples])
        free = lambda j, s: np.zeros(s.shape)
        with pytest.raises(NumericalError) as err:
            run_nodes(shared_rows(rows, g, time_nodes(1.0, 1e-2), free, 1.0, range(101),
                                  ["still", "slow", "fast"]))
        assert str(err.value) == ("fast: boundary mass 2.777e-08 at t=0.3 "
                                  "exceeds guard 1.0e-08")
        assert err.value.row == 2

    def test_nan_in_v_names_its_row(self):
        g = make_grid(128, -10.0, 10.0)
        rows = np.stack([gaussian_profile(g).samples] * 3)

        nodes = time_nodes(0.5, 0.03)

        def nan_in_row_1(j, density):
            v = np.zeros(density.shape)
            if nodes[j] > 0.2:
                v[1, 5] = np.nan
            return v

        with pytest.raises(NumericalError) as err:
            run_nodes(shared_rows(rows, g, nodes, nan_in_row_1, 1.0, (), ["a", "b", "c"]))
        assert str(err.value) == "b: non-finite samples at t=0.21"
        assert err.value.row == 1

    def test_rows_under_the_guard_pass_when_their_sum_is_over(self):
        # two stationary plane waves, each with 0.6 * GUARD_MASS in the
        # guard band: the summed band mass takes the row scan, which clears
        g = make_grid(128, -10.0, 10.0)
        amp = np.sqrt(0.6 * GUARD_MASS / (2 * GUARD_CELLS * g.dx))
        rows = amp * np.exp(1j * g.wavenumbers[[3, 5]][:, None] * g.points)
        assert boundary_mass(rows, g, GUARD_CELLS).sum() > GUARD_MASS
        free = lambda j, s: np.zeros(s.shape)
        _, data, _ = run_nodes(shared_rows(rows, g, time_nodes(0.1, 1e-2), free, 1.0, range(11),
                                           ["a", "b"]))
        assert np.isfinite(data).all()


class TestKineticTables:
    """The engine builds one kinetic table per distinct step length of a
    run; np.exp builds nothing else."""

    @pytest.mark.parametrize("substeps", [2, 3, 4, 5])
    @pytest.mark.parametrize("refine", [1, 2])
    def test_physical_steps_build_at_most_16_tables(self, monkeypatch, refine, substeps):
        # the physical reference steps of the default sweep: the profile
        # step 1e-3/refine split into `substeps`, over T = 1
        self.assert_tables(monkeypatch, time_nodes(1.0, 1e-3 / (refine * substeps)), 16)

    @pytest.mark.parametrize("refine", [1, 2])
    def test_correction_nodes_build_at_most_16_tables(self, monkeypatch, refine):
        self.assert_tables(monkeypatch, _interleaved_nodes(1.0, 1e-3 / refine)[2], 16)

    @staticmethod
    def assert_tables(monkeypatch, times, bound):
        g = make_grid(64, -20.0, 20.0)
        psi0 = gaussian_profile(g).samples
        zero = np.zeros(g.n)
        assert np.unique(np.diff(times)).size > 2  # the float steps vary
        calls = []
        exp = np.exp

        def counting_exp(*args, **kwargs):
            calls.append(1)
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        for _ in split_step_nodes([psi0], [g], [times], lambda j, density: zero, [1.0], [()],
                                  ["evolution"]):
            pass
        monkeypatch.undo()
        assert 1 <= len(calls) <= bound


class TestBlockEdges:
    """The engine folds each row's extreme squared norms in per block of 128
    nodes: when a block fills, before a row leaves and at return.  At the
    edges of a block, the messages, `row`, visited states and drift equal
    those of `helpers.exp_split_step_nodes` byte for byte."""

    @staticmethod
    def run(engine, samples, grid, times, potential, visit, label, change):
        """(each visit's (j, state bytes), then the drift's bytes or the
        error's (message, row)) of one run; change(j, psi) may alter each
        visited state in place."""
        seen, nodes = [], shared_rows(samples, grid, times, potential, 1.0, visit, label, engine)
        try:
            while True:
                j, psi = next(nodes)
                change(j, psi)
                seen.append((j, psi.tobytes()))
        except StopIteration as end:
            return seen, np.asarray(end.value).tobytes()
        except NumericalError as exc:
            return seen, (str(exc), exc.row)

    @pytest.mark.parametrize("trip_at", [127, 128, 255, 256])
    @pytest.mark.parametrize("kind", ["non-finite", "boundary"])
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_guard_trip_at_a_block_edge(self, batch, kind, trip_at):
        # the last row trips at node trip_at: a non-finite v there, or mass
        # the caller puts into its edge cells at the node before
        g, samples, c = TestFusedPhases.setup(batch)
        times = time_nodes(3.0, 1e-2)
        base = TestBatchedEngine.self_consistent(g, c, times)

        def potential(j, density):
            v = base(j, density)
            if kind == "non-finite" and j == trip_at:
                np.atleast_2d(v)[-1, 5] = np.nan
            return v

        def change(j, psi):
            if kind == "boundary" and j == trip_at - 1:
                np.atleast_2d(psi)[-1, :4] += 1e-3

        labels = ["a", "b", "c"] if batch else ["evolution"]
        visit = [0, 100, trip_at - 1, trip_at, times.size - 1]
        got = self.run(split_step_nodes, samples, g, times, potential, visit, labels, change)
        ref = self.run(exp_split_step_nodes, samples, g, times, potential, visit, labels, change)
        assert got == ref
        message, row = got[1]
        assert f"at t={times[trip_at]:.6g}" in message
        assert row == (2 if batch else 0)
        assert [j for j, _ in got[0]] == [0, 100, trip_at - 1]

    def test_rows_leaving_mid_block_keep_their_drift(self):
        # ragged rows end at node 300, 190 (mid-block) and 127 (a block's
        # last node); a small in-place scaling after each row's last full
        # block puts its largest norm where only the fold before it leaves
        # (or at return) sees it
        g = make_grid(128, -10.0, 10.0)
        times = [time_nodes(3.0, 1e-2), time_nodes(1.9, 1e-2), time_nodes(1.27, 1e-2)]
        assert [t.size - 1 for t in times] == [300, 190, 127]
        samples = [gaussian_profile(g, center=c, width=w).samples
                   for c, w in ((0.0, 1.0), (0.5, 0.8), (-0.3, 1.2))]
        visits = [[0, 200, 290], [150], [100]]
        base = [TestBatchedEngine.self_consistent(g, c, t)
                for c, t in zip(TestBatchedEngine.coeffs, times)]

        def scale(r):
            return lambda j, psi: psi.__imul__(1.0 + 1e-6) if j in visits[r][1:] or (
                r and j == visits[r][0]) else None

        seen, nodes = [[] for _ in times], split_step_nodes(
            samples, [g] * 3, times, lambda j, density: np.stack(
                [base[r](j, density[r]) for r in range(len(density))]),
            [1.0] * 3, visits, ["a", "b", "c"])
        while True:
            try:
                j, psi = next(nodes)
            except StopIteration as end:
                drifts = end.value
                break
            for r in range(len(psi)):
                if j in visits[r] or j == times[r].size - 1:
                    scale(r)(j, psi[r])
                    seen[r].append((j, psi[r].tobytes()))
        for r in range(3):
            alone = self.run(exp_split_step_nodes, [samples[r]], g, times[r], base[r], visits[r],
                             ["alone"], scale(r))
            assert seen[r] == alone[0]
            assert np.float64(drifts[r]).tobytes() == alone[1]
            assert drifts[r] > 1e-7  # the scaling shows in the drift

    @pytest.mark.parametrize("T", [0.01, 3.0], ids=["one-step", "300-steps"])
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_node_0_change_stays_out_of_the_extremes(self, batch, T):
        # the state is scaled in place at node 0, after that node's norm is
        # taken: the drift counts the scaled norm from node 1 on, and the
        # re-square of the changed state at node 0 is no step of its own
        # (over one step, its roundoff would set an extreme)
        g, samples, c = TestFusedPhases.setup(batch)
        times = time_nodes(T, 1e-2)
        potential = TestBatchedEngine.self_consistent(g, c, times)

        def change(j, psi):
            if j == 0:
                psi *= 1.5

        labels = ["a", "b", "c"] if batch else ["evolution"]
        visit = sorted({0, 1, 128, times.size - 1} & set(range(times.size)))
        got = self.run(split_step_nodes, samples, g, times, potential, visit, labels, change)
        ref = self.run(exp_split_step_nodes, samples, g, times, potential, visit, labels, change)
        assert got == ref
        np.testing.assert_allclose(np.frombuffer(got[1]), 0.5, rtol=1e-9)
