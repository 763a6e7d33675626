"""Ragged batches of the engine: rows with their own grids (one n), step
lengths, node counts and visit sets step together under one potential,
and each row's visited states and norm drift equal, bit for bit, those of
a run of its own.
The physical comparisons of one grid size, levels 1 and 2 of every eps
together, run as such a batch, under one stacked reference potential that
equals, bit for bit, the per-row closures it replaced
(`helpers.reference_potential`), their phase checks included."""

from functools import partial
import tracemalloc
import warnings

import numpy as np
import pytest

import semihartree.corrections as corrections
import semihartree.hartree as hartree
import semihartree.rescaled as rescaled
from semihartree._stepping import split_step_nodes, time_nodes
from semihartree.corrections import _interleaved_nodes
from semihartree.config import ExperimentConfig
from semihartree.errors import NumericalError
from semihartree.grids import apply_radial_rfft, gaussian_profile, make_grid, radial_kernel_rfft
from semihartree.hartree import (
    _reference_potential,
    _reference_start,
    build_coherent_state,
    compare,
    physical_level,
)
from semihartree.sweep import SweepError, run_sweep

from helpers import (exp_split_step_nodes, hartree_run, reference_potential, run_nodes,
                     stored_comparison)

CONFIG = ExperimentConfig(mode="physical")
N = 256
T = 0.1


def reference_rows(rows):
    """(psi0, dt) of each (eps, half-width, dt): a coherent state of the
    default profile at q = 0, p = 1 on an N-point grid of that half-width."""
    a0 = CONFIG.initial_profile()
    return [(build_coherent_state(a0, 0.0, 1.0, eps, make_grid(N, -hw, hw)), dt)
            for eps, hw, dt in rows]


def ragged_finals(nodes, ends):
    """({row: final samples}, norm drifts) of the ragged batch `nodes`
    whose rows end at the node indices `ends`."""
    finals = {}
    try:
        while True:
            j, psi = next(nodes)
            finals.update((r, psi[r].copy()) for r, end in enumerate(ends) if end == j)
    except StopIteration as end:
        return finals, end.value


def stacked(starts, times=None):
    """The reference potential of the ragged batch of (psi0, dt) `starts`
    on their nodes up to T, or on `times`."""
    times = times or [time_nodes(T, dt) for _, dt in starts]
    return _reference_potential([(p, dt, t) for (p, dt), t in zip(starts, times)],
                                CONFIG.pair(), CONFIG.external())


def run_ragged(starts):
    """({row: final samples}, norm drifts) of one ragged batch under the
    reference potential."""
    times = [time_nodes(T, dt) for _, dt in starts]
    nodes = split_step_nodes(
        [p.samples for p, _ in starts], [p.grid for p, _ in starts], times, stacked(starts),
        [p.frame.epsilon for p, _ in starts], [()] * len(starts),
        [f"row {r}" for r in range(len(starts))])
    return ragged_finals(nodes, [t.size - 1 for t in times])


def scan_bounds(cfg, pairs):
    """`hartree._phase_bounds` of the reference runs of (eps, level) pairs:
    above pi/2, a run's batch scans its phase every step."""
    runs = [_reference_start(eps, cfg, level) for eps, level in pairs]
    return hartree._phase_bounds(runs, cfg.pair(), [cfg.external().value(p.grid.points)
                                                    for p, *_ in runs])


def count_engine_steps(monkeypatch, module):
    """The node count each row's potential saw, one list per engine call
    that `module` makes, each row asserted to see every node of its own
    once."""
    calls = []
    real = module.split_step_nodes

    def counting(samples0, grid, times, potential, *args, **kwargs):
        counts = [0] * len(times)

        def counted(j, density):
            for r in range(len(density)):
                counts[r] += 1
            return potential(j, density)

        drift = yield from real(samples0, grid, times, counted, *args, **kwargs)
        assert counts == [t.size for t in times]  # every node of every row, once
        calls.append(counts)
        return drift

    monkeypatch.setattr(module, "split_step_nodes", counting)
    return calls


# (eps, half-width, dt) per row, longest first
CASES = {
    # three grids, three eps and three node counts (250, 143, 100); dt 7e-4
    # does not divide T, so that row ends on a short step
    "ragged": [(0.08, 6.0, 4e-4), (0.32, 8.0, 7e-4), (0.16, 7.0, 1e-3)],
    "equal-length": [(0.16, 7.0, 5e-4), (0.08, 6.0, 5e-4)],
    "short-final-step": [(0.08, 6.0, 3e-4), (0.16, 7.0, 6e-4)],
    "one-row": [(0.08, 6.0, 4e-4)],
}


@pytest.mark.parametrize("case", list(CASES))
def test_rows_equal_their_own_runs_bit_for_bit(case):
    starts = reference_rows(CASES[case])
    finals, drifts = run_ragged(starts)
    assert sorted(finals) == list(range(len(starts)))
    assert np.shape(drifts) == (len(starts),)
    for r, (psi0, dt) in enumerate(starts):
        _, alone, drift = hartree_run(psi0, CONFIG.pair(), CONFIG.external(), T, dt)
        assert finals[r].tobytes() == alone[-1].tobytes()
        assert np.float64(drifts[r]).tobytes() == np.float64(drift).tobytes()
    if case == "short-final-step":
        nodes = time_nodes(T, 3e-4)
        assert nodes[-1] - nodes[-2] < 0.5 * 3e-4


@pytest.mark.parametrize("pair", ["cosine", "gaussian", "zero"])
def test_stacked_potential_equals_the_per_row_closures(pair):
    # tolerance 0: each held row's potential, for every held count, equals
    # the closure of its run alone; cosine and zero convolve by moments,
    # gaussian by FFT
    cfg = ExperimentConfig(mode="physical", phi_name=pair)
    starts = reference_rows(CASES["ragged"])
    times = [time_nodes(T, dt) for _, dt in starts]
    new = _reference_potential([(p, dt, t) for (p, dt), t in zip(starts, times)],
                               cfg.pair(), cfg.external())
    old = [reference_potential(p, dt, t, cfg.pair(), cfg.external())
           for (p, dt), t in zip(starts, times)]
    density = np.abs(np.stack([p.samples for p, _ in starts])) ** 2
    for m in (3, 2, 1):
        for j in (0, 7, 99):
            got = new(j, density[:m])
            assert got.shape == (m, N)
            for r in range(m):
                assert got[r].tobytes() == old[r](j, density[r]).tobytes()


def phase_rows(targets):
    """(starts, node arrays, densities) of the "ragged" rows with each dt
    set so that the phase per step at node 0 is the target's (rad)."""
    starts = reference_rows(CASES["ragged"])
    density = np.abs(np.stack([p.samples for p, _ in starts])) ** 2
    peaks = [np.abs(reference_potential(p, 0.0, [0.0], CONFIG.pair(), CONFIG.external())(0, d))
             .max() for (p, _), d in zip(starts, density)]
    starts = [(p, phase / peak) for (p, _), phase, peak in zip(starts, targets, peaks)]
    return starts, [time_nodes(T, dt) for _, dt in starts], density


def per_row_calls(starts, times, density, j, calls):
    """(warnings, error) of the per-row closures called `calls` times each
    at node j, row after row as the engine called them."""
    old = [reference_potential(p, dt, times[r], CONFIG.pair(), CONFIG.external(), r)
           for r, (p, dt) in enumerate(starts)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for _ in range(calls):
                for r, potential in enumerate(old):
                    potential(j, density[r])
        except NumericalError as exc:
            return [str(w.message) for w in caught], exc
    return [str(w.message) for w in caught], None


def stacked_calls(starts, times, density, j, calls):
    """(warnings, error) of the stacked potential called `calls` times at node j."""
    new = stacked(starts, times)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for _ in range(calls):
                new(j, density)
        except NumericalError as exc:
            return [str(w.message) for w in caught], exc
    return [str(w.message) for w in caught], None


def test_stacked_phase_abort_names_its_row_and_own_time():
    # phases 2, 4 and 2 rad: row 0 warns, row 1 aborts at its own time,
    # and row 2 is never reached, as when each row had its own closure
    starts, times, density = phase_rows((2.0, 4.0, 2.0))
    old_warned, old_err = per_row_calls(starts, times, density, 1, 1)
    new_warned, new_err = stacked_calls(starts, times, density, 1, 1)
    assert new_warned == old_warned and len(new_warned) == 1
    assert "2.000 rad exceeds pi/2" in new_warned[0]
    assert str(new_err) == str(old_err) \
        == f"potential phase per step 4.000 rad exceeds pi at t={times[1][1]:.6g}; reduce dt"
    assert new_err.row == old_err.row == 1


def test_stacked_phase_warning_once_per_row():
    # phases 2, 1 and 2 rad over three calls: rows 0 and 2 warn once each
    starts, times, density = phase_rows((2.0, 1.0, 2.0))
    old_warned, old_err = per_row_calls(starts, times, density, 0, 3)
    new_warned, new_err = stacked_calls(starts, times, density, 0, 3)
    assert old_err is None and new_err is None
    assert new_warned == old_warned and len(new_warned) == 2


def test_rows_leave_shortest_first():
    # each row's final node is visited, with the rows not yet ended
    starts = reference_rows(CASES["ragged"])
    seen = [(j, len(psi)) for j, psi in split_step_nodes(
        [p.samples for p, _ in starts], [p.grid for p, _ in starts],
        [time_nodes(T, dt) for _, dt in starts], stacked(starts),
        [p.frame.epsilon for p, _ in starts], [()] * 3, ["a", "b", "c"])]
    assert seen == [(100, 3), (143, 2), (250, 1)]


def test_rows_must_come_longest_first():
    starts = reference_rows(CASES["ragged"])[::-1]
    with pytest.raises(ValueError, match="longest first"):
        next(split_step_nodes(
            [p.samples for p, _ in starts], [p.grid for p, _ in starts],
            [time_nodes(T, dt) for _, dt in starts], stacked(starts),
            [p.frame.epsilon for p, _ in starts], [()] * 3, ["a", "b", "c"]))


def moving_rows():
    """Free packets on three grids of 128 points, longest run first: row 1
    runs into its edge at t = 0.3705, a node of its own only, after row 2
    (the shortest run) has ended, while row 0 stays inside its window."""
    grids = [make_grid(128, -10.0, 10.0), make_grid(128, -10.0, 10.0),
             make_grid(128, -12.0, 12.0)]
    samples = [gaussian_profile(grids[0]).samples,
               gaussian_profile(grids[1], wavenumber=-14.0).samples,
               gaussian_profile(grids[2], wavenumber=3.0).samples]
    times = [time_nodes(0.8, 1e-2), time_nodes(0.45, 6.5e-3), time_nodes(0.2, 1e-2)]
    return samples, grids, times, [1.0, 0.8, 1.3], ["still", "fast", "short"]


def free(j, density):
    """No potential."""
    return np.zeros(density.shape)


def test_guard_trip_mid_batch_names_its_row_and_own_time():
    samples, grids, times, scales, labels = moving_rows()
    with pytest.raises(NumericalError) as ref:
        run_nodes(split_step_nodes([samples[1]], [grids[1]], [times[1]], free, [scales[1]],
                                   [range(times[1].size)], [labels[1]]))
    _, (short,) = next(split_step_nodes([samples[2]], [grids[2]], [times[2]], free, [scales[2]],
                                        [[times[2].size - 1]], [labels[2]]))
    visits = []
    with pytest.raises(NumericalError) as err:
        for j, psi in split_step_nodes(samples, grids, times, free, scales, [()] * 3, labels):
            visits.append((j, len(psi)))
            final = psi[-1].copy()
    assert str(err.value) == str(ref.value)
    assert str(err.value).startswith("fast: boundary mass ")
    assert " at t=0.3705 " in str(err.value)
    assert err.value.row == 1
    # the row that ended before the trip yielded its own final state
    assert visits == [(times[2].size - 1, 3)]
    assert final.tobytes() == short.tobytes()


def test_lone_row_visits_the_nodes_asked_for():
    # a one-row ragged call visits the trace nodes as well as its final
    # node, as a run of its own does
    (psi0, dt), = reference_rows(CASES["one-row"])
    times = time_nodes(T, dt)
    trace = [0, 7, 100, 180]
    idx, states, drift = run_nodes(split_step_nodes(
        [psi0.samples], [psi0.grid], [times], stacked([(psi0, dt)]),
        [psi0.frame.epsilon], [trace], ["row 0"]))
    alone_idx, alone, alone_drift = hartree_run(psi0, CONFIG.pair(), CONFIG.external(), T, dt,
                                                trace)
    assert idx.tolist() == alone_idx.tolist() == [*trace, times.size - 1]
    assert states[:, 0].tobytes() == alone.tobytes()
    assert np.float64(drift[0]).tobytes() == np.float64(alone_drift).tobytes()


def test_rows_with_own_visits_equal_their_own_runs():
    # four rows on their own node arrays: a zero row one node behind on
    # [0, *nodes] (a zero-length first step) seen at its own midpoints, a
    # row seen at every interleaved node, one at the midpoints only, and a
    # shorter row on another grid at two nodes.  The caller adds a source to
    # each row it sees; every seen state and the drift equal, as bytes,
    # those of the row run alone through the engine's oracle (a one-row batch,
    # `helpers.exp_split_step_nodes`)
    _, _, nodes = _interleaved_nodes(0.2, 0.03)
    grids = [make_grid(128, -10.0, 10.0)] * 3 + [make_grid(128, -12.0, 12.0)]
    times = [np.append(0.0, nodes), nodes, nodes, time_nodes(0.1, 0.02)]
    visits = [range(2, nodes.size + 1, 2), range(nodes.size), range(1, nodes.size, 2), [2, 3]]
    samples = [np.zeros(128), gaussian_profile(grids[1]).samples,
               gaussian_profile(grids[2], width=0.8).samples,
               gaussian_profile(grids[3], wavenumber=2.0).samples]
    cs, scales = (0.5, -1.0, 2.0, 0.7), (1.0, 1.0, 0.6, 1.3)
    sources = [0.01 * gaussian_profile(g, center=1.0).samples for g in grids]
    khats = [radial_kernel_rfft(lambda r: np.cos(r), g) for g in grids]

    def own_v(r, j, density):
        return (cs[r] * apply_radial_rfft(khats[r], density, grids[r])
                + (1.0 + times[r][j]) * grids[r].points ** 2)

    def batch_v(j, density):
        return np.stack([own_v(r, j, density[r]) for r in range(len(density))])

    seen, batch = [[] for _ in times], split_step_nodes(
        samples, grids, times, batch_v, list(scales), visits, list("abcd"))
    while True:
        try:
            j, psi = next(batch)
        except StopIteration as end:
            drifts = end.value
            break
        for r in range(len(psi)):
            if j in visits[r] or j == times[r].size - 1:
                psi[r] += sources[r]
                seen[r].append((j, psi[r].copy()))
    for r, t in enumerate(times):
        alone, run = [], exp_split_step_nodes([samples[r]], [grids[r]], [t], partial(own_v, r),
                                              [scales[r]], [visits[r]], ["alone"])
        while True:
            try:
                j, psi = next(run)
            except StopIteration as end:
                drift = end.value[0]
                break
            psi += sources[r]
            alone.append((j, psi.copy()))
        assert [j for j, _ in seen[r]] == [j for j, _ in alone] == sorted({*visits[r], t.size - 1})
        for (_, got), (_, want) in zip(seen[r], alone):
            assert got.tobytes() == want.tobytes()
        assert np.float64(drifts[r]).tobytes() == np.float64(drift).tobytes()
    assert np.max(np.abs(seen[0][-1][1])) > 0.01  # the zero row is live


def test_compare_rows_equal_the_stored_comparison():
    # eps 0.32 .. 0.04 share n = 512 at the default T and eps 0.02 has
    # n = 1024, at both levels: one call steps levels 1 and 2 of every eps
    # as an 8-row and a 2-row batch, and each record equals, bit for bit,
    # the oracle's run of its pair alone
    levels = [physical_level(CONFIG, refine) for refine in (1, 2)]
    pairs = [(eps, level) for eps in CONFIG.eps_list for level in levels]
    got = compare(pairs, CONFIG)
    assert [n for _, _, n, _ in got] == [512] * 8 + [1024] * 2
    for (eps, level), (errors, dt, n, drift) in zip(pairs, got):
        _, stored_errors, stored_drift = stored_comparison(eps, CONFIG, level)
        assert np.array(errors).tobytes() == stored_errors.tobytes()
        assert np.float64(drift).tobytes() == np.float64(stored_drift).tobytes()
        psi0, own_dt, _, _ = _reference_start(eps, CONFIG, level)
        assert (dt, n) == (own_dt, psi0.grid.n)


def test_compare_of_traced_pairs_equals_the_stored_comparison():
    # three traced pairs of two levels in one n = 512 batch, each visited at
    # its own trace nodes: each record equals, as bytes, the oracle's run of
    # its pair alone
    levels = [physical_level(CONFIG, 1, 3), physical_level(CONFIG, 2, 5)]
    pairs = [(0.32, levels[0]), (0.16, levels[1]), (0.08, levels[0])]
    got = compare(pairs, CONFIG)
    assert [n for _, _, n, _ in got] == [512] * 3
    for (eps, level), (errors, _, _, drift) in zip(pairs, got):
        _, stored_errors, stored_drift = stored_comparison(eps, CONFIG, level)
        assert len(errors) == len(level.states)
        assert np.array(errors).tobytes() == stored_errors.tobytes()
        assert np.float64(drift).tobytes() == np.float64(stored_drift).tobytes()


def test_phase_limit_failure_carries_the_callers_row():
    # dt 0.1: at level 1 eps 0.04 exceeds pi at t = 0, eps 0.08 only pi/2;
    # its level-1 pair is the seventh of the wave (n = 512 for every pair)
    cfg = ExperimentConfig(mode="physical", dt=0.1, eps_list=(0.32, 0.16, 0.08, 0.04))
    levels = [physical_level(cfg, refine) for refine in (1, 2)]
    assert min(scan_bounds(cfg, [(eps, levels[0]) for eps in (0.08, 0.04)])) > 0.5 * np.pi
    with pytest.raises(NumericalError) as one:
        compare([(0.04, levels[0])], cfg)
    with pytest.warns(RuntimeWarning, match="exceeds pi/2"):
        with pytest.raises(NumericalError) as err:
            compare([(eps, level) for eps in cfg.eps_list for level in levels], cfg)
        sweep_err = pytest.raises(NumericalError, run_sweep, cfg)
    assert str(err.value) == str(one.value)
    assert str(err.value).startswith("potential phase per step 4.975 rad exceeds pi at t=0")
    assert err.value.row == 6
    assert sweep_err.value.failed_eps == 0.04
    assert [r.epsilon for r in sweep_err.value.report.rows] == [0.32, 0.16, 0.08]


def test_failure_in_a_reordered_batch_carries_the_callers_row(monkeypatch):
    # at the default T the batch of eps 0.32 .. 0.04 is held longest first,
    # as 0.04, 0.08, 0.32, 0.16; the potential of eps 0.08 (list index 2,
    # held second) turns non-finite from t = 0.5 on
    real = hartree._reference_potential

    def poisoned(runs, phi, U):
        potential = real(runs, phi, U)

        def v(j, density):
            w = potential(j, density)
            for r, (psi0, _, nodes, *_) in enumerate(runs[:len(density)]):
                if psi0.frame.epsilon == 0.08 and nodes[j] >= 0.5:
                    w[r, 7] = np.nan
            return w
        return v

    monkeypatch.setattr(hartree, "_reference_potential", poisoned)
    eps = [0.32, 0.16, 0.08, 0.04]
    level = physical_level(CONFIG)
    with pytest.raises(NumericalError) as one:
        compare([(0.08, level)], CONFIG)
    with pytest.raises(NumericalError) as err:
        compare([(e, level) for e in eps], CONFIG)
    assert str(err.value) == str(one.value) \
        == "hartree reference (eps=0.08): non-finite samples at t=0.5"
    assert err.value.row == 2


def test_half_pi_warning_once_per_row():
    # dt 0.09: eps 0.1 and 0.08, one batch, both exceed pi/2 on every step
    # and never pi
    cfg = ExperimentConfig(mode="physical", dt=0.09, eps_list=(0.1, 0.08))
    level = physical_level(cfg)
    assert min(scan_bounds(cfg, [(eps, level) for eps in cfg.eps_list])) > 0.5 * np.pi
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = compare([(eps, level) for eps in cfg.eps_list], cfg)
    assert [n for _, _, n, _ in rows] == [512, 512]
    texts = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(texts) == 2
    assert all("exceeds pi/2" in text for text in texts)


def test_default_physical_sweep_counts_its_steps_at_the_engine(monkeypatch):
    # every eps settles at level 2: 48,000 row-steps in one wave.  Levels 1
    # and 2 of eps 0.32 .. 0.04 are one 8-row batch on n = 512, and those of
    # eps 0.02 one 2-row batch on n = 1024; each takes as many engine steps
    # as its longest row (8,000 and 10,000)
    calls = count_engine_steps(monkeypatch, hartree)
    report = run_sweep(CONFIG)
    assert len(report.rows) == 5
    assert [len(counts) for counts in calls] == [8, 2]
    assert sum(c - 1 for counts in calls for c in counts) == 48_000
    assert sum(max(counts) - 1 for counts in calls) == 18_000


def test_default_rescaled_sweep_steps_each_wave_in_one_call(monkeypatch):
    # every eps settles at level 2: one wave, one engine call of 12 rows.
    # b of level 2 takes 4,000 steps on its dt/2 nodes, b of level 1 and
    # the eps of level 2 2,000 each, the eps of level 1 1,000 each: 21,000
    # row-steps in 4,000 engine steps (9,000 when b and the eps of each
    # level stepped apart)
    calls = count_engine_steps(monkeypatch, rescaled)
    report = run_sweep(ExperimentConfig(mode="rescaled"))
    assert len(report.rows) == 5
    assert calls == [[4_001] + [2_001] * 6 + [1_001] * 5]
    assert sum(c - 1 for counts in calls for c in counts) == 21_000


def test_default_corrections_sweep_takes_8002_engine_steps(monkeypatch):
    # each level build is one engine call: b and the first correction on
    # the 2,001 and 4,001 interleaved nodes of levels 1 and 2, the second
    # correction one node behind on one node more (6,002 engine steps); the
    # eps of both levels are one more call (2,000): 8,002, where the two
    # correction passes and the eps took 14,000
    calls = count_engine_steps(monkeypatch, corrections)
    wave = count_engine_steps(monkeypatch, rescaled)
    report = run_sweep(ExperimentConfig(mode="corrections-2"))
    assert len(report.rows) == 5
    assert calls == [[2_002, 2_001, 2_001], [4_002, 4_001, 4_001]]
    assert sum(max(counts) - 1 for counts in calls + wave) == 8_002


def test_default_corrections_sweep_steps_its_eps_in_one_call(monkeypatch):
    # the eps of levels 1 and 2 as one 10-row call: 15,000 row-steps in
    # 2,000 engine steps (3,000 level by level); b and the corrections
    # step in the level builds
    calls = count_engine_steps(monkeypatch, rescaled)
    report = run_sweep(ExperimentConfig(mode="corrections-2"))
    assert len(report.rows) == 5
    assert calls == [[2_001] * 5 + [1_001] * 5]
    assert sum(c - 1 for counts in calls for c in counts) == 15_000


@pytest.mark.parametrize("jobs", [1, 2])
def test_unsizable_grid_fails_its_own_eps(jobs):
    # eps 1e-6 would need more than 2^22 grid points: the sweep keeps the
    # row of eps 0.32 and fails at 1e-6, whatever jobs is
    cfg = ExperimentConfig(mode="physical", eps_list=(0.32, 1e-6))
    with pytest.raises(SweepError, match=r"n > 4194304 \(eps=1e-06\)") as err:
        run_sweep(cfg, jobs=jobs)
    assert err.value.failed_eps == 1e-6
    assert [r.epsilon for r in err.value.report.rows] == [0.32]
    level = physical_level(cfg)
    with pytest.raises(NumericalError) as one:
        compare([(0.32, level), (1e-6, level)], cfg)
    assert one.value.row == 1


def test_ragged_run_holds_no_python_float_per_node():
    # 8 rows (step lengths dt and 2 dt for four dt) of up to 8,000 steps on
    # 64 points, so that the per-node tables, not the states, set the peak:
    # the step lengths (0.49 MiB) and phase scales (0.49 MiB) as arrays,
    # and 16-bit codes into each row's kinetic tables (0.12 MiB).  Holding
    # each row's steps as a list of Python floats instead adds about
    # 2 MiB (peaks 1.7 and 3.2 MiB)
    grid = make_grid(64, -16.0, 16.0)
    dts = (1e-4, 1.3e-4, 1.7e-4, 2.3e-4)
    times = sorted((time_nodes(0.8, f * dt) for dt in dts for f in (1, 2)), key=lambda t: -t.size)
    assert times[0].size == 8_001
    zero = np.zeros(grid.n)
    rows = split_step_nodes([gaussian_profile(grid).samples] * 8, [grid] * 8, times,
                            lambda j, density: zero, [1.0] * 8, [()] * 8, list("abcdefgh"))
    tracemalloc.start()
    try:
        visits = [j for j, _ in rows]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert visits == sorted({t.size - 1 for t in times})
    assert peak < 2.5 * 2 ** 20
