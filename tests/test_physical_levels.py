"""Physical sweeps build each refinement level once and share it."""

import pickle
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

import semihartree.hartree as hartree
import semihartree.sweep as sweep_module
from semihartree.amplitude import _phase_increments, evolve_beta
from semihartree.classical import hessian_along_flow
from semihartree.config import ExperimentConfig
from semihartree.grids import abs_moment, fourier_second_moment
from semihartree.hartree import compare_evolution, physical_level
from semihartree.potentials import EXTERNAL_NAMES, builtin_external
from semihartree.sweep import run_sweep

SMALL = ExperimentConfig(mode="physical", T=0.25, eps_list=(0.32, 0.16))


def full_history(config, level):
    """The profile run of `level`, stored at every node."""
    phi, U = config.pair(), config.external()
    return evolve_beta(config.initial_profile(), phi.second_deriv_at_0,
                       hessian_along_flow(level.trajectory, U), config.T, level.dt_amp)


@pytest.fixture
def builds(monkeypatch):
    """Profile steps of every evolve_beta call, and the integrate_flow count."""
    record = {"beta_dts": [], "flows": 0}
    evolve_beta, integrate_flow = hartree.evolve_beta, hartree.integrate_flow

    def counted_beta(a0, kappa, hess, T, dt, **kw):
        record["beta_dts"].append(dt)
        return evolve_beta(a0, kappa, hess, T, dt, **kw)

    def counted_flow(*args, **kw):
        record["flows"] += 1
        return integrate_flow(*args, **kw)

    monkeypatch.setattr(hartree, "evolve_beta", counted_beta)
    monkeypatch.setattr(hartree, "integrate_flow", counted_flow)
    return record


def test_default_sweep_builds_each_level_once(builds):
    report = run_sweep(ExperimentConfig(mode="physical"))
    assert len(report.rows) == 5
    # every eps settles at level 2, so levels 1 and 2 are all it builds
    assert sorted(builds["beta_dts"]) == [5e-4, 1e-3]
    assert builds["flows"] == 2


def test_each_sweep_call_builds_its_own_levels(builds):
    run_sweep(SMALL)
    assert builds["flows"] == 2
    run_sweep(SMALL)
    assert builds["flows"] == 4
    assert sorted(builds["beta_dts"]) == [5e-4, 5e-4, 1e-3, 1e-3]


# serial and jobs=2 rows are compared in test_sweep_cli.py
# (test_physical_pool_matches_serial, on the same configuration)


def test_rows_equal_single_comparisons():
    for row in run_sweep(SMALL).rows:
        refine = 2
        result = compare_evolution(row.epsilon, SMALL, physical_level(SMALL, refine))
        while result.dt_used != row.dt_used:
            refine *= 2
            result = compare_evolution(row.epsilon, SMALL, physical_level(SMALL, refine))
        assert row.error == pytest.approx(result.final_error, rel=1e-12)
        assert row.n_used == result.grid_n


def test_pool_tasks_carry_small_payloads(monkeypatch):
    # record what each task would pickle and start no worker process
    sizes = []

    class Stop(Exception):
        pass

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            sizes.append(len(pickle.dumps((fn, args))))
            future = Future()
            future.set_exception(Stop())
            return future

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 4)
    with pytest.raises(Stop):
        run_sweep(ExperimentConfig(mode="physical", eps_list=(0.32, 0.16, 0.08)), jobs=2)
    assert len(sizes) == 3
    assert max(sizes) < 2 ** 20


def test_one_pool_per_sweep(monkeypatch):
    # a thread-backed stand-in records the pool and its tasks; no process starts
    pools, tasks = [], []

    class ThreadPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, /, *args, **kwargs):
            tasks.append((fn, args, kwargs))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", ThreadPool)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 4)
    pooled = run_sweep(SMALL, jobs=2)
    assert pools == [2]
    # 2 eps x levels 1 and 2, every task a module-level function of sweep
    # with positional arguments, so that a process pool can pickle it
    assert len(tasks) == 4
    for fn, args, kwargs in tasks:
        assert fn.__module__ == sweep_module.__name__
        assert getattr(sweep_module, fn.__qualname__) is fn
        assert pickle.loads(pickle.dumps(fn)) is fn
        assert args and kwargs == {}
    serial = run_sweep(SMALL)
    assert [(r.epsilon, r.error, r.dt_used, r.n_used) for r in pooled.rows] \
        == [(r.epsilon, r.error, r.dt_used, r.n_used) for r in serial.rows]


def test_level_keeps_only_compared_states():
    level = physical_level(SMALL, refine=2)
    assert len(level.states) == 1
    assert level.states[0].t == pytest.approx(SMALL.T)
    traced = physical_level(SMALL, refine=1, trace_points=5)
    assert [s.t for s in traced.states] == pytest.approx([0.0, 0.0625, 0.125, 0.187, 0.25],
                                                         abs=1e-3)


def test_level_spreads_equal_per_node_moments():
    # maxvar_k and maxvar_x are reduced on the fly from blocks of 128 nodes;
    # the oracle is the per-node maximum of fourier_second_moment and
    # abs_moment(., 1) over a full history of the same profile run.
    # 301 nodes: three blocks, the last one partial.
    config = ExperimentConfig(mode="physical", T=0.3, eps_list=(0.32,))
    level = physical_level(config, refine=1)
    history = full_history(config, level)
    assert len(history) == 301
    # tolerance: 1e-12 relative (sums of 512 terms in another order)
    assert level.maxvar_k == pytest.approx(
        max(fourier_second_moment(s.beta) for s in history), rel=1e-12, abs=0)
    assert level.maxvar_x == pytest.approx(
        max(abs_moment(s.beta, 1) for s in history), rel=1e-12, abs=0)


@pytest.mark.parametrize("trace_points", [0, 7])
def test_level_fields_equal_reductions_of_a_full_history(trace_points):
    # the level keeps only its compared nodes and reduces the spreads on the
    # fly; the oracle reduces a full stored history with the same block
    # expressions, 128 rows at a time.  301 nodes: the last block is partial.
    config = ExperimentConfig(mode="physical", T=0.3, eps_list=(0.32,))
    level = physical_level(config, refine=1, trace_points=trace_points)
    history = full_history(config, level)
    data, grid, times = history.data, history.grid, history.times
    assert data.shape[0] == 301
    blocks = [data[i:i + 128] for i in range(0, len(data), 128)]
    moments = np.concatenate([np.abs(b) ** 2 @ grid.points ** 2 for b in blocks]) * grid.dx
    maxvar_k = max(np.max(np.abs(np.fft.fft(b)) ** 2 @ grid.wavenumbers ** 2)
                   for b in blocks) * grid.dx / grid.n
    assert level.maxvar_x == moments.max()
    assert level.maxvar_k == maxvar_k
    kappa = config.pair().second_deriv_at_0
    gammas = np.concatenate(([0.0], np.cumsum(_phase_increments(kappa, moments, times))))
    idx = (np.unique(np.linspace(0, 300, trace_points).astype(int)) if trace_points
           else [300])
    assert [s.t for s in level.states] == list(times[idx])
    for state, i in zip(level.states, idx):
        np.testing.assert_array_equal(state.beta.samples, data[i])
        assert state.gamma == gammas[i]


def test_level_build_keeps_no_history():
    # the default level 2 runs 2001 profile nodes: a stored history would
    # be 2001 x 512 x 16 B = 16.4 MB
    tracemalloc.start()
    try:
        level = physical_level(ExperimentConfig(mode="physical"), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level.dt_amp == 5e-4
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("name", EXTERNAL_NAMES)
def test_builtin_external_potentials_are_time_independent(name):
    # the reference solver samples U(x) once per run, at t = 0
    U = builtin_external(name)
    x = np.linspace(-6.0, 6.0, 97)
    assert np.array_equal(U.value(x, 0.0), U.value(x, 1.7))
