"""Physical sweeps build each refinement level once and share it."""

import pickle
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

import semihartree.hartree as hartree
import semihartree.sweep as sweep_module
from semihartree.config import ExperimentConfig
from semihartree.grids import abs_moment, fourier_second_moment
from semihartree.hartree import compare_evolution, physical_level
from semihartree.potentials import EXTERNAL_NAMES, builtin_external
from semihartree.sweep import run_sweep

SMALL = ExperimentConfig(mode="physical", T=0.25, eps_list=(0.32, 0.16))


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


def test_level_spreads_equal_per_node_moments(monkeypatch):
    # maxvar_k comes from FFTs of 128 rows at a time and maxvar_x from the
    # history's second moments; the oracle is the per-node maximum of
    # fourier_second_moment and abs_moment(., 1) over the same history.
    # 301 nodes: three chunks, the last one partial.
    real, histories = hartree.evolve_beta, []

    def recorded(*args):
        histories.append(real(*args))
        return histories[-1]

    monkeypatch.setattr(hartree, "evolve_beta", recorded)
    config = ExperimentConfig(mode="physical", T=0.3, eps_list=(0.32,))
    level = physical_level(config, refine=1)
    (history,) = histories
    assert len(history) == 301
    # tolerance: 1e-12 relative (sums of 512 terms in another order)
    assert level.maxvar_k == pytest.approx(
        max(fourier_second_moment(s.beta) for s in history), rel=1e-12, abs=0)
    assert level.maxvar_x == pytest.approx(
        max(abs_moment(s.beta, 1) for s in history), rel=1e-12, abs=0)


@pytest.mark.parametrize("name", EXTERNAL_NAMES)
def test_builtin_external_potentials_are_time_independent(name):
    # the reference solver samples U(x) once per run, at t = 0
    U = builtin_external(name)
    x = np.linspace(-6.0, 6.0, 97)
    assert np.array_equal(U.value(x, 0.0), U.value(x, 1.7))
