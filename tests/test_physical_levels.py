"""Physical sweeps build each refinement level once and share it."""

import inspect
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import semihartree.hartree as hartree
from semihartree._stepping import time_nodes
from semihartree.amplitude import evolve_beta
from semihartree.config import ExperimentConfig
from semihartree.grids import abs_moment
from semihartree.hartree import compare, physical_level
from semihartree.potentials import EXTERNAL_NAMES, builtin_external
from semihartree.sweep import run_sweep

from helpers import fourier_second_moment, phase_increments

SMALL = ExperimentConfig(mode="physical", T=0.25, eps_list=(0.32, 0.16))


def full_history(config, level):
    """The profile run of `level`, stored at every node."""
    phi, U = config.pair(), config.external()
    nodes = time_nodes(config.T, level.dt_amp)
    return evolve_beta(config.initial_profile(), phi.second_deriv_at_0,
                       U.hess(level.trajectory.qs_at(nodes)), config.T, level.dt_amp,
                       range(nodes.size))


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


def test_rows_equal_single_comparisons():
    for row in run_sweep(SMALL).rows:
        refine = 2
        [(errors, dt, n, _)] = compare([(row.epsilon, physical_level(SMALL, refine))], SMALL)
        while dt != row.dt_used:
            refine *= 2
            [(errors, dt, n, _)] = compare([(row.epsilon, physical_level(SMALL, refine))], SMALL)
        assert (row.error, row.dt_used, row.n_used) == (errors[-1], dt, n)


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
    gammas = np.concatenate(([0.0], np.cumsum(phase_increments(kappa, moments, times))))
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
    # every callable of U takes x alone, so the reference solver's one
    # sample of U(x) per run is all of U
    U = builtin_external(name)
    x = np.linspace(-6.0, 6.0, 97)
    for fn in (U.value, U.grad, U.hess, U.third, U.fourth):
        assert list(inspect.signature(fn).parameters) == ["x"]
        assert np.shape(fn(x)) == x.shape


def test_trace_nodes_load_no_masked_arrays():
    # np.unique and np.union1d import numpy.ma on first call (NumPy 2.4),
    # about 1.5 MiB of peak memory; compare picks its trace nodes without them
    code = ("import sys; from semihartree.cli import main; "
            "main(['compare', '--eps', '0.32', '--trace', '5', '--quiet']); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                         timeout=120)
    assert out.stdout.strip() == "False"
