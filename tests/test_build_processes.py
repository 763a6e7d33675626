"""The packet-frame sweeps build the correction orders of a wave's levels
beside its eps stepping, through the fan-out that `compare` shares
(`_stepping.fan_out`): the builds, in refine order, then the wave, the
first in this process and each other in a forked child.  The rows, the
error of a failing eps and its partial report equal those of one process
(W = 1), a task whose pipe or fork fails runs here, `rescaled` (no orders)
forks nothing, and no child outlives the sweep."""

import errno
import os
import signal
import time
from dataclasses import replace

import pytest

import semihartree.amplitude as amplitude
import semihartree.corrections as corrections
import semihartree.rescaled as rescaled
import semihartree.sweep as sweep_module
from semihartree.amplitude import B_LABEL
from semihartree.config import ExperimentConfig
from semihartree.errors import NumericalError
from semihartree.sweep import SweepError, run_sweep

from conftest import TWO, needs_two_cpus, serial


def timeless(report):
    """repr of a report whose rows' wall_ms, the only field that varies, are 0."""
    return repr(replace(report, rows=tuple(replace(r, wall_ms=0.0) for r in report.rows)))


def outcome(config):
    """(repr of the report, None) of a sweep, or (message, failed eps, repr
    of the partial report) of its SweepError; wall_ms left out."""
    try:
        return timeless(run_sweep(config)), None
    except SweepError as exc:
        return str(exc), exc.failed_eps, timeless(exc.report)


@needs_two_cpus
@pytest.mark.parametrize("mode", ["corrections-1", "corrections-2"])
def test_default_rows_are_the_ones_of_a_single_process(forks, monkeypatch, mode):
    # the first wave: level 1's build here, level 2's and the eps wave in
    # two children; every eps settles at level 2
    config = ExperimentConfig(mode=mode)
    rows = outcome(config)
    assert len(forks) == 2
    assert rows == serial(monkeypatch, lambda: outcome(config))
    assert rows[0].count("SweepRow(") == 5


@pytest.mark.parametrize("mode", ["corrections-1", "corrections-2"])
def test_narrow_window_fails_as_in_a_single_process(forks, monkeypatch, mode):
    # 128 cells on +-4: b trips the guard at t = 0 in level 1's build, which
    # runs here; the message, the failed eps and the empty report are those
    # of one process, and the children are killed
    config = ExperimentConfig(mode=mode, mu_n=128, mu_halfwidth=4.0)
    one = serial(monkeypatch, lambda: outcome(config))
    assert outcome(config) == one
    message, failed_eps, report = one
    assert failed_eps == 0.08 and "rows=()" in report
    assert message.startswith(f"sweep aborted at eps=0.08: {B_LABEL}: boundary mass ")
    assert message.endswith(" at t=0 exceeds guard 1.0e-08")
    assert len(forks) == (2 if TWO else 0)


@needs_two_cpus
def test_build_that_dies_raises_one_line(forks, monkeypatch):
    # level 2's build steps in a child, which kills itself
    parent, real = os.getpid(), sweep_module.evolve_corrections

    def killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(sweep_module, "evolve_corrections", killed)
    with pytest.raises(SweepError) as err:
        run_sweep(ExperimentConfig(mode="corrections-2", T=0.25))
    assert len(forks) == 2
    assert str(err.value) == ("sweep aborted at eps=0.08: corrections build (dt=0.0005): its "
                              f"process ended without a result (exit code {-signal.SIGKILL})")
    assert err.value.failed_eps == 0.08 and err.value.report.rows == ()


@needs_two_cpus
def test_interrupted_process_kills_its_children(forks, monkeypatch):
    # level 1's build, here, is interrupted while the children would sleep
    # for a minute: they are killed and reaped, not waited for
    parent, real = os.getpid(), sweep_module.evolve_corrections

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60.0)
        return real(*args)

    def asleep(*args, **kwargs):
        time.sleep(60.0)

    monkeypatch.setattr(sweep_module, "evolve_corrections", interrupted)
    monkeypatch.setattr(sweep_module, "evolve_wave", asleep)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(ExperimentConfig(mode="corrections-2", T=0.25))
    assert len(forks) == 2
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("w", [1, pytest.param(2, marks=needs_two_cpus)], ids=["W1", "W2"])
def test_failing_wave_row_reruns_with_its_builds(forks, monkeypatch, tmp_path, w):
    # a wave row of eps 0.04 fails, in the wave's child at W = 2: the sweep
    # ends at eps 0.04 as in one process, and the rerun of the wave for eps
    # 0.08 builds its two levels again beside it (four builds in all)
    if w == 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    log = tmp_path / "builds"
    real_build, real_wave = sweep_module.evolve_corrections, sweep_module.evolve_wave

    def build(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("b")
        return real_build(*args)

    def wave(a0, phi, U, T, levels, with_b):
        eps = [e for *_, epsilons in levels for e in epsilons]
        if 0.04 in eps:
            raise NumericalError("poisoned row (eps=0.04)", row=eps.index(0.04))
        return real_wave(a0, phi, U, T, levels, with_b)

    monkeypatch.setattr(sweep_module, "evolve_corrections", build)
    monkeypatch.setattr(sweep_module, "evolve_wave", wave)
    message, failed_eps, report = outcome(
        ExperimentConfig(mode="corrections-2", T=0.25, eps_list=(0.08, 0.04, 0.02)))
    assert message == "sweep aborted at eps=0.04: poisoned row (eps=0.04)"
    assert failed_eps == 0.04 and report.count("SweepRow(epsilon=0.08,") == 1
    assert "epsilon=0.04" not in report
    assert log.read_text() == "bbbb"
    assert len(forks) == 4 * (w - 1)


def test_rescaled_forks_nothing(forks):
    # K = 0 has no orders to build: each wave is one task, stepped here
    report = run_sweep(ExperimentConfig(mode="rescaled", eps_list=(0.32, 0.16)))
    assert len(report.rows) == 2
    assert forks == []


@pytest.mark.parametrize("mode, call", [("physical", "fork"), ("corrections-2", "fork"),
                                        ("corrections-2", "pipe")])
def test_failed_fork_runs_the_task_here(forks, monkeypatch, mode, call):
    # EAGAIN from os.fork (or EMFILE from os.pipe) for every task: each runs
    # in this process, after the tasks before it, with the same rows.  At
    # T = 0.25 physical eps 0.08 and 0.02 step on n = 256 and n = 1024, two
    # batches, and corrections-2 builds two levels beside its wave
    config = ExperimentConfig(mode=mode, T=0.25, eps_list=(0.08, 0.02))
    rows = outcome(config)
    assert len(forks) == (0 if not TWO else 1 if mode == "physical" else 2)
    forks.clear()

    def refused(*args):
        raise OSError(errno.EAGAIN if call == "fork" else errno.EMFILE, call)

    monkeypatch.setattr(os, call, refused)
    assert outcome(config) == rows
    assert forks == []


def test_default_corrections_sweep_work_across_processes(forks, monkeypatch, tmp_path):
    # the default corrections-2 sweep's kernel calls, counted in every
    # process through one file each call appends a byte to: b's potential
    # in the level builds (6,002: once per node b is held at, none at the
    # last node) and in the eps wave (2,001) take one convolution each
    # (8,003); the builds' 1,000 + 2,000 dt steps take one deposit per
    # order, one coupling each (6,000), and one call for the second order's
    # sources (3,000): 9,000 moment forms
    log = os.open(tmp_path / "calls", os.O_WRONLY | os.O_APPEND | os.O_CREAT)

    def counted(module, name, mark):
        real = getattr(module, name)

        def call(*args, **kwargs):
            os.write(log, mark)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(amplitude, "apply_radial_rfft", b"r")
    counted(rescaled, "apply_radial_rfft", b"r")
    counted(corrections, "separation_power_form", b"s")
    try:
        report = run_sweep(ExperimentConfig(mode="corrections-2"))
    finally:
        os.close(log)
    calls = (tmp_path / "calls").read_bytes()
    assert len(report.rows) == 5
    assert len(forks) == (2 if TWO else 0)
    assert (calls.count(b"r"), calls.count(b"s")) == (8_003, 9_000)
