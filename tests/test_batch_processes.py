"""`compare` deals its grid-size batches, in order and split by cost, to
this process and forked children, one share per usable CPU.  The records,
the error of a failing pair and the recorded warnings equal those of the
batches stepped in turn in one process (W = 1), and no child outlives the
call, not even one that dies or whose parent is interrupted."""

import os
import signal
import warnings

import numpy as np
import pytest

import semihartree.hartree as hartree
from semihartree.config import ExperimentConfig
from semihartree.errors import NumericalError
from semihartree.hartree import compare, physical_level

from conftest import needs_two_cpus, serial

# at T = 0.25, eps 0.08 sizes its grid at n = 256 and eps 0.02 at n = 1024:
# two batches, the second one the child's when two CPUs are usable
SHORT = ExperimentConfig(mode="physical", T=0.25, eps_list=(0.08, 0.02))


@pytest.fixture(params=[1, pytest.param(2, marks=needs_two_cpus)], ids=["W1", "W2"])
def workers(request, monkeypatch, forks):
    """(W, forks): the CPU lookup pinned to one CPU for W = 1, the real one
    (two CPUs or more, two batches) for W = 2."""
    if request.param == 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    return request.param, forks


@needs_two_cpus
def test_default_pairs_give_the_same_records(forks, monkeypatch):
    # level 1 of every default eps: a 4-row batch on n = 512 here and eps
    # 0.02 on n = 1024 in the child, against both batches stepped here (the
    # whole first wave, levels 1 and 2, is held to the per-pair oracle bit
    # for bit by test_ragged_rows.py::test_compare_rows_equal_the_stored_comparison)
    cfg = ExperimentConfig(mode="physical")
    level = physical_level(cfg)
    pairs = [(eps, level) for eps in cfg.eps_list]
    records = compare(pairs, cfg)
    assert len(forks) == 1
    assert [n for _, _, n, _ in records] == [512] * 4 + [1024]
    assert repr(records) == repr(serial(monkeypatch, lambda: compare(pairs, cfg)))


def poison(monkeypatch, poisoned):
    """Make the reference potential non-finite from t = 0.1 on in the rows
    of the eps in `poisoned`, in whichever process steps them."""
    real = hartree._reference_potential

    def potential(runs, phi, U):
        v = real(runs, phi, U)

        def w(j, density):
            out = v(j, density)
            for r, (psi0, _, nodes, *_) in enumerate(runs[:len(density)]):
                if psi0.frame.epsilon in poisoned and nodes[j] >= 0.1:
                    out[r, 3] = np.nan
            return out
        return w

    monkeypatch.setattr(hartree, "_reference_potential", potential)


@pytest.mark.parametrize("poisoned", [(0.02,), (0.08,), (0.08, 0.02)],
                         ids=["child", "parent", "both"])
def test_failure_is_the_one_of_a_single_process(workers, monkeypatch, poisoned):
    w, forks = workers
    level = physical_level(SHORT)
    pairs = [(eps, level) for eps in (0.32, 0.08, 0.02)]  # n = 64, 256, 1024
    poison(monkeypatch, poisoned)
    with pytest.raises(NumericalError) as one:
        serial(monkeypatch, lambda: compare(pairs, SHORT))
    with pytest.raises(NumericalError) as err:
        compare(pairs, SHORT)
    # the earliest failing batch's error, as in one process
    eps, row = (0.08, 1) if 0.08 in poisoned else (0.02, 2)
    assert str(err.value) == str(one.value)
    assert str(err.value).startswith(f"hartree reference (eps={eps:g}): non-finite samples "
                                     "at t=0.1")
    assert err.value.row == one.value.row == row
    assert len(forks) == w - 1


@pytest.mark.parametrize("dt", [0.025, 0.035], ids=["both-warn", "warn-then-abort"])
def test_warnings_are_the_ones_of_a_single_process(workers, monkeypatch, dt):
    # at T = 0.25, eps 0.025 (n = 512) and eps 0.02 (n = 1024) both exceed
    # pi/2 per step at dt 0.025; at dt 0.035 eps 0.02 exceeds pi and aborts
    cfg = ExperimentConfig(mode="physical", T=0.25, dt=dt, eps_list=(0.025, 0.02))
    level = physical_level(cfg)
    pairs = [(eps, level) for eps in cfg.eps_list]

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = [n for _, _, n, _ in compare(pairs, cfg)]
            except NumericalError as exc:
                outcome = (str(exc), exc.row)
        return outcome, [(w.category, str(w.message)) for w in caught]

    outcome, caught = run()
    assert len(workers[1]) == workers[0] - 1
    assert (outcome, caught) == serial(monkeypatch, run)
    assert [category for category, _ in caught] == [RuntimeWarning] * (2 if dt < 0.03 else 1)
    assert outcome == ([512, 1024] if dt < 0.03 else (
        "potential phase per step 3.491 rad exceeds pi at t=0; reduce dt", 1))


@needs_two_cpus
def test_child_that_dies_raises_one_line(forks, monkeypatch):
    # the n = 1024 batch steps in the child, which kills itself at t >= 0.1
    parent = os.getpid()
    real = hartree._reference_potential

    def potential(runs, phi, U):
        v = real(runs, phi, U)

        def killed(j, density):
            if os.getpid() != parent and runs[0][2][j] >= 0.1:
                os.kill(os.getpid(), signal.SIGKILL)
            return v(j, density)
        return killed

    monkeypatch.setattr(hartree, "_reference_potential", potential)
    level = physical_level(SHORT)
    with pytest.raises(NumericalError) as err:
        compare([(eps, level) for eps in SHORT.eps_list], SHORT)
    assert len(forks) == 1
    assert str(err.value) == "hartree reference (n=1024): its process ended without a " \
        f"result (exit code {-signal.SIGKILL})"
    assert err.value.row == 1


@needs_two_cpus
def test_interrupted_parent_kills_its_child(forks, monkeypatch):
    # this process's n = 256 batch is interrupted at t >= 0.1 while the
    # child steps the n = 1024 batch: the child is killed and reaped
    parent = os.getpid()
    real = hartree._reference_potential

    def potential(runs, phi, U):
        v = real(runs, phi, U)

        def interrupted(j, density):
            if os.getpid() == parent and runs[0][2][j] >= 0.1:
                raise KeyboardInterrupt
            return v(j, density)
        return interrupted

    monkeypatch.setattr(hartree, "_reference_potential", potential)
    level = physical_level(SHORT)
    with pytest.raises(KeyboardInterrupt):
        compare([(eps, level) for eps in SHORT.eps_list], SHORT)
    assert len(forks) == 1


def test_one_cpu_forks_no_child(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    level = physical_level(SHORT)
    assert [n for _, _, n, _ in compare([(eps, level) for eps in SHORT.eps_list], SHORT)] \
        == [256, 1024]
