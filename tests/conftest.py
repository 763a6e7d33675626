import os

import numpy as np
import pytest

from semihartree.grids import gaussian_profile, make_grid


@pytest.fixture(scope="session")
def mu_grid():
    return make_grid(512, -16.0, 16.0)


@pytest.fixture(scope="session")
def gauss(mu_grid):
    return gaussian_profile(mu_grid)


# the fan-out (`_stepping.fan_out`) forks a child per task beyond the first
# only with two usable CPUs and os.fork
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
TWO = CPUS >= 2 and hasattr(os, "fork")
needs_two_cpus = pytest.mark.skipif(
    not TWO, reason="one usable CPU (or no os.fork): every task runs in this process")


@pytest.fixture
def forks(monkeypatch):
    """The forks of the case, counted; no child is left once it has run."""
    forks, real = [], os.fork

    def counted():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial(monkeypatch, run):
    """run() with the CPU lookup pinned to one CPU (W = 1): every task runs in this process."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return run()


def array_norm(samples, dx):
    """Direct L^2 norm of raw samples, independent of the library helpers."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(samples)) ** 2) * dx))


try:  # property tests run derandomized, so tier-1 stays reproducible
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              max_examples=150, database=None)
    settings.load_profile("tier1")
