"""Machine-speed calibration: a fixed reference job that does not use semihartree.

The VM the benchmark was written on changes speed by up to 2x, in spells
from under a second to over a minute (other tenants share the host), so a
raw sweep time says as much about the spell as about the code.  Each timed
interval is therefore paired with the speed of this job measured inside it,
and reported as `wall × REFERENCE_S / job time`: seconds on a machine
that runs the job in REFERENCE_S.  The job mixes the kinds of work the
library does, on its array size: 512-point FFT round trips, NumPy
element-wise chains, plain Python dict arithmetic and a stored history of
array copies.  It uses no code under `src/`, so a change to the library
cannot move it.

During a sweep, `Sampler` runs the job from a SIGALRM handler every
INTERVAL_S of wall time (about 2% of the sweep) and subtracts the handler's
own time from the sweep's.

    PYTHONPATH=perfbench python3 -c "import calibrate; print(calibrate.job_s())"
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median job time on the 2-vCPU Xeon VM where the benchmark was written,
# between its fast and slow spells; a fixed scale, never re-fit
REFERENCE_S = 0.0015
INTERVAL_S = 0.1
# A job the scheduler preempts reads up to 100x long, which is common while a
# pool keeps both cores busy; the mean leaves out this share at each end.
TRIM = 0.1
# jobs timed back to back after an import, where no sweep runs to sample
PROBE_JOBS = 50

_rng = np.random.default_rng(0)
_A = _rng.standard_normal(512) + 1j * _rng.standard_normal(512)
_PHASE = np.exp(1j * np.linspace(0.0, 1.0, 512))


def job_s() -> float:
    """Wall time of one reference job, about 1 to 2 ms."""
    start = time.perf_counter()
    for _ in range(15):
        np.fft.ifft(np.fft.fft(_A))
    acc: dict = {}
    for i in range(1500):
        acc[i % 97] = acc.get(i % 97, 0) + i
    x = _A
    for _ in range(60):
        x = np.abs(x * _PHASE) + 0.5j
    history = []
    for _ in range(100):
        x = x * _PHASE
        history.append(x.copy())
    return time.perf_counter() - start


def probe_s() -> float:
    """Median of PROBE_JOBS jobs, for intervals too short to sample."""
    return statistics.median(job_s() for _ in range(PROBE_JOBS))


def scale(job_seconds: float) -> float:
    """Factor that turns wall seconds, taken while the job ran in
    `job_seconds`, into reference seconds."""
    return REFERENCE_S / job_seconds


class Sampler:
    """Times the job every INTERVAL_S while active:

        with Sampler() as sampler:
            work()
        ref_seconds = sampler.reference_s(wall_seconds)
    """

    def __init__(self) -> None:
        self.jobs: list = []
        self.handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.jobs.append(job_s())
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def job_mean_s(self) -> float:
        """Mean job time with the TRIM share dropped at each end."""
        if not self.jobs:  # the interval was shorter than INTERVAL_S
            self.jobs.append(probe_s())
        jobs = sorted(self.jobs)
        cut = int(len(jobs) * TRIM)
        return statistics.mean(jobs[cut:len(jobs) - cut])

    def reference_s(self, wall_s: float) -> float:
        """`wall_s` less the handler's time, in reference seconds."""
        return (wall_s - self.handler_s) * scale(self.job_mean_s())
