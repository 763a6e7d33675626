"""Test-only helpers shared by several test modules, which the library
itself does not call."""

import numpy as np


def interp_samples(series, t: float) -> np.ndarray:
    """Samples of a `WaveSeries` at time t: the stored row at a node (or
    within 1e-12 of one), the first or last row outside the nodes, and
    otherwise the linear blend of the two bracketing rows."""
    times, data = series.times, series.data
    if t <= times[0]:
        return data[0]
    if t >= times[-1]:
        return data[-1]
    j = int(np.searchsorted(times, t))
    left, right = times[j - 1], times[j]
    if abs(t - left) < 1e-12:
        return data[j - 1]
    if abs(t - right) < 1e-12:
        return data[j]
    w = (t - left) / (right - left)
    return (1.0 - w) * data[j - 1] + w * data[j]
