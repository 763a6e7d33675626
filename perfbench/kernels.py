"""Micro-timings of the kernels every solver step calls.

Each kernel is timed on fixed inputs as the median over repeats of a batch
of calls, in microseconds per call.  Next to each timing stands the number
of bytes one call moves, *computed* from the array sizes: the logical bytes
read and written by each NumPy operation in the kernel's body.  It is not a
hardware measurement.  `scipy.fft` is timed as a reference next to
`numpy.fft`, which the library uses; it is measured only.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.fft

from semihartree.corrections import separation_power_form
from semihartree.grids import apply_radial_rfft, boundary_mass, make_grid, radial_kernel_rfft
from semihartree.classical import integrate_flow

REPEATS = 7
TARGET_S = 0.02  # wall time of one batch of calls


def _us_per_call(fn) -> float:
    fn()
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= TARGET_S / 4:
            break
        calls *= 4
    batch = max(1, int(calls * TARGET_S / max(time.perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return 1e6 * statistics.median(samples)


def kernel_metrics(config) -> dict:
    rng = np.random.default_rng(0)
    out = {}
    for n in (512, 1024):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out[f"grids.fft_roundtrip.n{n}.us"] = _us_per_call(
            lambda: np.fft.ifft(np.fft.fft(x)))
        out[f"grids.scipy_fft_roundtrip.n{n}.us"] = _us_per_call(
            lambda: scipy.fft.ifft(scipy.fft.fft(x)))
        # fft and ifft each read and write n complex128 values
        out[f"grids.fft_roundtrip.n{n}.bytes"] = 4 * 16 * n

    n = 512
    m = n // 2 + 1
    grid = make_grid(n, -config.mu_halfwidth, config.mu_halfwidth)
    psi = np.exp(-0.5 * grid.points ** 2) * (1.0 + 0.5j)
    density = psi.real ** 2 + psi.imag ** 2
    khat = radial_kernel_rfft(lambda r: r * r, grid)
    out["grids.apply_radial_rfft.n512.us"] = _us_per_call(
        lambda: apply_radial_rfft(khat, density, grid))
    # rfft 8n in, 16m out; product 32m in, 16m out; irfft 16m in, 8n out;
    # scaling by dx 8n in, 8n out
    out["grids.apply_radial_rfft.n512.bytes"] = 32 * n + 80 * m
    cells = 12
    out["grids.boundary_mass.n512.us"] = _us_per_call(
        lambda: boundary_mass(psi, grid, cells))
    # |psi|^2 over the whole array (real, imag, two squares, one sum of
    # arrays) and two edge sums of `cells` values each
    out["grids.boundary_mass.n512.bytes"] = 56 * n + 16 * cells

    for power in (2, 4):
        out[f"corrections.separation_power_form.p{power}.n512.us"] = _us_per_call(
            lambda: separation_power_form(grid.points, density, grid.dx, power))
        # per binomial term: mu**j, weight*mu**j, its sum, mu**(p-j), two
        # scalings and the accumulation (120n); plus the zeroed output (8n)
        out[f"corrections.separation_power_form.p{power}.n512.bytes"] = (
            120 * n * (power + 1) + 8 * n)

    phi, U = config.pair(), config.external()
    trajectory = integrate_flow(config.q0, config.p0, U, phi.value_at_0, config.T, 1e-3)
    t = 0.4321 * config.T
    out["classical.q_at.scalar_us"] = _us_per_call(lambda: trajectory.q_at(t))
    # binary search over the breakpoints plus four cubic coefficients
    out["classical.q_at.scalar_bytes"] = 8 * (math.ceil(math.log2(len(trajectory))) + 4)
    return out
