"""Uniform periodic grids with their spectral companions.

Everything downstream (profile evolution, reference solvers, diagnostics)
works on complex samples over these grids, with L^2 quantities taken with
respect to the cell measure dx.  All values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Grid",
    "Frame",
    "RESCALED",
    "physical_frame",
    "WaveFunction",
    "WaveSeries",
    "make_grid",
    "gaussian_profile",
    "l2_norm",
    "l2_distance",
    "abs_moment",
    "first_moment",
    "fourier_first_moment",
    "fourier_second_moment",
    "spectral_samples",
    "evaluate_trig_interpolant",
    "boundary_mass",
    "radial_distances",
    "radial_kernel_rfft",
    "apply_radial_rfft",
    "radial_convolve",
    "mean_field",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of n cells on the periodic interval [x_min, x_max)."""

    n: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n % 2 != 0:
            raise ValueError("n must be even")
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must be greater than x_min")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def points(self) -> np.ndarray:
        return _readonly(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # FFT ordering: (2*pi/L) * [0, 1, ..., n/2-1, -n/2, ..., -1]
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))


def make_grid(n: int, x_min: float, x_max: float) -> Grid:
    """Build a periodic grid; rejects odd or tiny n and empty domains."""
    return Grid(int(n), float(x_min), float(x_max))


@dataclass(frozen=True)
class Frame:
    """Coordinate frame tag: physical x-space (carrying the semiclassical
    parameter) or the rescaled packet frame."""

    kind: str
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("physical", "rescaled"):
            raise ValueError(f"unknown frame kind {self.kind!r}")
        if self.kind == "physical":
            if self.epsilon is None or not self.epsilon > 0:
                raise ValueError("physical frame requires epsilon > 0")
        elif self.epsilon is not None:
            raise ValueError("rescaled frame carries no epsilon")


RESCALED = Frame("rescaled")


def physical_frame(epsilon: float) -> Frame:
    return Frame("physical", float(epsilon))


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex samples on a grid, tagged with their coordinate frame.

    Samples are copied on construction and frozen; frame conversions and
    evolution steps always produce new values.
    """

    grid: Grid
    samples: np.ndarray
    frame: Frame = RESCALED

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != (self.grid.n,):
            raise ValueError(
                f"samples shape {arr.shape} does not match grid n={self.grid.n}"
            )
        if arr is self.samples and arr.flags.writeable:
            arr = arr.copy()
        if arr.flags.writeable:
            arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def with_samples(self, samples: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, samples, self.frame)


def gaussian_profile(grid: Grid, center: float = 0.0, wavenumber: float = 0.0,
                     width: float = 1.0) -> WaveFunction:
    """Normalized Gaussian profile pi^(-1/4) w^(-1/2) exp(-(x-c)^2/(2w^2)) e^(ikx)
    in the rescaled frame."""
    x = grid.points
    env = np.pi ** (-0.25) / np.sqrt(width) * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
    return WaveFunction(grid, env * np.exp(1j * wavenumber * x), RESCALED)


def _check_compatible(psi1: WaveFunction, psi2: WaveFunction) -> None:
    if psi1.grid != psi2.grid:
        raise ValueError("wave functions live on different grids")
    if psi1.frame != psi2.frame:
        raise ValueError(
            f"frame mismatch: {psi1.frame.kind} vs {psi2.frame.kind}"
        )


def l2_norm(psi: WaveFunction) -> float:
    """sqrt( sum |psi_j|^2 dx )."""
    s = psi.samples
    return float(np.sqrt(np.sum(s.real ** 2 + s.imag ** 2) * psi.grid.dx))


def l2_distance(psi1: WaveFunction, psi2: WaveFunction) -> float:
    """L^2 norm of the difference; requires matching grid and frame."""
    _check_compatible(psi1, psi2)
    d = psi1.samples - psi2.samples
    return float(np.sqrt(np.sum(d.real ** 2 + d.imag ** 2) * psi1.grid.dx))


def abs_moment(psi: WaveFunction, m: int) -> float:
    """Integral of |x|^(2m) |psi|^2 dx for 0 <= m <= 3 (m = 0 gives the
    squared norm)."""
    if not 0 <= m <= 3:
        raise ValueError(f"moment order m must be in 0..3, got {m}")
    density = np.abs(psi.samples) ** 2
    if m == 0:
        w = density
    else:
        w = np.abs(psi.grid.points) ** (2 * m) * density
    return float(np.sum(w) * psi.grid.dx)


def first_moment(psi: WaveFunction) -> float:
    """Integral of x |psi|^2 dx (signed)."""
    density = np.abs(psi.samples) ** 2
    return float(np.sum(psi.grid.points * density) * psi.grid.dx)


def spectral_samples(psi: WaveFunction) -> np.ndarray:
    """Spectral transform in FFT ordering, normalized so that
    sum |psihat_j|^2 dk equals the squared L^2 norm (dk = 2*pi/length)."""
    scale = psi.grid.dx / np.sqrt(2.0 * np.pi)
    return np.fft.fft(psi.samples) * scale


def fourier_first_moment(psi: WaveFunction) -> float:
    """Integral of k |psihat(k)|^2 dk using the grid's wavenumbers."""
    hat = spectral_samples(psi)
    dk = 2.0 * np.pi / psi.grid.length
    return float(np.sum(psi.grid.wavenumbers * (np.abs(hat) ** 2)) * dk)


def fourier_second_moment(psi: WaveFunction) -> float:
    """Integral of k^2 |psihat(k)|^2 dk (spectral spread, used for grid sizing)."""
    hat = spectral_samples(psi)
    dk = 2.0 * np.pi / psi.grid.length
    return float(np.sum(psi.grid.wavenumbers ** 2 * (np.abs(hat) ** 2)) * dk)


def evaluate_trig_interpolant(psi: WaveFunction, points: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited (trigonometric) interpolant of psi at
    arbitrary points; points outside the domain see the periodic extension."""
    grid = psi.grid
    coeffs = (np.fft.fft(psi.samples) / grid.n).view(np.float64).reshape(grid.n, 2)
    rel = np.asarray(points, dtype=np.float64) - grid.x_min
    out = np.empty(rel.size, dtype=np.complex128)
    # chunk the outer product: each block's cos/sin tables stay near 2 MB
    block = max(1, 250_000 // grid.n)
    for start in range(0, rel.size, block):
        arg = np.outer(rel[start:start + block], grid.wavenumbers)
        # exp(i a) c from real products with c's (n, 2) real parts: no cast
        cos, sin = np.cos(arg) @ coeffs, np.sin(arg) @ coeffs
        out[start:start + block] = cos[:, 0] - sin[:, 1] + 1j * (cos[:, 1] + sin[:, 0])
    return out


def boundary_mass(samples: np.ndarray, grid: Grid, cells: int, *,
                  is_density: bool = False):
    """Probability mass within `cells` grid cells of either domain edge.

    Reduces along the last axis: a float for one state, one value per row
    for a batch of shape (m, n).  With `is_density`, `samples` already
    holds |psi|^2.
    """
    head, tail = samples[..., :cells], samples[..., -cells:]
    if not is_density:
        head, tail = head.real ** 2 + head.imag ** 2, tail.real ** 2 + tail.imag ** 2
    return (np.add.reduce(head, axis=-1) + np.add.reduce(tail, axis=-1)) * grid.dx


# ---------------------------------------------------------------------------
# Radial convolutions against a density, via FFT of the sampled kernel.
# The kernel is sampled at the periodic (torus) distance, so it is even and
# its transform is real; with a localized density the discrepancy against
# the whole-line convolution is a controlled tail error.


def radial_distances(grid: Grid) -> np.ndarray:
    """Periodic distance from cell 0 to each cell: min(m, n-m)*dx."""
    m = np.arange(grid.n)
    return np.minimum(m, grid.n - m) * grid.dx


def radial_kernel_rfft(kernel: Callable[[np.ndarray], np.ndarray], grid: Grid) -> np.ndarray:
    """Real FFT of the kernel sampled at periodic distances.

    Cache the result when convolving repeatedly with the same kernel.
    """
    values = np.asarray(kernel(radial_distances(grid)), dtype=np.float64)
    if values.ndim == 0:
        values = np.full(grid.n, float(values))
    if values.shape != (grid.n,):
        raise ValueError("kernel must map distances to one value per cell")
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel produced non-finite values")
    return np.fft.rfft(values)


def apply_radial_rfft(kernel_hat: np.ndarray, density: np.ndarray, grid: Grid) -> np.ndarray:
    """Circular convolution (kernel * density) * dx given the kernel's rfft."""
    return np.fft.irfft(np.fft.rfft(density) * kernel_hat, grid.n) * grid.dx


def radial_convolve(kernel: Callable[[np.ndarray], np.ndarray],
                    density: np.ndarray, grid: Grid) -> np.ndarray:
    """out_j = sum_l kernel(|x_j - y_l|_periodic) density_l dx."""
    density = np.asarray(density, dtype=np.float64)
    if density.shape != (grid.n,):
        raise ValueError("density length must match the grid")
    return apply_radial_rfft(radial_kernel_rfft(kernel, grid), density, grid)


def mean_field(kernel: Callable, grid: Grid, separable: Optional[Callable] = None):
    """density -> (kernel * density) * dx for densities of shape (n,) or
    (m, n), built once per run.  With (f, g) = separable(points), the
    whole-line convolution from the rank moments of the density: two
    (rank, n) products.  Otherwise `apply_radial_rfft` at periodic distances.
    """
    if separable is None:
        khat = radial_kernel_rfft(kernel, grid)
        return lambda density: apply_radial_rfft(khat, density, grid)
    f, g = (np.asarray(a, dtype=np.float64) for a in separable(grid.points))
    f, moments = np.ascontiguousarray(f), np.ascontiguousarray(g.T * grid.dx)
    return lambda density: (density @ moments) @ f


@dataclass(frozen=True, eq=False)
class WaveSeries:
    """Wave function snapshots on shared nodes of one evolution run."""

    times: np.ndarray
    grid: Grid
    frame: Frame
    data: np.ndarray  # (len(times), grid.n) complex

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        d = np.asarray(self.data, dtype=np.complex128)
        if d.shape != (t.size, self.grid.n):
            raise ValueError("data shape does not match times/grid")
        object.__setattr__(self, "times", _readonly(t))
        if d.flags.writeable:
            d.flags.writeable = False
        object.__setattr__(self, "data", d)

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i: int) -> WaveFunction:
        return WaveFunction(self.grid, self.data[i], self.frame)

    @property
    def final(self) -> WaveFunction:
        return self[len(self) - 1]

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise KeyError(f"time {t} is not a stored node")
        return i

    def at_time(self, t: float, tol: float = 1e-9) -> WaveFunction:
        return self[self.index_of(t, tol)]
