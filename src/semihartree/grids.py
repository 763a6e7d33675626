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
    "make_grid",
    "gaussian_profile",
    "l2_norm",
    "l2_distance",
    "abs_moment",
    "first_moment",
    "fourier_first_moment",
    "spectral_samples",
    "trig_interpolant_on_run",
    "boundary_mass",
    "radial_distances",
    "radial_kernel_rfft",
    "apply_radial_rfft",
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


def trig_interpolant_on_run(psi: WaveFunction, start: float, step: float,
                            count: int) -> np.ndarray:
    """The band-limited (trigonometric) interpolant of psi at start + m*step,
    m < count (the periodic extension outside the domain), by a chirp
    z-transform (Bluestein, 1970): modes j = -n/2..n/2-1, j*m = (j^2 + m^2
    - (m-j)^2)/2 and one zero-padded power-of-two FFT convolution.  Chirp phases
    go in turns: a head of theta/(4 pi) times k^2, exact for every k, is taken mod 1."""
    grid, half = psi.grid, psi.grid.n // 2
    kappa = 2.0 * np.pi / grid.length
    turns = 0.5 * step / grid.length  # theta/(4 pi), theta = kappa*step; k*k exact
    mantissa, exponent = np.frexp(turns)
    bits = 53 - 2 * (count + half).bit_length()  # |k| < count + n/2: head*k^2 exact
    head = np.ldexp(np.round(np.ldexp(mantissa, bits)), exponent - bits)
    chirp = lambda k: np.exp(2j * np.pi * (head * (k * k) % 1.0 + (turns - head) * (k * k)))
    j, lag = np.arange(-half, half), np.arange(1 - half, count + half)
    coeffs = np.fft.fftshift(np.fft.fft(psi.samples)) / grid.n
    size = 1 << (grid.n + count - 2).bit_length()  # at least n + count - 1
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[lag] = chirp(lag).conj()  # lag m - j at index (m - j) mod size
    u = coeffs * np.exp(1j * kappa * (start - grid.x_min) * j) * chirp(j)
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(kernel))
    return chirp(np.arange(count)) * conv[half:half + count]


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
    """Real FFT of the kernel at periodic distances, times dx and the inverse's 1/n.

    Cache the result when convolving repeatedly with the same kernel.
    """
    values = np.asarray(kernel(radial_distances(grid)), dtype=np.float64)
    if values.ndim == 0:
        values = np.full(grid.n, float(values))
    if values.shape != (grid.n,):
        raise ValueError("kernel must map distances to one value per cell")
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel produced non-finite values")
    return np.fft.rfft(values) * (grid.dx / grid.n)


def apply_radial_rfft(kernel_hat: np.ndarray, density: np.ndarray, grid: Grid) -> np.ndarray:
    """Circular convolution (kernel * density) * dx given `radial_kernel_rfft`."""
    return np.fft.irfft(np.fft.rfft(density) * kernel_hat, grid.n, norm="forward")


def mean_field(kernel: Callable, grids: list, separable: Optional[Callable] = None):
    """(m, n) density -> (kernel * density) * dx, row r on grids[r] (all of
    one n; the first m, as a ragged batch holds them), from tables built once
    per run.  With (f, g) = separable(points), the whole-line convolution
    from each row's rank moments: two (rank, n) products.  Otherwise
    `apply_radial_rfft` at periodic distances."""
    if separable is None:
        khat = np.stack([radial_kernel_rfft(kernel, g) for g in grids])
        return lambda density: apply_radial_rfft(khat[:len(density)], density, grids[0])
    f, g = zip(*(separable(row.points) for row in grids))
    f = np.ascontiguousarray(np.stack(f), dtype=np.float64)
    moments = np.ascontiguousarray(np.stack([a.T * r.dx for a, r in zip(g, grids)]), np.float64)
    return lambda density: (density[:, None] @ moments[:len(density)] @ f[:len(density)])[:, 0]
