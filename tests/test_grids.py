import numpy as np
import pytest
from scipy.integrate import quad

from semihartree._stepping import GUARD_CELLS
from semihartree.grids import (
    RESCALED,
    WaveFunction,
    abs_moment,
    apply_radial_rfft,
    boundary_mass,
    first_moment,
    fourier_first_moment,
    gaussian_profile,
    l2_distance,
    l2_norm,
    make_grid,
    physical_frame,
    radial_kernel_rfft,
    spectral_samples,
    trig_interpolant_on_run,
)

from helpers import evaluate_trig_interpolant, interp_samples


def fft_convolve(kernel, density, grid):
    """The FFT path: the kernel's rfft at periodic distances, applied to `density`."""
    return apply_radial_rfft(radial_kernel_rfft(kernel, grid), density, grid)


def direct_radial_sum(kernel, density, grid):
    """O(n^2) reference for the FFT convolution path."""
    x = grid.points
    out = np.zeros(grid.n)
    L = grid.length
    for j in range(grid.n):
        sep = np.abs(x[j] - x)
        sep = np.minimum(sep, L - sep)
        out[j] = np.sum(kernel(sep) * density) * grid.dx
    return out


class TestMakeGrid:
    def test_dx_small(self):
        assert make_grid(8, -1.0, 1.0).dx == 0.25

    def test_dx_large(self):
        assert make_grid(1024, -20.0, 20.0).dx == 0.0390625

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="n must be even"):
            make_grid(7, -1.0, 1.0)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            make_grid(6, -1.0, 1.0)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            make_grid(64, 1.0, 1.0)

    def test_wavenumbers_recomputable(self):
        g = make_grid(64, -3.0, 5.0)
        idx = np.concatenate([np.arange(32), np.arange(-32, 0)])
        expected = 2.0 * np.pi / g.length * idx
        assert np.array_equal(g.wavenumbers, expected)


class TestNormsAndDistances:
    def test_constant_function_norm(self):
        g = make_grid(64, 0.0, 1.0)
        psi = WaveFunction(g, np.ones(64))
        assert l2_norm(psi) == pytest.approx(1.0, abs=1e-14)

    def test_normalized_gaussian(self):
        g = make_grid(1024, -20.0, 20.0)
        psi = gaussian_profile(g)
        assert abs(l2_norm(psi) - 1.0) < 1e-10

    def test_homogeneity(self, gauss):
        doubled = gauss.with_samples(2.0 * gauss.samples)
        assert l2_norm(doubled) == 2.0 * l2_norm(gauss)

    def test_distance_identity(self, gauss):
        assert l2_distance(gauss, gauss) == 0.0

    def test_orthonormal_pair(self):
        g = make_grid(64, 0.0, 1.0)
        f1 = WaveFunction(g, np.ones(64))
        f2 = WaveFunction(g, np.sqrt(2.0) * np.sin(2.0 * np.pi * g.points))
        assert l2_norm(f1) == pytest.approx(1.0, abs=1e-12)
        assert l2_norm(f2) == pytest.approx(1.0, abs=1e-12)
        assert l2_distance(f1, f2) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.5, np.pi / 2, 2.5])
    def test_phase_rotation_distance(self, gauss, theta):
        rotated = gauss.with_samples(np.exp(1j * theta) * gauss.samples)
        # direct summation of |1 - e^{i theta}|^2 |psi|^2 dx
        direct = np.sqrt(np.sum(np.abs(gauss.samples - rotated.samples) ** 2)
                         * gauss.grid.dx)
        expected = 2.0 * abs(np.sin(theta / 2.0)) * l2_norm(gauss)
        assert l2_distance(gauss, rotated) == pytest.approx(direct, abs=1e-14)
        assert l2_distance(gauss, rotated) == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch_rejected(self, gauss):
        other = gaussian_profile(make_grid(256, -16.0, 16.0))
        with pytest.raises(ValueError, match="grid"):
            l2_distance(gauss, other)

    def test_frame_mismatch_rejected(self, gauss):
        phys = WaveFunction(gauss.grid, gauss.samples, physical_frame(0.1))
        with pytest.raises(ValueError, match="frame"):
            l2_distance(gauss, phys)


class TestMoments:
    # analytic Gaussian moments, cross-checked against adaptive quadrature
    GAUSS_MOMENTS = {0: 1.0, 1: 0.5, 2: 0.75, 3: 1.875}

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_gaussian_moments(self, gauss, m):
        oracle, _ = quad(lambda x: abs(x) ** (2 * m) * np.exp(-x * x) / np.sqrt(np.pi),
                         -30, 30)
        assert oracle == pytest.approx(self.GAUSS_MOMENTS[m], rel=1e-12)
        assert abs_moment(gauss, m) == pytest.approx(self.GAUSS_MOMENTS[m], abs=1e-10)

    def test_moment_order_validated(self, gauss):
        with pytest.raises(ValueError):
            abs_moment(gauss, 4)

    def test_even_profile_centered(self, gauss):
        assert abs(first_moment(gauss)) < 1e-12
        assert abs(fourier_first_moment(gauss)) < 1e-12

    def test_shifted_gaussian_first_moment(self, mu_grid):
        shifted = gaussian_profile(mu_grid, center=1.0)
        oracle, _ = quad(lambda x: x * np.exp(-(x - 1.0) ** 2) / np.sqrt(np.pi),
                         -30, 30)
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert first_moment(shifted) == pytest.approx(1.0, abs=1e-8)

    def test_modulated_gaussian_spectral_moment(self, mu_grid):
        modulated = gaussian_profile(mu_grid, wavenumber=3.0)
        assert fourier_first_moment(modulated) == pytest.approx(3.0, abs=1e-8)

    def test_parseval(self, mu_grid):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=mu_grid.n) + 1j * rng.normal(size=mu_grid.n)
        psi = WaveFunction(mu_grid, samples)
        hat = spectral_samples(psi)
        dk = 2.0 * np.pi / mu_grid.length
        spectral = np.sqrt(np.sum(np.abs(hat) ** 2) * dk)
        assert spectral == pytest.approx(l2_norm(psi), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grid_convergence(self, m):
        vals = {}
        for n in (512, 1024):
            g = make_grid(n, -16.0, 16.0)
            vals[n] = abs_moment(gaussian_profile(g), m)
        assert abs(vals[512] - vals[1024]) < 1e-8


class TestRadialConvolve:
    def test_constant_kernel(self, mu_grid):
        density = np.abs(gaussian_profile(mu_grid).samples) ** 2
        out = fft_convolve(lambda r: 3.0, density, mu_grid)
        mass = np.sum(density) * mu_grid.dx
        assert np.allclose(out, 3.0 * mass, atol=1e-12)

    def test_point_mass_quadratic_kernel(self):
        g = make_grid(128, -4.0, 4.0)
        density = np.zeros(g.n)
        j0 = np.argmin(np.abs(g.points))
        density[j0] = 1.0 / g.dx  # unit mass in one cell at x = 0
        out = fft_convolve(lambda r: r ** 2, density, g)
        sep = np.abs(g.points - g.points[j0])
        sep = np.minimum(sep, g.length - sep)
        assert np.max(np.abs(out - sep ** 2)) < 1e-10

    def test_fft_matches_direct_sum(self):
        g = make_grid(256, -8.0, 8.0)
        rng = np.random.default_rng(42)
        density = rng.random(g.n)
        kernel = lambda r: np.cos(r) + 0.1 * r ** 2
        fft_path = fft_convolve(kernel, density, g)
        direct = direct_radial_sum(kernel, density, g)
        assert np.max(np.abs(fft_path - direct)) / np.max(np.abs(direct)) < 1e-10

    def test_linearity(self, mu_grid):
        rng = np.random.default_rng(3)
        d1 = rng.random(mu_grid.n)
        d2 = rng.random(mu_grid.n)
        kernel = lambda r: np.exp(-0.5 * r ** 2)
        lhs = fft_convolve(kernel, 2.0 * d1 + 3.0 * d2, mu_grid)
        rhs = (2.0 * fft_convolve(kernel, d1, mu_grid)
               + 3.0 * fft_convolve(kernel, d2, mu_grid))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_translation_covariance(self, mu_grid):
        rng = np.random.default_rng(11)
        density = rng.random(mu_grid.n)
        kernel = lambda r: np.cos(r)
        shift = 37
        shifted = fft_convolve(kernel, np.roll(density, shift), mu_grid)
        assert np.max(np.abs(shifted - np.roll(
            fft_convolve(kernel, density, mu_grid), shift))) < 1e-12

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_non_finite_kernel_rejected(self, mu_grid):
        with pytest.raises(ValueError, match="non-finite"):
            radial_kernel_rfft(lambda r: 1.0 / r, mu_grid)


class TestWaveFunction:
    def test_samples_are_immutable(self, gauss):
        with pytest.raises(ValueError):
            gauss.samples[0] = 1.0

    def test_constructor_copies(self, mu_grid):
        raw = np.ones(mu_grid.n, dtype=complex)
        psi = WaveFunction(mu_grid, raw)
        raw[0] = 99.0
        assert psi.samples[0] == 1.0

    def test_shape_validated(self, mu_grid):
        with pytest.raises(ValueError):
            WaveFunction(mu_grid, np.ones(3))

    def test_physical_frame_requires_epsilon(self):
        with pytest.raises(ValueError):
            physical_frame(-1.0)

    def test_boundary_mass_localized_profile(self, gauss):
        assert boundary_mass(gauss.samples, gauss.grid, GUARD_CELLS) < 1e-30

    def test_trig_interpolation_matches_nodes(self, gauss):
        vals = evaluate_trig_interpolant(gauss, gauss.grid.points[::8])
        assert np.max(np.abs(vals - gauss.samples[::8])) < 1e-12

    def test_trig_interpolation_between_nodes(self, gauss):
        pts = gauss.grid.points[100:110] + 0.3 * gauss.grid.dx
        vals = evaluate_trig_interpolant(gauss, pts)
        exact = np.pi ** (-0.25) * np.exp(-0.5 * pts ** 2)
        assert np.max(np.abs(vals - exact)) < 1e-12

    def test_trig_interpolant_equals_complex_exponential_sum(self, mu_grid):
        # reference: the direct exp(i k x) @ c product that the real
        # (n, 2) products replace; 5000 points span eleven blocks and reach
        # past both domain edges
        psi = gaussian_profile(mu_grid, center=1.5, wavenumber=3.0, width=0.7)
        pts = np.random.default_rng(3).uniform(-20.0, 20.0, 5000)
        coeffs = np.fft.fft(psi.samples) / mu_grid.n
        ref = np.exp(1j * np.outer(pts - mu_grid.x_min, mu_grid.wavenumbers)) @ coeffs
        got = evaluate_trig_interpolant(psi, pts)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.sum(np.abs(coeffs))

    def test_trig_interpolant_on_fine_grid_matches_direct_sum(self):
        # n = 1024: blocks of 244 points, the last one partial
        grid = make_grid(1024, -16.0, 16.0)
        psi = gaussian_profile(grid, center=-2.0, wavenumber=-5.0, width=1.3)
        pts = np.random.default_rng(11).uniform(-16.0, 16.0, 1000)
        coeffs = np.fft.fft(psi.samples) / grid.n
        direct = np.exp(1j * np.outer(pts - grid.x_min, grid.wavenumbers)) @ coeffs
        assert np.max(np.abs(evaluate_trig_interpolant(psi, pts) - direct)) <= 1e-13


class TestChirpInterpolant:
    """`trig_interpolant_on_run`, a chirp z-transform, against the dense
    cos/sin tables of `helpers.evaluate_trig_interpolant`, within
    1e-15 * (n + count) * max|samples|: the oracle rounds each of its
    arguments x*k at full size, which for a profile with a carrier
    (wavenumber 3) costs it up to 1.3e-14 at 4,000 points."""

    @pytest.fixture(scope="class")
    def psi(self, mu_grid):
        return gaussian_profile(mu_grid, center=1.5, wavenumber=3.0, width=0.7)

    @staticmethod
    def assert_matches_oracle(psi, start, step, count):
        got = trig_interpolant_on_run(psi, start, step, count)
        ref = evaluate_trig_interpolant(psi, start + step * np.arange(count))
        assert got.shape == (count,)
        tol = 1e-15 * (psi.grid.n + count) * np.max(np.abs(psi.samples))
        assert np.max(np.abs(got - ref)) <= tol

    @pytest.mark.parametrize("count", [505, 1000, 2000])
    def test_run_across_the_window(self, psi, count):
        # as the inside points of a physical grid: 505 at eps 0.02 and
        # 1,000 on the n = 1024 grid, from just inside the left edge
        g = psi.grid
        step = g.length / count
        self.assert_matches_oracle(psi, g.x_min + 0.37 * step, step, count)

    @pytest.mark.parametrize("count", [505, 2000, 40_000])
    def test_phases_in_turns_on_the_default_profile(self, gauss, count):
        # the default profile's spectrum is narrow, so the oracle is good to
        # about 1e-15 there; a chirp phase rounded at its full size, about
        # pi (count + n/2), was off by 2.0e-14, 8.4e-14 and 2.7e-12 at these
        # counts, and a 24-bit head times k^2 stops being exact past 23,170
        g = gauss.grid
        step = g.length / count
        pts = g.x_min + 0.37 * step + step * np.arange(count)
        got = trig_interpolant_on_run(gauss, pts[0], step, count)
        ref = evaluate_trig_interpolant(gauss, pts)
        assert np.max(np.abs(got - ref)) <= 4e-15 * np.max(np.abs(gauss.samples))

    def test_single_point(self, psi):
        self.assert_matches_oracle(psi, 0.3, 0.1, 1)

    def test_run_from_x_min_on_the_nodes(self, psi):
        g = psi.grid
        self.assert_matches_oracle(psi, g.x_min, g.dx, g.n)
        vals = trig_interpolant_on_run(psi, g.x_min, 8 * g.dx, g.n // 8)
        assert np.max(np.abs(vals - psi.samples[::8])) < 1e-12

    def test_run_past_both_edges_sees_the_periodic_extension(self, psi):
        g = psi.grid
        self.assert_matches_oracle(psi, g.x_min - 5.0, (g.length + 10.0) / 700, 700)

    @pytest.mark.parametrize("n", [1024, 600], ids=["fine", "not-a-power-of-two"])
    def test_other_profile_grids(self, n):
        grid = make_grid(n, -16.0, 16.0)
        psi = gaussian_profile(grid, center=-2.0, wavenumber=-5.0, width=1.3)
        self.assert_matches_oracle(psi, -15.9, 32.0 / 1000, 1000)


class TestInterpSamples:
    # the test-only reader of stored histories (tests/helpers.py); the
    # corrections-2 drive blends its two-row window of the first
    # correction with the same arithmetic, which test_corrections checks
    TIMES = np.array([0.0, 0.5, 1.5])
    DATA = (np.arange(24.0) * (1.0 + 0.5j)).reshape(3, 8) ** 2

    def at(self, t):
        return interp_samples(self.TIMES, self.DATA, t)

    def test_clamps_outside_the_nodes(self):
        assert np.array_equal(self.at(-0.1), self.DATA[0])
        assert np.array_equal(self.at(0.0), self.DATA[0])
        assert np.array_equal(self.at(1.5), self.DATA[2])
        assert np.array_equal(self.at(7.0), self.DATA[2])

    @pytest.mark.parametrize("offset", [0.0, 5e-13, -5e-13])
    def test_exact_rows_at_interior_nodes(self, offset):
        # within 1e-12 of a node the stored row is returned, not a blend
        assert np.array_equal(self.at(0.5 + offset), self.DATA[1])
        assert np.array_equal(self.at(1.5 - abs(offset)), self.DATA[2])
        assert np.array_equal(self.at(abs(offset)), self.DATA[0])

    @pytest.mark.parametrize("t, j, w", [(0.125, 1, 0.25), (0.25, 1, 0.5),
                                         (1.0, 2, 0.5), (1.25, 2, 0.75)])
    def test_linear_blend_between_nodes(self, t, j, w):
        expected = (1.0 - w) * self.DATA[j - 1] + w * self.DATA[j]
        np.testing.assert_allclose(self.at(t), expected, rtol=1e-14)
