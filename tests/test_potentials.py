import numpy as np
import pytest

from semihartree.potentials import builtin_external, builtin_pair

LATTICE = (-2.0, -1.0, 0.0, 1.0, 2.0)


def slope_at_zero(phi, h=1e-4):
    """Richardson-extrapolated one-sided slope of the even interaction."""
    s = lambda step: (float(phi(step)) - phi.value_at_0) / step
    return 2.0 * s(h / 2.0) - s(h)


def second_derivative_fd(phi, h=1e-3):
    # even extension: symmetric second difference collapses to this form
    return 2.0 * (float(phi(h)) - phi.value_at_0) / h ** 2


class TestBuiltinPairs:
    def test_cosine_derivatives(self):
        phi = builtin_pair("cosine")
        assert (phi.value_at_0, phi.second_deriv_at_0, phi.fourth_deriv_at_0) \
            == (1.0, -1.0, 1.0)

    def test_gaussian_derivatives(self):
        phi = builtin_pair("gaussian")
        assert (phi.value_at_0, phi.second_deriv_at_0, phi.fourth_deriv_at_0) \
            == (1.0, -1.0, 3.0)

    def test_gaussian_fourth_derivative_fd(self):
        # 2 phi(2h) - 8 phi(h) + 6 phi(0) over h^4, using evenness
        phi = builtin_pair("gaussian")
        h = 0.05
        fd4 = (2.0 * float(phi(2 * h)) - 8.0 * float(phi(h))
               + 6.0 * phi.value_at_0) / h ** 4
        assert fd4 == pytest.approx(phi.fourth_deriv_at_0, rel=1e-2)

    def test_quadratic(self):
        phi = builtin_pair("quadratic", [1.0, -1.0])
        assert float(phi(2.0)) == -1.0
        assert (phi.value_at_0, phi.second_deriv_at_0, phi.fourth_deriv_at_0) \
            == (1.0, -1.0, 0.0)
        # Taylor remainder beyond order 2 vanishes identically
        r = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(np.asarray(phi(r)),
                              1.0 - 0.5 * r ** 2)

    def test_zero(self):
        phi = builtin_pair("zero")
        assert np.all(np.asarray(phi(np.linspace(0, 5, 11))) == 0.0)

    @pytest.mark.parametrize("name, closed_form", [("cosine", np.cos),
                                                   ("gaussian", lambda r: np.exp(-0.5 * r * r))])
    def test_value_from_the_shifted_form(self, name, closed_form):
        # phi(r) = phi(0) + shifted(r): within two units of roundoff at
        # phi(0) = 1 (3.3e-16 measured for cosine)
        r = np.linspace(0.0, 6.0, 601)
        np.testing.assert_allclose(builtin_pair(name)(r), closed_form(r), rtol=0, atol=4.5e-16)

    @pytest.mark.parametrize("name, params", [("cosine", []), ("gaussian", []),
                                              ("quadratic", [1.0, -1.0])])
    def test_shifted_keeps_small_separations(self, name, params):
        # phi(r) - phi(0) = phi''(0) r^2/2 + O(r^4), with no cancellation
        # against phi(0) down to r = 1e-150
        phi = builtin_pair(name, params)
        r = np.array([1e-150, 3e-100, 1e-9])
        np.testing.assert_allclose(phi.shifted(r) / r ** 2, 0.5 * phi.second_deriv_at_0,
                                   rtol=1e-15)

    @pytest.mark.parametrize("name", ["cosine", "gaussian", "quadratic"])
    def test_slope_at_zero_vanishes(self, name):
        params = [1.0, -1.0] if name == "quadratic" else []
        assert abs(slope_at_zero(builtin_pair(name, params), h=1e-4)) < 1e-6

    @pytest.mark.parametrize("name", ["cosine", "gaussian", "quadratic"])
    def test_second_derivative_fd(self, name):
        params = [1.0, -1.0] if name == "quadratic" else []
        phi = builtin_pair(name, params)
        assert second_derivative_fd(phi, h=1e-3) == pytest.approx(
            phi.second_deriv_at_0, abs=1e-4)

    @pytest.mark.parametrize("name", ["cosine", "gaussian"])
    def test_attractive_curvature_covered(self, name):
        assert builtin_pair(name).second_deriv_at_0 < 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="valid names"):
            builtin_pair("coulomb")

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="parameter"):
            builtin_pair("quadratic", [1.0])
        with pytest.raises(ValueError, match="parameter"):
            builtin_pair("cosine", [2.0])


def fd_grad(U, x, h=1e-5):
    return (U.value(x + h) - U.value(x - h)) / (2.0 * h)


def fd_hess(U, x, h=1e-4):
    return (U.value(x + h) - 2.0 * U.value(x) + U.value(x - h)) / h ** 2


def fd_third(U, x, h=5e-3):
    return (U.value(x + 2 * h) - 2.0 * U.value(x + h)
            + 2.0 * U.value(x - h) - U.value(x - 2 * h)) / (2.0 * h ** 3)


class TestBuiltinExternals:
    def test_zero(self):
        U = builtin_external("zero")
        x = np.array(LATTICE)
        assert np.all(U.grad(x) == 0.0)
        assert np.all(U.hess(x) == 0.0)

    def test_harmonic(self):
        U = builtin_external("harmonic", [1.0])
        x = np.array(LATTICE)
        assert np.all(U.hess(x) == 1.0)
        assert np.all(U.third(x) == 0.0)
        assert np.all(U.fourth(x) == 0.0)

    def test_cosine(self):
        U = builtin_external("cosine", [1.0])
        x = np.array(LATTICE)
        assert np.allclose(U.grad(x), -np.sin(x), atol=1e-15)
        assert np.allclose(U.hess(x), -np.cos(x), atol=1e-15)

    @pytest.mark.parametrize("name,params", [
        ("harmonic", [1.3]),
        ("cosine", [1.0]),
        ("cubic_window", [1.0]),
    ])
    def test_derivatives_match_finite_differences(self, name, params):
        U = builtin_external(name, params)
        scale_g = max(1.0, max(abs(float(U.grad(x))) for x in LATTICE))
        scale_h = max(1.0, max(abs(float(U.hess(x))) for x in LATTICE))
        scale_3 = max(1.0, max(abs(float(U.third(x))) for x in LATTICE))
        for x in LATTICE:
            assert abs(fd_grad(U, x) - U.grad(x)) / scale_g < 1e-5
            assert abs(fd_hess(U, x) - U.hess(x)) / scale_h < 1e-5
            assert abs(fd_third(U, x) - U.third(x)) / scale_3 < 1e-5

    def test_cubic_window_third_at_origin(self):
        U = builtin_external("cubic_window", [2.0])
        assert float(U.third(0.0)) == pytest.approx(12.0, rel=1e-14)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="valid names"):
            builtin_external("morse")

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="parameter"):
            builtin_external("harmonic", [1.0, 2.0])
