import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from semihartree import parse_config
from semihartree.classical import integrate_flow
from semihartree.errors import NumericalError
from semihartree.potentials import ExternalPotential, builtin_external

ZERO = builtin_external("zero")
HARMONIC = builtin_external("harmonic", [1.0])
COSINE = builtin_external("cosine", [1.0])


class TestFreeFlight:
    def test_constant_integrand(self):
        traj = integrate_flow(0.0, 1.0, ZERO, 1.0, 2.0, 0.01)
        final = traj[-1]
        assert final.q == pytest.approx(2.0, abs=1e-13)
        assert final.p == pytest.approx(1.0, abs=1e-14)
        assert final.action == pytest.approx(-1.0, abs=1e-13)  # (1/2 - 1) * 2


class TestHarmonic:
    def test_quarter_period(self):
        phi0 = 0.7
        traj = integrate_flow(0.0, 1.0, HARMONIC, phi0, np.pi / 2.0, 1e-3)
        final = traj[-1]
        assert final.q == pytest.approx(1.0, abs=1e-8)
        assert final.p == pytest.approx(0.0, abs=1e-8)
        # action = sin(2t)/4 - phi0*t at t = pi/2
        assert final.action == pytest.approx(-phi0 * np.pi / 2.0, abs=1e-8)

    def test_energy_conserved(self):
        traj = integrate_flow(0.3, 0.7, HARMONIC, 0.0, 10.0, 1e-3)
        energies = 0.5 * traj.ps ** 2 + 0.5 * traj.qs ** 2
        assert np.max(np.abs(energies - energies[0])) < 1e-11

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (0.02, 0.01):
            final = integrate_flow(0.0, 1.0, HARMONIC, 0.0, np.pi / 2.0, dt)[-1]
            errs.append(abs(final.q - 1.0) + abs(final.p))
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.7


class TestRichardsonOracle:
    def test_half_step_extrapolation(self):
        # single-step local accuracy against Richardson extrapolation
        T = 0.01
        full = integrate_flow(0.0, 0.2, COSINE, 1.0, T, T)[-1]
        half = integrate_flow(0.0, 0.2, COSINE, 1.0, T, T / 2.0)[-1]
        for attr in ("q", "p", "action"):
            y1, y2 = getattr(full, attr), getattr(half, attr)
            richardson = (16.0 * y2 - y1) / 15.0
            assert abs(y2 - richardson) <= 1e-10


class TestConstantOffset:
    def test_pair_value_only_shifts_action(self):
        a = integrate_flow(0.1, 0.9, COSINE, 0.0, 1.0, 1e-3)
        b = integrate_flow(0.1, 0.9, COSINE, 1.0, 1.0, 1e-3)
        assert np.array_equal(a.qs, b.qs)
        assert np.array_equal(a.ps, b.ps)
        assert np.allclose(a.actions - b.actions, a.times, atol=1e-12)


class TestDiagnostics:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_reports_time(self):
        runaway = ExternalPotential(
            "runaway",
            value=lambda x: -0.25 * np.asarray(x, float) ** 4,
            grad=lambda x: -np.asarray(x, float) ** 3,
            hess=lambda x: -3.0 * np.asarray(x, float) ** 2,
            third=lambda x: -6.0 * np.asarray(x, float),
            fourth=lambda x: -6.0 * np.ones_like(np.asarray(x, float)),
        )
        with pytest.raises(NumericalError, match="t="):
            integrate_flow(1.0, 0.0, runaway, 0.0, 5.0, 0.01)

    def test_spline_interpolation_accuracy(self):
        traj = integrate_flow(0.0, 1.0, HARMONIC, 0.0, 1.0, 1e-3)
        for t in (0.123456, 0.5, 0.987):
            assert traj.q_at(t) == pytest.approx(np.sin(t), abs=1e-10)
            assert traj.p_at(t) == pytest.approx(np.cos(t), abs=1e-10)

    def test_hessian_along_flow(self):
        # U'' along the path, as the solvers take it: U.hess at q(t)
        traj = integrate_flow(0.0, 1.0, COSINE, 0.0, 1.0, 1e-3)
        hess = lambda t: COSINE.hess(traj.qs_at(t))  # noqa: E731
        assert hess(0.4) == pytest.approx(-np.cos(traj.q_at(0.4)), abs=1e-12)

    def test_sequence_protocol(self):
        traj = integrate_flow(0.0, 1.0, ZERO, 0.0, 0.1, 0.01)
        assert len(traj) == 11
        assert traj[0].q == 0.0
        assert traj[-1].t == pytest.approx(0.1)


class TestHermiteAccessors:
    """The cubic Hermite accessors on the RK4 slopes, against the
    `scipy.interpolate.CubicSpline` they replaced."""

    @pytest.mark.parametrize("dt", [1e-3, 5e-4, 1.25e-4])
    @pytest.mark.parametrize("mode", ["physical", "corrections-2"])
    def test_matches_cubic_spline(self, mode, dt):
        config = parse_config(f'{{"mode": "{mode}"}}')
        traj = integrate_flow(config.q0, config.p0, config.external(),
                              config.pair().value_at_0, config.T, dt)
        mids = 0.5 * (traj.times[1:] + traj.times[:-1])
        for values, read in ((traj.qs, traj.q_at), (traj.ps, traj.p_at),
                             (traj.actions, traj.action_at)):
            spline = CubicSpline(traj.times, values)
            at_nodes = np.array([read(t) for t in traj.times])
            assert np.array_equal(at_nodes, values)
            at_mids = np.array([read(t) for t in mids])
            assert np.max(np.abs(at_mids - spline(mids))) <= 1e-12
        assert np.array_equal(traj.qs_at(traj.times), traj.qs)
        assert np.max(np.abs(traj.qs_at(mids) - CubicSpline(traj.times, traj.qs)(mids))) <= 1e-12

    def test_pickle_round_trip_is_bit_identical(self):
        # a trajectory is plain data: its lookups survive a pickle round trip
        traj = integrate_flow(0.0, 1.0, COSINE, 1.0, 1.0, 1e-3)
        times = np.linspace(-0.01, 1.01, 777)
        copy = pickle.loads(pickle.dumps(traj))
        assert np.array_equal(copy.qs_at(times), traj.qs_at(times))
        assert copy.state_at(0.3456) == traj.state_at(0.3456)

    def test_runtime_imports_no_scipy(self):
        code = ("import sys, semihartree, semihartree.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "[]"

    def test_single_node_trajectory(self):
        traj = integrate_flow(0.3, 0.7, HARMONIC, 0.0, 0.0, 1e-3)
        assert len(traj) == 1
        assert traj[-1].q == 0.3 and traj[-1].p == 0.7 and traj[-1].action == 0.0
        for read in (traj.q_at, traj.p_at, traj.action_at, traj.qs_at):
            with pytest.raises(ValueError, match="two nodes"):
                read(0.0)
