"""Classical trajectory (q, p) under p^2/2 + U(q, t) + phi(0), with the
Lagrangian action integral co-propagated at matching order.

The flow is integrated once per simulation with a classic 4th-order
one-step method and stored densely; downstream modules interpolate the
stored sequence (cubic splines) at their own step times.  The constant
phi(0) never moves (q, p); it only shifts the action by -phi(0)*t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from ._stepping import time_nodes
from .errors import NumericalError
from .potentials import ExternalPotential

__all__ = ["ClassicalState", "Trajectory", "integrate_flow", "hessian_along_flow"]


@dataclass(frozen=True)
class ClassicalState:
    """Trajectory point with the accumulated action."""

    q: float
    p: float
    action: float
    t: float


@dataclass(frozen=True, eq=False)
class Trajectory(Sequence):
    """Dense (q, p, action) history with spline accessors between nodes."""

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    actions: np.ndarray

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i) -> ClassicalState:
        return ClassicalState(float(self.qs[i]), float(self.ps[i]),
                              float(self.actions[i]), float(self.times[i]))

    @property
    def final(self) -> ClassicalState:
        return self[len(self) - 1]

    def __getstate__(self):  # splines triple the pickled size; rebuilt on use
        return {k: v for k, v in self.__dict__.items() if k != "_splines"}

    @cached_property
    def _splines(self):
        return (CubicSpline(self.times, self.qs),
                CubicSpline(self.times, self.ps),
                CubicSpline(self.times, self.actions))

    def q_at(self, t: float) -> float:
        return float(self._splines[0](t))

    def qs_at(self, times: np.ndarray) -> np.ndarray:
        """q at every one of `times`, in one spline evaluation."""
        return self._splines[0](np.asarray(times, dtype=np.float64))

    def p_at(self, t: float) -> float:
        return float(self._splines[1](t))

    def action_at(self, t: float) -> float:
        return float(self._splines[2](t))

    def state_at(self, t: float) -> ClassicalState:
        return ClassicalState(self.q_at(t), self.p_at(t), self.action_at(t), float(t))


def integrate_flow(q0: float, p0: float, U: ExternalPotential, phi0: float,
                   T: float, dt: float) -> Trajectory:
    """Integrate dq/dt = p, dp/dt = -grad U(q, t) together with
    d(action)/dt = p^2/2 - U(q, t) - phi0 using RK4.

    On a pure quadrature component RK4 reduces to Simpson's rule on the
    step nodes, so the action converges at the same 4th order as (q, p).
    """
    times = time_nodes(T, dt)
    n = times.size
    qs = np.empty(n)
    ps = np.empty(n)
    actions = np.empty(n)
    qs[0], ps[0], actions[0] = q0, p0, 0.0

    def rhs(t: float, q: float, p: float):
        return p, -float(U.grad(q, t)), 0.5 * p * p - float(U.value(q, t)) - phi0

    q, p, act = float(q0), float(p0), 0.0
    for j in range(n - 1):
        t = times[j]
        h = times[j + 1] - t
        k1q, k1p, k1a = rhs(t, q, p)
        k2q, k2p, k2a = rhs(t + 0.5 * h, q + 0.5 * h * k1q, p + 0.5 * h * k1p)
        k3q, k3p, k3a = rhs(t + 0.5 * h, q + 0.5 * h * k2q, p + 0.5 * h * k2p)
        k4q, k4p, k4a = rhs(t + h, q + h * k3q, p + h * k3p)
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        act = act + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        if not (np.isfinite(q) and np.isfinite(p) and np.isfinite(act)):
            raise NumericalError(
                f"classical flow blew up at t={times[j + 1]:.6g}"
            )
        qs[j + 1], ps[j + 1], actions[j + 1] = q, p, act

    return Trajectory(times, qs, ps, actions)


def hessian_along_flow(trajectory: Trajectory, U: ExternalPotential) -> Callable:
    """Map t -> d2U/dx2 at the trajectory position q(t).  Given an array of
    times it returns an array, from one spline call and one `U.hess` call."""
    def hess(t):
        values = U.hess(trajectory.qs_at(t), t)
        return values if np.ndim(t) else float(values)

    return hess
