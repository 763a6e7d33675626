"""Classical trajectory (q, p) under p^2/2 + U(q) + phi(0), with the
Lagrangian action integral co-propagated at matching order.

The flow is integrated once with classic RK4 and stored densely with its
vector field; downstream modules read it by cubic Hermite on the RK4 slopes.
The constant phi(0) never moves (q, p); it only shifts the action by -phi(0)*t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    """Dense (q, p, action) history, read by cubic Hermite on its RK4 slopes."""

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    actions: np.ndarray
    forces: np.ndarray  # dp/dt = -grad U(q)
    lagrangians: np.ndarray  # d(action)/dt = p^2/2 - U(q) - phi0

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i) -> ClassicalState:
        return ClassicalState(float(self.qs[i]), float(self.ps[i]),
                              float(self.actions[i]), float(self.times[i]))

    def _hermite(self, values: np.ndarray, slopes: np.ndarray, t) -> np.ndarray:
        """Cubic Hermite on (values, slopes) at t; the end cubics extend."""
        if self.times.size < 2:
            raise ValueError("a trajectory needs two nodes (T > 0) to be read between them")
        t = np.asarray(t, dtype=np.float64)
        j = np.searchsorted(self.times[1:-1], t, side="right")  # 0 .. n-2
        h = self.times[j + 1] - self.times[j]
        s = (t - self.times[j]) / h
        return ((1.0 - s) ** 2 * ((1.0 + 2.0 * s) * values[j] + s * h * slopes[j])
                + s * s * ((3.0 - 2.0 * s) * values[j + 1] - (1.0 - s) * h * slopes[j + 1]))

    def q_at(self, t: float) -> float:
        return float(self._hermite(self.qs, self.ps, t))

    def qs_at(self, times: np.ndarray) -> np.ndarray:
        """q at every one of `times`, in one vectorised evaluation."""
        return self._hermite(self.qs, self.ps, times)

    def p_at(self, t: float) -> float:
        return float(self._hermite(self.ps, self.forces, t))

    def action_at(self, t: float) -> float:
        return float(self._hermite(self.actions, self.lagrangians, t))

    def state_at(self, t: float) -> ClassicalState:
        return ClassicalState(self.q_at(t), self.p_at(t), self.action_at(t), float(t))


def integrate_flow(q0: float, p0: float, U: ExternalPotential, phi0: float,
                   T: float, dt: float) -> Trajectory:
    """Integrate dq/dt = p, dp/dt = -grad U(q) together with
    d(action)/dt = p^2/2 - U(q) - phi0 using RK4.

    On a pure quadrature component RK4 reduces to Simpson's rule on the
    step nodes, so the action converges at the same 4th order as (q, p).
    """
    times = time_nodes(T, dt)
    n = times.size
    qs, ps, actions, forces, lagrangians = np.empty((5, n))
    qs[0], ps[0], actions[0] = q0, p0, 0.0

    def rhs(q: float, p: float):
        return p, -float(U.grad(q)), 0.5 * p * p - float(U.value(q)) - phi0

    q, p, act = float(q0), float(p0), 0.0
    for j in range(n - 1):
        h = times[j + 1] - times[j]
        k1q, k1p, k1a = rhs(q, p)
        forces[j], lagrangians[j] = k1p, k1a
        k2q, k2p, k2a = rhs(q + 0.5 * h * k1q, p + 0.5 * h * k1p)
        k3q, k3p, k3a = rhs(q + 0.5 * h * k2q, p + 0.5 * h * k2p)
        k4q, k4p, k4a = rhs(q + h * k3q, p + h * k3p)
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        act = act + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        if not (np.isfinite(q) and np.isfinite(p) and np.isfinite(act)):
            raise NumericalError(
                f"classical flow blew up at t={times[j + 1]:.6g}"
            )
        qs[j + 1], ps[j + 1], actions[j + 1] = q, p, act
    _, forces[-1], lagrangians[-1] = rhs(q, p)

    return Trajectory(times, qs, ps, actions, forces, lagrangians)


def hessian_along_flow(trajectory: Trajectory, U: ExternalPotential) -> Callable:
    """Map t (or an array of times) to U''(q(t)), q by cubic Hermite on the RK4 slopes."""
    def hess(t):
        values = U.hess(trajectory.qs_at(t))
        return values if np.ndim(t) else float(values)

    return hess
