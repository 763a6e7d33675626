"""Built-in pair interactions and external potentials.

Derivative data is supplied analytically, never by runtime differencing, so
the quadratic-profile equation and the correction sources get exact
coefficients.  Pair interactions are even functions of the separation and
only accept r >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "PairPotential",
    "ExternalPotential",
    "builtin_pair",
    "builtin_external",
    "PAIR_NAMES",
    "EXTERNAL_NAMES",
]

Array = np.ndarray
PAIR_NAMES = ("zero", "cosine", "gaussian", "quadratic")
EXTERNAL_NAMES = ("zero", "harmonic", "cosine", "cubic_window")

# width of the smooth cutoff in the cubic_window external potential
_WINDOW_SCALE = 4.0


@dataclass(frozen=True, eq=False)
class PairPotential:
    """Even two-body interaction with its derivatives at the origin.  `_fn` is
    phi(r) - phi(0) (`shifted`), formed to keep its relative accuracy at small r.

    `separable`, if set, maps points x to (rank, n) tables (f, g) with
    phi(x_j - x_l) = sum_i f_i(x_j) g_i(x_l): rank 2 for cosine, 0 for
    zero.  Quadratic (rank 3) has none here: its whole-line r^2 grows to
    the domain edge, which feeds the reference solver's phase check.
    """

    name: str
    value_at_0: float
    second_deriv_at_0: float
    fourth_deriv_at_0: float
    _fn: Callable[[Array], Array]
    separable: Optional[Callable[[Array], tuple]] = None

    def __call__(self, r):
        """Evaluate at separations r >= 0."""
        return self.value_at_0 + self.shifted(r)

    def shifted(self, r):
        """phi(r) - phi(0), the combination entering mean-field kernels."""
        return self._fn(np.asarray(r, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class ExternalPotential:
    """External potential U(x) with analytic derivatives up to order 4.
    `addition`, if set, maps offsets y to a (rank,) + y.shape table r and a map
    c from points q to q.shape + (rank,) tables with U(q+y) - U(q) - U'(q) y
    = sum_k c_k(q) r_k(y), the twin of the pair's `separable`."""

    name: str
    value: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    hess: Callable[[Array], Array]
    third: Callable[[Array], Array]
    fourth: Callable[[Array], Array]
    addition: Optional[Callable[[Array], tuple]] = None


def _require_params(name: str, params: Sequence[float], count: int) -> tuple:
    params = tuple(float(p) for p in params)
    if len(params) != count:
        raise ValueError(
            f"pair potential {name!r} takes {count} parameter(s), got {len(params)}"
        )
    return params


def builtin_pair(name: str, params: Sequence[float] = ()) -> PairPotential:
    """Named pair interactions: zero, cosine, gaussian, quadratic(c0, c2)
    with quadratic meaning phi(r) = c0 + c2 r^2 / 2."""
    if name == "zero":
        _require_params(name, params, 0)
        return PairPotential("zero", 0.0, 0.0, 0.0, lambda r: np.zeros_like(r),
                             lambda x: (np.empty((0, np.size(x))),) * 2)
    if name == "cosine":
        _require_params(name, params, 0)
        # cos(x - y) = cos x cos y + sin x sin y, and cos r - 1 = -2 sin^2(r/2)
        return PairPotential("cosine", 1.0, -1.0, 1.0, lambda r: -2.0 * np.sin(0.5 * r) ** 2,
                             lambda x: (np.stack([np.cos(x), np.sin(x)]),) * 2)
    if name == "gaussian":
        _require_params(name, params, 0)
        return PairPotential("gaussian", 1.0, -1.0, 3.0,
                             lambda r: np.expm1(-0.5 * r * r))
    if name == "quadratic":
        c0, c2 = _require_params(name, params, 2)
        return PairPotential("quadratic", c0, c2, 0.0,
                             lambda r, c2=c2: 0.5 * c2 * r * r)
    raise ValueError(
        f"unknown pair potential {name!r}: valid names are {', '.join(PAIR_NAMES)}"
    )


def _one_optional(name: str, params: Sequence[float], default: float) -> float:
    params = tuple(float(p) for p in params)
    if len(params) > 1:
        raise ValueError(
            f"external potential {name!r} takes at most one parameter, got {len(params)}"
        )
    return params[0] if params else default


def builtin_external(name: str, params: Sequence[float] = ()) -> ExternalPotential:
    """Named external potentials: zero, harmonic(omega), cosine(A),
    cubic_window(A)."""
    if name == "zero":
        if len(tuple(params)) != 0:
            raise ValueError("external potential 'zero' takes no parameters")
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=np.float64))
        return ExternalPotential("zero", zero, zero, zero, zero, zero, lambda y: (
            np.empty((0, *np.shape(y))), lambda q: np.empty((*np.shape(q), 0))))

    if name == "harmonic":
        w = _one_optional(name, params, 1.0)
        w2 = w * w
        return ExternalPotential(
            "harmonic",
            value=lambda x: 0.5 * w2 * np.asarray(x, float) ** 2,
            grad=lambda x: w2 * np.asarray(x, float),
            hess=lambda x: w2 * np.ones_like(np.asarray(x, float)),
            third=lambda x: np.zeros_like(np.asarray(x, float)),
            fourth=lambda x: np.zeros_like(np.asarray(x, float)),
            addition=lambda y: (0.5 * w2 * y[None] ** 2, lambda q: np.ones((*np.shape(q), 1))),
        )

    if name == "cosine":
        amp = _one_optional(name, params, 1.0)
        return ExternalPotential(
            "cosine",
            value=lambda x: amp * np.cos(x),
            grad=lambda x: -amp * np.sin(x),
            hess=lambda x: -amp * np.cos(x),
            third=lambda x: amp * np.sin(x),
            fourth=lambda x: amp * np.cos(x),
            # cos(q+y) = cos q cos y - sin q sin y; cos y - 1 = -2 sin^2(y/2) keeps small y
            addition=lambda y: (np.stack([-2.0 * np.sin(0.5 * y) ** 2, np.sin(y) - y]),
                                lambda q: amp * np.stack([np.cos(q), -np.sin(q)], axis=-1)),
        )

    if name == "cubic_window":
        amp = _one_optional(name, params, 1.0)
        s2 = _WINDOW_SCALE ** 2

        def window(x):
            x = np.asarray(x, dtype=np.float64)
            return x, np.exp(-x * x / (2.0 * s2))

        # U = A x^3 g with g = exp(-x^2/(2 s^2)); derivatives expanded by hand
        def value(x):
            x, g = window(x)
            return amp * x ** 3 * g

        def grad(x):
            x, g = window(x)
            return amp * g * (3.0 * x ** 2 - x ** 4 / s2)

        def hess(x):
            x, g = window(x)
            return amp * g * (6.0 * x - 7.0 * x ** 3 / s2 + x ** 5 / s2 ** 2)

        def third(x):
            x, g = window(x)
            return amp * g * (6.0 - 27.0 * x ** 2 / s2
                              + 12.0 * x ** 4 / s2 ** 2 - x ** 6 / s2 ** 3)

        def fourth(x):
            x, g = window(x)
            return amp * g * (-60.0 * x / s2 + 75.0 * x ** 3 / s2 ** 2
                              - 18.0 * x ** 5 / s2 ** 3 + x ** 7 / s2 ** 4)

        return ExternalPotential("cubic_window", value, grad, hess, third, fourth)

    raise ValueError(
        f"unknown external potential {name!r}: valid names are {', '.join(EXTERNAL_NAMES)}"
    )
