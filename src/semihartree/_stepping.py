"""Shared second-order split-step engine.

One Strang step over [t, t+h] applies a half potential phase sampled at t,
an exact spectral kinetic step, and a half potential phase sampled at t+h.
The density |psi|^2 is taken once per step, after the kinetic step, and
serves the potential, `potential(t, density) -> v`, the norm and the
boundary-mass guard of that node (the phase leaves |psi| unchanged).  v
serves the trailing half and the next step's leading half.  Off store
nodes these are fused into one phase exp(-i (h_j + h_{j+1})/2 v), which
keeps Strang order for self-consistent potentials (Lubich, Math. Comp. 77,
2008); at store nodes and the final node they are applied apart.  A
non-finite v trips the guard at its own node.

The engine steps on the node array its caller passes, usually
`time_nodes(T, dt)`.  The correction orders step on dt nodes interleaved
with their midpoints (t_0, mid_0, t_1, ...) and add a Duhamel deposit at
each midpoint, after the trailing half; the halves at a midpoint are then
applied apart too, as at a store node.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import NumericalError
from .grids import Grid, boundary_mass

__all__ = ["GUARD_CELLS", "GUARD_MASS", "time_nodes", "tabulate", "split_step_evolve"]

# the boundary guard of every evolution: more than GUARD_MASS probability
# within GUARD_CELLS cells of either domain edge fails the run
GUARD_CELLS = 12
GUARD_MASS = 1e-8


def time_nodes(T: float, dt: float) -> np.ndarray:
    """Node times 0, dt, 2dt, ..., T; the final step is shortened when dt
    does not divide T exactly."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return np.array([0.0])
    n_full = int(np.floor(T / dt + 1e-9))
    times = dt * np.arange(n_full + 1)
    if T - times[-1] > 1e-9 * max(1.0, T):
        times = np.append(times, T)
    else:
        times[-1] = T
    return times


def tabulate(fn: Callable, times: np.ndarray) -> Callable[[float], float]:
    """Lookup t -> fn(t) for t in the sorted `times`, from one call of `fn` on
    all of them; a scalar result (say, of `lambda t: 0.0`) broadcasts."""
    table = np.broadcast_to(np.asarray(fn(times), dtype=np.float64), times.shape)
    return lambda t: table[np.searchsorted(times, t)]


def _resolve_store(times: np.ndarray, store_times: Optional[Sequence[float]]) -> np.ndarray:
    if store_times is None:
        return np.arange(times.size)
    idx = sorted({int(np.argmin(np.abs(times - t))) for t in store_times})
    if times.size - 1 not in idx:
        idx.append(times.size - 1)
    return np.asarray(idx, dtype=int)


def split_step_evolve(
    samples0: np.ndarray,
    grid: Grid,
    times: np.ndarray,
    potential: Callable[[float, np.ndarray], np.ndarray],
    kinetic_scale: float = 1.0,
    store_times: Optional[Sequence[float]] = None,
    label: Union[str, Sequence[str]] = "evolution",
    deposit: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
):
    """Evolve i d(psi)/dt = kinetic_scale*(-Lap/2) psi + v psi, where
    v = potential(t, |psi|^2), over the sorted node array `times`.

    `samples0` is one state of shape (n,) or a batch of shape (m, n) whose
    rows evolve independently: FFTs and reductions run along the last axis,
    and `potential` gets a density of that shape and returns a real array
    broadcastable to it.  Returns (times, stored_times, stored_data,
    norm_drift): stored_data has shape (stored nodes,) + samples0.shape,
    and norm_drift is the largest deviation of the L^2 norm from its
    initial value over every step, not just stored ones (a float, or one
    value per row of a batch).

    `deposit(j, psi) -> psi`, when given, acts at every odd node 2j+1 (the
    midpoint of step j of an interleaved node array), after the trailing
    half phase and before the state there is stored.

    Raises NumericalError when samples go non-finite or when more than
    GUARD_MASS probability sits within GUARD_CELLS cells of a domain
    edge (the packet is escaping the window).  `label` names the run in
    that message; a batch takes one label per row, and its error names the
    lowest failing row's label and carries that row's index as `row`.
    """
    store_idx = _resolve_store(times, store_times)
    store_pos = {int(j): pos for pos, j in enumerate(store_idx)}

    psi = np.array(samples0, dtype=np.complex128)
    batched = psi.ndim == 2
    labels = [label] if isinstance(label, str) else list(label)
    if batched and len(labels) != psi.shape[0]:
        raise ValueError("a batch needs one label per row")
    dx = grid.dx
    k2 = grid.wavenumbers ** 2

    data = np.empty((store_idx.size,) + psi.shape, dtype=np.complex128)
    if 0 in store_pos:
        data[store_pos[0]] = psi

    def check(t: float, density, nrm, v) -> None:
        bm = boundary_mass(density, grid, GUARD_CELLS, is_density=True)
        # finite norms and v imply finite samples, and a total edge mass
        # within the guard clears every row; scan the rows only if not
        total = np.add.reduce
        if (total(bm, axis=None) <= GUARD_MASS
                and np.isfinite(total(nrm, axis=None) + total(v, axis=None))):
            return
        finite = np.atleast_1d(np.isfinite(psi).all(axis=-1))
        bm = np.atleast_1d(bm)
        bad = ~finite | (bm > GUARD_MASS)
        if not bad.any():
            return
        row = int(np.argmax(bad))
        where = dict(row=row) if batched else {}
        if not finite[row]:
            raise NumericalError(
                f"{labels[row]}: non-finite samples at t={t:.6g}", **where)
        nrm2 = np.sum(density[row] if batched else density) * dx
        raise NumericalError(
            f"{labels[row]}: boundary mass fraction {bm[row] / nrm2:.3e} at "
            f"t={t:.6g} exceeds guard {GUARD_MASS:.1e}", **where)

    density = psi.real ** 2 + psi.imag ** 2
    norm0 = np.sqrt(density.sum(axis=-1) * dx)
    drift = np.zeros_like(norm0)
    check(0.0, density, norm0, 0.0)
    steps = np.append(np.diff(times), 0.0)  # a zero step after the final node
    v = potential(times[0], density)
    psi = psi * np.exp(-0.5j * steps[0] * v)
    for j in range(times.size - 1):
        h, h_next = steps[j], steps[j + 1]
        if j == 0 or h != steps[j - 1]:
            kin = np.exp(-0.5j * h * kinetic_scale * k2)
        psi = np.fft.ifft(np.fft.fft(psi) * kin)
        density = psi.real ** 2 + psi.imag ** 2
        nrm = np.sqrt(density.sum(axis=-1) * dx)
        v = potential(times[j + 1], density)
        stored = j + 1 in store_pos
        deposited = deposit is not None and j % 2 == 0
        apart = stored or deposited
        # a store or deposit node takes the trailing half alone, any other
        # node the trailing half fused with the next step's leading half
        half = np.exp(-0.5j * (h if apart else h + h_next) * v)
        psi = psi * half

        check(times[j + 1], density, nrm, v)
        drift = np.maximum(drift, np.abs(nrm - norm0))
        if deposited:
            psi = deposit(j // 2, psi)
        if stored:
            data[store_pos[j + 1]] = psi
        if apart and h_next:
            psi = psi * (half if h_next == h else np.exp(-0.5j * h_next * v))

    return times, times[store_idx], data, drift
