"""Shared second-order split-step engine.

One Strang step over [t, t+h] applies a half potential phase sampled at t,
an exact spectral kinetic step, and a half potential phase sampled at t+h.
The density |psi|^2 is taken once per step, after the kinetic step, into
one engine buffer (a potential that keeps it must copy it) that serves the
potential, `potential(t, density) -> v` with v real, and one product
`density @ weights` that serves the norm and the boundary-mass guard of
that node: its two columns give each row's squared norm and its mass in
the guard band.  v serves the trailing half and the next step's leading
half.  Between unvisited nodes these are fused into one
phase exp(-i (h_j + h_{j+1})/2 v), which keeps Strang order for
self-consistent potentials (Lubich, Math. Comp. 77, 2008); at a visited
node and at the final node they are applied apart, and the caller sees the
state between them.  A non-finite v trips the guard at its own node.  Each
phase is taken by cos and sin of its real argument, and the kinetic tables
of the current and the previous step length are kept: the float steps of a
node array take only a few distinct values.

`split_step_nodes` is the engine, a generator over the visited nodes, and
every solver names the states it keeps by their node indices.  A ragged
batch (rows on node arrays of their own) steps under one potential, given
each held row's node index, and one stacked kinetic table.  The correction
orders step on dt nodes interleaved with their midpoints and deposit at
each visited one.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .errors import NumericalError
from .grids import Grid

__all__ = ["GUARD_CELLS", "GUARD_MASS", "time_nodes", "tabulate", "split_step_nodes"]

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
    all of them; a scalar broadcasts, and a leading node axis gives rows."""
    table = np.asarray(fn(times), dtype=np.float64)
    table = np.broadcast_to(table, times.shape + table.shape[1:])
    return lambda t: table[np.searchsorted(times, t)]


def split_step_nodes(samples0: np.ndarray, grid: Union[Grid, list], times: Union[np.ndarray, list],
                     potential: Callable, kinetic_scale: Union[float, list] = 1.0,
                     visit: Iterable[int] = (), label: Union[str, list] = "evolution") -> Iterator:
    """Evolve i d(psi)/dt = kinetic_scale*(-Lap/2) psi + v psi, where
    v = potential(t, |psi|^2), over the sorted node array `times`, and
    yield (j, psi) at each node index j in `visit`, after the trailing half
    phase (node 0: before the first step).

    `samples0` is one state of shape (n,) or a batch of shape (m, n) whose
    rows evolve independently: FFTs and reductions run along the last axis,
    and `potential` gets a density of that shape and returns a real array
    broadcastable to it.  The yielded psi is the engine's own buffer, which
    later steps overwrite: copy what you keep.  A change the caller makes
    to it in place before resuming is carried forward.  The generator
    returns norm_drift, the largest deviation of the L^2 norm from its
    initial value over every step, visited or not (a float, or one value
    per row of a batch).

    Ragged rows: `times`, `grid` (all of one n) and `kinetic_scale` may be
    lists, one per row, longest row first.  Each row then does the
    arithmetic of a run of its own and is visited at its final node; psi
    holds the rows not yet ended, and those ending at the yielded node
    leave the batch.  The one potential(j, density) gets the node index j
    (held row r is at times[r][j]) and the held rows' (m, n) density.  A
    lone row is visited at `visit` too; a batch of several rows fuses its
    phases at every other node, so it raises ValueError if `visit` names one.

    Raises NumericalError when samples go non-finite or when more than
    GUARD_MASS probability sits within GUARD_CELLS cells of a domain
    edge (the packet is escaping the window).  `label` names the run in
    that message; a batch takes one label per row, and its error names the
    lowest failing row's label and own node time, and carries that row's
    index as `row`.
    """
    visit = {int(j) for j in visit}
    ragged, at = isinstance(times, list), times  # the potential of node j gets at[j]
    if ragged:  # each row visits its final node
        ends = [t.size - 1 for t in times]
        if ends != sorted(ends, reverse=True):
            raise ValueError("ragged rows go longest first")
        if len(times) > 1 and not visit <= set(ends):
            raise ValueError("a batch of several ragged rows visits their final nodes only")
        visit.update(ends)
        if len(times) == 1:  # a lone row takes the shared-node loop
            ragged, grid, times, kinetic_scale = False, grid[0], times[0], kinetic_scale[0]
            at = range(times.size)
    psi = np.array(samples0, dtype=np.complex128)
    batched = psi.ndim == 2
    labels = [label] if isinstance(label, str) else list(label)
    if batched and len(labels) != psi.shape[0]:
        raise ValueError("a batch needs one label per row")
    dx = np.array([[g.dx] for g in grid]) if ragged else grid.dx
    k2 = [g.wavenumbers ** 2 for g in grid] if ragged else grid.wavenumbers ** 2
    total = np.add.reduce
    hat = np.empty_like(psi)
    # density @ weights: each row's squared norm and its guard-band mass
    weights = np.zeros(np.shape(dx)[:1] + (psi.shape[-1], 2))
    weights[..., 0] = weights[..., :GUARD_CELLS, 1] = weights[..., -GUARD_CELLS:, 1] = dx

    def check(j: int, stats, v) -> None:
        # finite stats and v imply finite samples, and a total edge mass
        # within the guard clears every row; scan the rows only if not
        if (total(stats[..., 1], axis=None) <= GUARD_MASS
                and np.isfinite(total(stats, axis=None) + total(v, axis=None))):
            return
        finite = np.atleast_1d(np.isfinite(psi).all(axis=-1))
        bm = np.atleast_1d(stats[..., 1])
        bad = ~finite | (bm > GUARD_MASS)
        if not bad.any():
            return
        row = int(np.argmax(bad))
        t = times[row][j] if ragged else times[j]
        where = dict(row=row) if batched else {}
        if not finite[row]:
            raise NumericalError(
                f"{labels[row]}: non-finite samples at t={t:.6g}", **where)
        raise NumericalError(f"{labels[row]}: boundary mass {bm[row]:.3e} at t={t:.6g} "
                             f"exceeds guard {GUARD_MASS:.1e}", **where)

    density, scratch = np.empty(psi.shape), np.empty(psi.shape)  # |psi|^2, reused

    def square() -> np.ndarray:  # |psi|^2 into density; returns density @ weights
        np.square(psi.real, out=density)
        np.square(psi.imag, out=scratch)
        np.add(density, scratch, out=density)
        return np.matmul(density[:, None], weights)[:, 0] if ragged else density @ weights

    def phase(scale, v) -> np.ndarray:  # exp(1j*scale*v) into half, v real
        np.multiply(scale, v, out=arg)
        np.cos(arg, out=half.real)
        np.sin(arg, out=half.imag)
        return half

    stats = square()
    norm0 = np.sqrt(stats[..., 0])
    drift = np.zeros_like(norm0)
    check(0, stats, 0.0)
    if ragged:
        # each row's phase scale at each node (a half at its first and final
        # nodes, the two halves fused between them) and kinetic table of each
        # of its few step lengths, indexed by codes[r, j] no wider than the
        # node count needs, and made once per node array, grid and scale
        scales, kins, made = np.empty((len(times), ends[0] + 1)), [], {}
        codes = np.empty(scales.shape, np.min_scalar_type(ends[0] + 2))
        for r, (t, g, c) in enumerate(zip(times, grid, kinetic_scale)):
            steps = np.pad(np.diff(t), (1, ends[0] + 2 - t.size))  # 0 at node 0 and past the end
            scales[r] = -0.5 * (steps[:-1] + steps[1:])
            lengths, codes[r] = np.unique(steps[:-1], return_inverse=True)
            kins.append(made.get((id(t), id(g), c)) or made.setdefault(
                (id(t), id(g), c), [np.exp(-0.5j * h * c * k2[r]) for h in lengths.tolist()]))
        kin, arg, half, m = np.ones_like(psi), np.empty(psi.shape), np.empty_like(psi), len(times)
        for j in range(ends[0] + 1):
            if j:  # the kinetic step into node j; kin stacks the held rows' tables
                for s in np.flatnonzero(codes[:m, j] != codes[:m, j - 1]).tolist():
                    kin[s] = kins[s][codes[s, j]]
                np.fft.fft(psi, out=hat)
                hat *= kin
                np.fft.ifft(hat, out=psi)
                stats = square()
            v = potential(j, density)  # each held row's v at its own node j
            psi *= phase(scales[:, j, None], v)
            if j:
                check(j, stats, v)
                np.maximum(drift[:m], np.abs(np.sqrt(stats[:, 0]) - norm0), out=drift[:m])
            if j in visit:
                yield j, psi
                m = sum(end > j for end in ends)
                psi, hat, kin, density, scratch, weights, arg, half, norm0, scales = (
                    b[:m] for b in (psi, hat, kin, density, scratch, weights, arg, half, norm0,
                                    scales))
        return drift
    if 0 in visit:
        yield 0, psi
        square()  # psi may have changed
    last = times.size - 1
    steps = memoryview(np.append(np.diff(times), 0.0))  # read as Python floats; 0 at the end
    v = potential(at[0], density)
    # the phase and its real argument take v's shape
    arg, half = np.empty(np.shape(v)), np.empty(np.shape(v), dtype=np.complex128)
    psi *= phase(-0.5 * steps[0], v)
    tables = {}  # kinetic tables of the current and the previous step length
    for j in range(last):
        h, h_next = steps[j], steps[j + 1]
        kin = tables.get(h)
        if kin is None:
            kin = np.exp(-0.5j * h * kinetic_scale * k2)
            tables = {steps[j - 1]: tables[steps[j - 1]], h: kin} if j else {h: kin}
        np.fft.fft(psi, out=hat)
        hat *= kin
        np.fft.ifft(hat, out=psi)
        stats = square()
        v = potential(at[j + 1], density)
        visited = j + 1 in visit
        apart = visited or j + 1 == last
        # a visited node and the final node take the trailing half alone,
        # any other node the trailing half fused with the next leading half
        psi *= phase(-0.5 * (h if apart else h + h_next), v)
        check(j + 1, stats, v)
        drift = np.maximum(drift, np.abs(np.sqrt(stats[..., 0]) - norm0))
        if visited:
            yield j + 1, psi
        if apart and h_next:
            psi *= half if h_next == h else phase(-0.5 * h_next, v)
    return drift

