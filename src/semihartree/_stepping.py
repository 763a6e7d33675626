"""Shared second-order split-step engine.

One Strang step over [t, t+h] applies a half potential phase sampled at t,
an exact spectral kinetic step, and a half potential phase sampled at t+h.
The density |psi|^2 is taken once per step, after the kinetic step, into
one engine buffer (a potential that keeps it must copy it) serving the
potential, `potential(j, density) -> v` at node j with v real, and one
product per row `density @ weights`: its squared norm and guard-band mass,
into a 128-node block whose extreme norms are folded in per block.
v serves the trailing half and the next step's leading half: fused into
one phase exp(-i (h_j + h_{j+1})/2 v) between the nodes a row is visited
at, which keeps Strang order for self-consistent potentials (Lubich, Math.
Comp. 77, 2008), and applied apart at a visited node and the final node,
where the caller sees the state between them.  The guard tests one sum
over the rows' norms, masses and v per step, so a non-finite v trips it at
its own node.  Each phase is taken by cos and sin of its real argument.

`split_step_nodes`, a generator over the visited nodes, has one call form
and one step loop: an (m, n) batch of rows, each with its own grid, node
array, kinetic scale, visit set and label, under one potential and one
stacked kinetic table, a table per distinct step length of each row, its
swaps and leading halves scheduled once.

`fan_out` runs independent tasks side by side, one forked process per task
beyond the first, with the results, failures and warnings of one process.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericalError
from .grids import Grid

__all__ = ["GUARD_CELLS", "GUARD_MASS", "time_nodes", "split_step_nodes", "fan_out"]

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
    if n_full and T - times[-1] <= 1e-9 * max(1.0, T):  # node 0 is never snapped
        times[-1] = T
    else:
        times = np.append(times, T)
    return times


def _by_node(mask: np.ndarray, *values: np.ndarray) -> list:
    """Memoryviews [first, rows, *values] of a (rows, nodes) mask's hits: node j's are k in
    first[j]:first[j + 1], each with its row and values at rows[k]."""
    nodes, rows = np.nonzero(mask.T)
    return [memoryview(a) for a in (np.searchsorted(nodes, np.arange(mask.shape[1] + 1)),
                                    rows.astype(np.min_scalar_type(len(mask))),
                                    *(v[rows, nodes] for v in values))]


def split_step_nodes(samples0: np.ndarray, grid: Sequence[Grid], times: Sequence[np.ndarray],
                     potential: Callable, kinetic_scale: Sequence[float],
                     visit: Sequence[Iterable], label: Sequence[str]) -> Iterator:
    """Evolve each row r of the (m, n) batch `samples0` by
    i d(psi)/dt = kinetic_scale[r]*(-Lap/2) psi + v psi on grid[r] over the
    sorted node array times[r], where v = potential(j, |psi|^2) at node
    index j, and yield (j, psi) at each node index j in visit[r] and at the
    row's final node, after the trailing half phase (node 0: before the
    first step).

    Every argument but `potential` takes one entry per row, longest row
    first, the grids all of one n.  psi holds the (rows, n) rows not yet
    ended, held row r being at times[r][j] when the potential gets j: it
    gets their density and returns a real array of that shape, or (n,) for
    every row.  Each row is visited at its own nodes and its final node and
    does the arithmetic of a run of its own; psi is yielded at each node any
    held row is visited at, and the rows ending there leave the batch.  psi
    is the engine's own buffer, which later steps overwrite: copy what you
    keep.  A change the caller makes to it in place before resuming is
    carried forward.  The generator returns norm_drift, per row the largest
    deviation of the L^2 norm from its initial value over every step,
    visited or not.

    Raises NumericalError when samples go non-finite or when more than
    GUARD_MASS probability sits within GUARD_CELLS cells of a domain
    edge (the packet is escaping the window).  Its message names the lowest
    failing held row's label and own node time, and its `row` is that
    row's index.
    """
    held = np.array(samples0, dtype=np.complex128, order="C")  # C order: flat() gives views
    m, n = held.shape
    if not len(grid) == len(times) == len(kinetic_scale) == len(visit) == len(label) == m:
        raise ValueError("every argument but the potential takes one entry per row")
    ends = np.array([t.size - 1 for t in times])
    if np.any(ends[1:] > ends[:-1]):
        raise ValueError("ragged rows go longest first")
    last = int(ends[0])
    # per row and node: the step into it (0 at node 0 and past the row's end), whether the row
    # is seen there, and its kinetic table's code (tables made once per node array, grid, scale)
    steps, seen = np.zeros((m, last + 2)), np.zeros((m, last + 1), bool)
    codes, kins, made = np.empty(seen.shape, np.min_scalar_type(last + 2)), [], {}
    for r, (t, g, c, own) in enumerate(zip(times, grid, kinetic_scale, visit)):
        steps[r, 1:t.size] = np.diff(t)
        seen[r, [j for j in own if 0 <= j < t.size] + [t.size - 1]] = True
        lengths, codes[r] = np.unique(steps[r, :-1], return_inverse=True)
        kins.append(made.get((id(t), id(g), c)) or made.setdefault((id(t), id(g), c), [
            np.exp(-0.5j * h * c * g.wavenumbers ** 2) for h in lengths.tolist()]))
    yields = memoryview(seen.any(axis=0))
    seen[:, 0] = False  # node 0 is seen before its potential: its phase is the leading half
    # a row seen at a node takes its trailing half there and its leading half after the visit
    # (the trailing one again for an equal step), fused elsewhere; a table swaps at a new code
    lead_at, lead_rows, lead_steps = _by_node(seen & (steps[:, 1:] != 0), steps[:, 1:])
    scales = steps[:, :-1]  # each step becomes the phase scale of the node it leads into
    np.add(scales, steps[:, 1:], out=scales, where=~seen)
    scales *= -0.5
    swap_at, swap_rows, swap_codes = _by_node(np.pad(codes[:, 1:] != codes[:, :-1], (
        (0, 0), (1, 0))) & (np.arange(last + 1) <= ends[:, None]), codes)
    shrink = {end: int(np.sum(ends > end)) for end in ends.tolist() if end < last}

    hat, kin, half = np.empty_like(held), np.ones_like(held), np.empty_like(held)
    arg, density, scratch = (np.empty(held.shape) for _ in range(3))  # density: |psi|^2, reused
    weights, dx = np.zeros((m, n, 2)), np.array([[g.dx] for g in grid])
    weights[..., 0] = weights[..., :GUARD_CELLS, 1] = weights[..., -GUARD_CELLS:, 1] = dx
    block = np.empty((128, m, 1, 2))  # each row's (norm^2, guard mass) at 128 nodes in turn

    def check(j: int, stats, v) -> None:  # finite sums of stats and v, and a total edge mass
        # within the guard, clear every row; the rows are scanned only if not
        mass, edge = np.add.reduce(stats, axis=0).tolist()
        if edge <= GUARD_MASS and math.isfinite(mass + edge + np.add.reduce(v, axis=None)):
            return
        finite, bm = np.isfinite(held).all(axis=-1), stats[:, 1]
        for row in np.flatnonzero(~finite | (bm > GUARD_MASS))[:1].tolist():
            if not finite[row]:
                raise NumericalError(f"{label[row]}: non-finite samples at t={times[row][j]:.6g}",
                                     row=row)
            raise NumericalError(f"{label[row]}: boundary mass {bm[row]:.3e} at "
                                 f"t={times[row][j]:.6g} exceeds guard {GUARD_MASS:.1e}", row=row)

    def flat() -> list:  # flat views of the held rows' buffers: 1-D ufunc loops are the fast ones
        return [b.reshape(-1) for b in (held, density, scratch, arg, half)]

    def square(k: int) -> np.ndarray:  # |psi|^2 into density; norm^2, guard mass into block[k]
        np.add(np.square(views[0].real, out=views[1]), np.square(views[0].imag, out=views[2]),
               out=views[1])
        return np.matmul(density[:, None], weights, out=block[k])[:, 0]

    def fold(k: int) -> None:  # the extreme squared norms of the block's first k nodes
        np.maximum(top, block[:k, :, 0, 0].max(axis=0), out=top)
        np.minimum(bottom, block[:k, :, 0, 0].min(axis=0), out=bottom)

    def phase(scale, v, a, a_flat, h, h_flat) -> np.ndarray:  # exp(1j*scale*v) into h, v real
        np.multiply(scale, v, out=a)
        np.cos(a_flat, out=h_flat.real)
        np.sin(a_flat, out=h_flat.imag)
        return h

    views = flat()
    stats = square(0)
    norm0 = np.sqrt(stats[:, 0])  # the drift is read off each row's extreme squared norms,
    top, bottom = tops, bottoms = stats[:, 0].copy(), stats[:, 0].copy()  # folded in per block
    check(0, stats, 0.0)
    for j in range(last + 1):
        if j:  # the kinetic step into node j; kin stacks the held rows' tables
            for k in range(swap_at[j], swap_at[j + 1]):
                kin[swap_rows[k]] = kins[swap_rows[k]][swap_codes[k]]
            np.fft.fft(held, out=hat)
            hat *= kin
            np.fft.ifft(hat, out=held)
            stats = square(j % 128)
        elif yields[0]:  # node 0 is seen before its potential is taken
            yield 0, held
            square(1)  # psi may have changed; node 1 overwrites these stats before a fold
        v = potential(j, density)  # each held row's v at its own node j
        held *= phase(scales[:, j, None], v, arg, views[3], half, views[4])
        if j:
            check(j, stats, v)
            if yields[j]:
                yield j, held
                for k in range(lead_at[j], lead_at[j + 1]):  # the rows seen here lead apart
                    r, s = lead_rows[k], -0.5 * lead_steps[k]  # the trailing half again if equal
                    held[r] *= half[r] if s == scales[r, j] else phase(
                        s, v if v.ndim == 1 else v[r], arg[r], arg[r], half[r], half[r])
        if j % 128 == 127 or j in shrink:  # a full block, or rows about to leave
            fold(j % 128 + 1)
        if j in shrink:  # the rows ending here leave the batch
            m = shrink[j]
            held, hat, kin, density, scratch, weights, arg, half, top, bottom, scales = (
                b[:m] for b in (held, hat, kin, density, scratch, weights, arg, half, top,
                                bottom, scales))
            views, block = flat(), block[:, :m]
    fold(last % 128 + 1)
    return np.maximum(np.sqrt(tops) - norm0, norm0 - np.sqrt(bottoms))


def usable_cpus() -> int:
    """The CPUs this process may use: 1 where it cannot fork or read its affinity."""
    return len(os.sched_getaffinity(0)) if {"fork", "sched_getaffinity"} <= set(dir(os)) else 1


def fan_out(tasks: Sequence[tuple]) -> list:
    """run() of each (run, label, row) task in order: the first here, each other in a forked
    child that pickles back its result, exception and warnings, or here after the tasks
    before it with one usable CPU or if its pipe or fork fails (OSError).  The warnings (a
    child's replayed) and the failure raised, the first in task order, are those of one
    process; a child ending without a result raises NumericalError(label: ..., row=row).  A
    child not yet reaped when the call ends (a failure, an interrupt) is killed and reaped."""
    children, results = [None] * len(tasks), []
    try:
        for k, (run, _, _) in enumerate(tasks[1:] if usable_cpus() > 1 else (), 1):
            fds = ()
            try:
                read, write = fds = os.pipe()
                pid = os.fork()
            except OSError:  # EAGAIN, ENOMEM: the task runs here
                for fd in fds:
                    os.close(fd)
                continue
            if not pid:  # the child: no stdio flush, none of the caller's cleanup
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        try:
                            outcome = run(), None
                        except Exception as exc:  # any, so that it is forwarded
                            outcome = None, exc
                    with open(write, "wb") as pipe:
                        pickle.dump((*outcome, caught), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[k] = pid, open(read, "rb")
        for (run, label, row), child in zip(tasks, children):
            if child:
                pid, pipe = child
                data, code = pipe.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pipe.close()
                if code:
                    raise NumericalError(f"{label}: its process ended without a result "
                                         f"(exit code {code})", row=row)
                result, exc, caught = pickle.loads(data)
                for w in caught:  # shown, or recorded by the caller, as if warned here
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
                if exc is not None:
                    raise exc
            results.append(result if child else run())
        return results
    finally:
        for pid, pipe in [child for child in children if child and not child[1].closed]:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            pipe.close()
