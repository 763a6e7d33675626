"""Test-only helpers shared by several test modules, which the library
itself does not call."""

import warnings
from collections import deque
from types import SimpleNamespace

import numpy as np

from semihartree._stepping import GUARD_CELLS, GUARD_MASS, split_step_nodes, time_nodes
from semihartree.amplitude import B_LABEL, b_potential
from semihartree.classical import hessian_along_flow
from semihartree.corrections import _interleaved_nodes, separation_power_form
from semihartree.errors import NumericalError
from semihartree.grids import (abs_moment, apply_radial_rfft, boundary_mass, l2_distance,
                               radial_distances, radial_kernel_rfft, spectral_samples)
from semihartree.hartree import _reference_start, assemble_approximation


def evaluate_trig_interpolant(psi, points):
    """The oracle of `grids.trig_interpolant_on_run`: the band-limited
    (trigonometric) interpolant of psi at arbitrary points, from dense
    cos/sin tables of the points against the grid's wavenumbers; points
    outside the domain see the periodic extension."""
    grid = psi.grid
    coeffs = (np.fft.fft(psi.samples) / grid.n).view(np.float64).reshape(grid.n, 2)
    rel = np.asarray(points, dtype=np.float64) - grid.x_min
    out = np.empty(rel.size, dtype=np.complex128)
    # chunk the outer product: each block's cos/sin tables stay near 2 MB
    block = max(1, 250_000 // grid.n)
    for start in range(0, rel.size, block):
        arg = np.outer(rel[start:start + block], grid.wavenumbers)
        # exp(i a) c from real products with c's (n, 2) real parts: no cast
        cos, sin = np.cos(arg) @ coeffs, np.sin(arg) @ coeffs
        out[start:start + block] = cos[:, 0] - sin[:, 1] + 1j * (cos[:, 1] + sin[:, 0])
    return out


def node_table(fn, times):
    """fn at every node of the sorted `times`, from one call on all of them,
    indexed by node; a scalar broadcasts, and a leading node axis gives rows."""
    table = np.asarray(fn(times), dtype=np.float64)
    return np.broadcast_to(table, times.shape + table.shape[1:])


def run_nodes(run):
    """(visited node indices, a copy of the state at each, return value) of
    a `split_step_nodes` run; the states stack into one array."""
    idx, states = [], []
    while True:
        try:
            j, psi = next(run)
        except StopIteration as end:
            return np.array(idx, dtype=int), np.array(states), end.value
        idx.append(j)
        states.append(psi.copy())


def evolve_b(a0, kappa, hessU_along_flow, T, dt):
    """(node times, the state at every node) of the phase-absorbed profile
    under `amplitude.b_potential`."""
    nodes = time_nodes(T, dt)
    potential = b_potential(a0.grid, kappa, node_table(hessU_along_flow, nodes))
    return nodes, run_nodes(split_step_nodes(a0.samples, a0.grid, nodes, potential,
                                             visit=range(nodes.size), label=B_LABEL))[1]


def packet_frame_potential(grid, epsilons, phi, U, trajectory, times):
    """The oracle of the epsilon rows of `rescaled._wave_potential`: the
    per-level closure it replaced, potential(j, density) for a column of
    epsilons, one row each, at node j of the node times `times`.

    It combines the mean-field term (1/eps) * conv(phi(sqrt(eps) r) - phi(0),
    |a|^2) with the external bracket
    (1/eps) * [U(q + sqrt(eps) mu) - U(q) - sqrt(eps) U'(q) mu].  U's
    addition form gives the bracket from tables: its remainders at
    sqrt(eps) mu over eps, and their coefficients at the step nodes; 1/eps
    rides in the kernels.  U without one (cubic_window) is evaluated at
    every step.
    """
    mu = grid.points
    root_eps = np.sqrt(epsilons)[:, None]
    inv_eps = 1.0 / epsilons[:, None]
    khat = np.stack([radial_kernel_rfft(lambda r, s=s: phi.shifted(s * r), grid)
                     for s in root_eps[:, 0]])
    if U.addition is None:
        qs = node_table(trajectory.qs_at, times)

        def potential(j, density):
            mean_field = apply_radial_rfft(khat, density, grid)
            q = qs[j]
            bracket = (np.asarray(U.value(q + root_eps * mu), dtype=np.float64)
                       - float(U.value(q)) - root_eps * float(U.grad(q)) * mu)
            return inv_eps * (mean_field + bracket)
    else:
        khat *= inv_eps
        remainders, coeffs = U.addition(root_eps * mu)
        remainders = (remainders * inv_eps).reshape(-1, epsilons.size * grid.n)
        table = node_table(lambda nodes: coeffs(trajectory.qs_at(nodes)), times)

        def potential(j, density):
            return (apply_radial_rfft(khat, density, grid)
                    + (table[j] @ remainders).reshape(density.shape))

    return potential


def packet_frame_history(a0, epsilon, phi, U, trajectory, T, dt, every=True):
    """(the state at every node, norm drift) of the packet-frame amplitude
    for one epsilon, a run of its own under `packet_frame_potential`.  With
    `every` false only the final node is visited, so the phases fuse
    between nodes as in a batch: the oracle of each epsilon row of
    `rescaled.evolve_wave`, whose state is then the only one returned."""
    nodes = time_nodes(T, dt)
    potential = packet_frame_potential(a0.grid, np.array([epsilon]), phi, U, trajectory, nodes)
    _, states, drift = run_nodes(split_step_nodes(
        a0.samples[None], a0.grid, nodes, potential,
        visit=range(nodes.size) if every else [nodes.size - 1], label=[f"eps={epsilon:g}"]))
    return states[:, 0], float(drift[0])


def reference_potential(psi0, dt, nodes, phi, U, row=None):
    """The oracle of `hartree._reference_potential`: the per-row closure it
    replaced.  potential(j, density) of the mean-field dynamics on `psi0`'s
    grid and eps at node j of `nodes`, rebuilt from |psi|^2 every step as
    `grids.mean_field` did for one grid (two density moments for the cosine
    pair, else the FFT convolution).  Its phase max|w|*dt is checked every
    step: above pi/2 a warning is issued (once), above pi the run aborts
    with `row`."""
    grid = psi0.grid
    if phi.separable is None:
        khat = radial_kernel_rfft(phi, grid)
        convolve = lambda density: apply_radial_rfft(khat, density, grid)  # noqa: E731
    else:
        f, g = (np.asarray(a, dtype=np.float64) for a in phi.separable(grid.points))
        f, moments = np.ascontiguousarray(f), np.ascontiguousarray(g.T * grid.dx)
        convolve = lambda density: (density @ moments) @ f  # noqa: E731
    u = np.asarray(U.value(grid.points), dtype=np.float64)
    inv_eps = 1.0 / psi0.frame.epsilon
    warned = [False]

    def potential(j, density):
        w = (convolve(density) + u) * inv_eps
        phase = dt * float(np.abs(w).max())
        if phase > np.pi:
            raise NumericalError(
                f"potential phase per step {phase:.3f} rad exceeds pi at "
                f"t={nodes[j]:.6g}; reduce dt", row=row)
        if phase > 0.5 * np.pi and not warned[0]:
            warnings.warn(
                f"potential phase per step {phase:.3f} rad exceeds pi/2; "
                "accuracy is degraded", RuntimeWarning)
            warned[0] = True
        return w
    return potential


def hartree_run(psi0, phi, U, T, dt, visit=()):
    """(node indices, states, norm drift) of the physical reference run from
    psi0 under `reference_potential`, at the node indices `visit` and the
    final node."""
    eps, nodes = psi0.frame.epsilon, time_nodes(T, dt)
    return run_nodes(split_step_nodes(psi0.samples, psi0.grid, nodes,
                                      reference_potential(psi0, dt, nodes, phi, U), eps,
                                      {*visit, nodes.size - 1}, f"hartree reference (eps={eps:g})"))


def stored_comparison(epsilon, config, level):
    """The oracle of `hartree.compare` for one pair: (times, errors, norm drift)
    as it was when the reference run stored its states at the nodes nearest
    the level's state times, and the final node, and compared them after
    the run."""
    psi0, dt, nodes, _ = _reference_start(epsilon, config, level)
    times = np.array([amp.t for amp in level.states])
    idx, states, drift = hartree_run(psi0, config.pair(), config.external(), config.T, dt,
                                     [int(np.argmin(np.abs(nodes - t))) for t in times])
    errors = []
    for amp in level.states:
        i = int(np.argmin(np.abs(nodes[idx] - amp.t)))
        assert abs(nodes[idx[i]] - amp.t) <= 1e-6
        errors.append(l2_distance(psi0.with_samples(states[i]), assemble_approximation(
            amp, level.trajectory.state_at(amp.t), epsilon, psi0.grid)))
    return times, np.array(errors), float(drift)


def pointwise_packet_frame_potential(grid, epsilons, phi, U, trajectory, times):
    """The oracle of `packet_frame_potential`: the closure as it was before U's addition form and the folded kernel transforms.  Every
    step evaluates U at q + sqrt(eps) mu and U, U' at q, and scales
    (plain kernel transform convolution * dx + bracket) by 1/eps."""
    mu = grid.points
    root_eps = np.sqrt(epsilons)[:, None]
    inv_eps = 1.0 / epsilons[:, None]
    r = radial_distances(grid)
    khat = np.stack([np.fft.rfft(phi.shifted(s * r)) for s in root_eps[:, 0]])
    qs = node_table(trajectory.qs_at, times)

    def potential(j, density):
        mean_field = np.fft.irfft(np.fft.rfft(density) * khat, grid.n) * grid.dx
        q = qs[j]
        bracket = (np.asarray(U.value(q + root_eps * mu), dtype=np.float64)
                   - float(U.value(q))
                   - root_eps * float(U.grad(q)) * mu)
        return inv_eps * (mean_field + bracket)

    return potential


def fourier_second_moment(psi) -> float:
    """Integral of k^2 |psihat(k)|^2 dk (the spectral spread)."""
    dk = 2.0 * np.pi / psi.grid.length
    return float(np.sum(psi.grid.wavenumbers ** 2 * np.abs(spectral_samples(psi)) ** 2) * dk)


def interp_samples(times, data, t: float) -> np.ndarray:
    """Samples at time t of the states `data` at the sorted `times`: the
    row at a node (or within 1e-12 of one), the first or last row outside
    the nodes, and otherwise the linear blend of the two bracketing rows."""
    if t <= times[0]:
        return data[0]
    if t >= times[-1]:
        return data[-1]
    j = int(np.searchsorted(times, t))
    left, right = times[j - 1], times[j]
    if abs(t - left) < 1e-12:
        return data[j - 1]
    if abs(t - right) < 1e-12:
        return data[j]
    w = (t - left) / (right - left)
    return (1.0 - w) * data[j - 1] + w * data[j]


def two_coupling_deposit(u, b, h, coupling, f):
    """The reference of `corrections._deposit`: the midpoint-rule Duhamel
    step -i*h*s added to u in place, s = coupling(u, b) + f refreshed by one
    fixed-point update of u, with the coupling evaluated before and after
    the update."""
    s = coupling(u, b) + f
    s = coupling(u - 0.5j * h * s, b) + f
    u -= 1j * h * s


def closed_form_deposit(u, b, h, coupling, f):
    """The oracle of `corrections._deposit`: `two_coupling_deposit` with the
    coupling evaluated once.  coupling(u, b) is a real multiple of b, which
    adds nothing to Re(conj(b) u) after the factor -0.5j*h, so the update
    reaches the coupling only through the forcing f."""
    u -= 1j * h * (coupling(u - 0.5j * h * f, b) + f)


def three_form_source(mu, dx, powers, half_kappa, quartic_coeff, w3, w4, b, a1):
    """The reference of the second order's u-free sources at a midpoint,
    where the external potential's cubic and quartic Taylor coefficients
    are w3 and w4: one moment form per weight, each evaluated on the grid,
    times b or a1."""
    dens0 = b.real ** 2 + b.imag ** 2
    dens1 = a1.real ** 2 + a1.imag ** 2
    cross01 = 2.0 * (b.real * a1.real + b.imag * a1.imag)
    s = w4 * powers[4] * b
    s = s + quartic_coeff * separation_power_form(mu, dens0, dx, 4, powers) * b
    s = s + half_kappa * separation_power_form(mu, dens1, dx, 2, powers) * b
    s = s + half_kappa * separation_power_form(mu, cross01, dx, 2, powers) * a1
    return s + w3 * powers[3] * a1


def correction_pass(b0, grid, nodes, steps, potential, coupling, forcing, visit, label,
                    b_mid=None, deposit=closed_form_deposit):
    """The oracle of the correction loop in `corrections.evolve_corrections`:
    one correction pass as a generator of (node index, state) at the node
    indices in `visit`.  It evolves the (2, n) batch of b and one correction
    u from (b0, 0) under potential(i, |b|^2) at node index i, or, given
    b_mid(j) (b at the midpoint of dt step j), u alone from 0 under
    potential(i, _).  At that midpoint, before any visit, `deposit` adds
    -i*h*s to u: s is coupling(u, b), linear in u and refreshed by one
    fixed-point update of u, plus the u-free forcing(j, b), evaluated once
    per step.  The state is the engine's buffer: copy what you keep."""
    if b_mid is None:
        psi0, labels = np.stack([b0, np.zeros_like(b0)]), [B_LABEL, label]
        v = lambda i, density: potential(i, density[0])
    else:
        psi0, labels, v = np.zeros_like(b0), label, potential
    visit = set(visit)
    for i, psi in split_step_nodes(psi0, grid, nodes, v, 1.0,
                                   visit.union(range(1, nodes.size, 2)), labels):
        if i % 2:
            j = i // 2
            b, u = (psi[0], psi[1]) if b_mid is None else (b_mid(j), psi)
            deposit(u, b, steps[j], coupling, forcing(j, b))
        if i in visit:
            yield i, psi


def correction_drive(a0, phi, U, traj, T, dt, keep):
    """What `corrections.evolve_corrections` builds for its passes: the
    interleaved `nodes`, the dt `steps`, the indices `store_idx` in `nodes`
    of the dt node indices `keep` and of the final node, b's `potential`,
    the term `coupling(u, b)` linear in a correction, and the u-free
    sources `first(j, b)` and `second(j, b, a1)` at the midpoint of dt
    step j: `second` from one moment-form call on the stack of |b|^2,
    |a1|^2 and 2 Re(conj(b) a1), whose coefficients fold into one
    polynomial times b and one times a1, and `three_form_second` its
    reference, `three_form_source`."""
    grid = a0.grid
    mu, dx = grid.points, grid.dx
    half_kappa = 0.5 * phi.second_deriv_at_0
    quartic_coeff = phi.fourth_deriv_at_0 / 24.0
    coarse, steps, nodes = _interleaved_nodes(T, dt)
    mids = nodes[1::2]
    q = traj.qs_at(mids)
    w3, w4 = U.third(q) / 6.0, U.fourth(q) / 24.0
    powers = np.vander(mu, 5, True).T.copy()

    def coupling(u, b):
        cross = 2.0 * (b.real * u.real + b.imag * u.imag)
        return half_kappa * separation_power_form(mu, cross, dx, 2, powers) * b

    scale = np.array([[quartic_coeff], [half_kappa], [half_kappa]])

    def second(j, b, a1):
        weights = np.array([b.real ** 2 + b.imag ** 2, a1.real ** 2 + a1.imag ** 2,
                            2.0 * (b.real * a1.real + b.imag * a1.imag)])
        coeffs = scale * separation_power_form(mu, weights, dx, (4, 2, 2), powers)
        on_b, on_a1 = coeffs[0] + coeffs[1], coeffs[2]
        on_b[4] += w4[j]
        on_a1[3] += w3[j]
        return (on_b @ powers) * b + (on_a1 @ powers) * a1

    def three_form_second(j, b, a1):
        return three_form_source(mu, dx, powers, half_kappa, quartic_coeff, w3[j], w4[j], b, a1)

    return SimpleNamespace(
        nodes=nodes, steps=steps, mids=mids,
        store_idx=2 * np.array(sorted({*keep, coarse.size - 1})),
        potential=b_potential(grid, phi.second_deriv_at_0,
                              node_table(hessian_along_flow(traj, U), nodes)),
        coupling=coupling, first=lambda j, b: w3[j] * powers[3] * b, second=second,
        three_form_second=three_form_second)


def stored_corrections(a0, phi, U, traj, T, dt, K, keep=(), reference=False):
    """The oracle of `corrections.evolve_corrections`: its loop as it was
    when it stored the orders at the dt node indices `keep` and the final
    node.  Returns (stored times, orders), one (stored nodes, n) array per
    order, b first.  The first
    pass visits every node at K = 2 and the stored nodes and the midpoints
    otherwise, and the second pass the stored nodes and the midpoints.
    With `reference`, the deposits are `two_coupling_deposit` and the
    second order's sources `three_form_source`, the arithmetic that the
    closed forms replaced."""
    d = correction_drive(a0, phi, U, traj, T, dt, keep)
    deposit, second = ((two_coupling_deposit, d.three_form_second) if reference
                       else (closed_form_deposit, d.second))
    grid, nodes = a0.grid, d.nodes
    if K == 0:
        idx, data, _ = run_nodes(split_step_nodes(a0.samples, grid, nodes, d.potential,
                                                  visit=d.store_idx, label=B_LABEL))
        return nodes[idx], (data,)
    stored = set(d.store_idx.tolist())
    visit = stored.union(range(1, nodes.size, 2))
    vs = deque()  # K = 2: b's potential at the nodes the second pass is yet to reach

    def recorded(i, density):
        vs.append(d.potential(i, density))
        return vs[-1]

    v1 = recorded if K == 2 else d.potential
    pass1 = split_step_nodes(np.stack([a0.samples, np.zeros_like(a0.samples)]), grid, nodes,
                             lambda i, density: v1(i, density[0]), 1.0,
                             range(nodes.size) if K == 2 else visit,
                             [B_LABEL, "first correction"])
    pass2 = split_step_nodes(np.zeros_like(a0.samples), grid, nodes, lambda t, _: vs.popleft(),
                             1.0, visit, "second correction")
    rows, rows2 = [], []  # (b, a1) and a2 at the stored nodes
    for i, psi in pass1:
        j = i // 2
        if i % 2:  # the midpoint of dt step j
            deposit(psi[1], psi[0], d.steps[j], d.coupling, d.first(j, psi[0]))
            b_mid = psi[0].copy()
            continue
        if i in stored:
            rows.append(psi.copy())
        if K == 2 and i:  # the second pass on to the midpoint of dt step j - 1
            for k, a2 in pass2:
                if k % 2:
                    break
                rows2.append(a2.copy())
            w = (nodes[i - 1] - nodes[i - 2]) / (nodes[i] - nodes[i - 2])
            a1 = (1.0 - w) * a1_prev + w * psi[1]
            deposit(a2, b_mid, d.steps[j - 1], d.coupling, second(j - 1, b_mid, a1))
        a1_prev = psi[1].copy()
    orders = list(np.array(rows).swapaxes(0, 1))
    if K == 2:
        orders.append(np.array(rows2 + [a2.copy() for _, a2 in pass2]))
    return nodes[d.store_idx], tuple(orders)


def own_b_corrections(a0, phi, U, traj, T, dt, keep):
    """(stored times, (b, a1, a2)) of `evolve_corrections(K=2)` by the path
    in which the second pass evolves its own b: the first pass stored at
    every dt node, then the second correction as row 1 of a (2, n) batch
    whose row 0 is b again, reading the first correction at each midpoint
    through `interp_samples`.  This second b fuses its phases at the dt
    nodes it does not store, so it differs from the first pass's b at
    roundoff."""
    d = correction_drive(a0, phi, U, traj, T, dt, keep)

    def run(forcing, visit, label):
        return np.array([psi.copy() for _, psi in correction_pass(
            a0.samples, a0.grid, d.nodes, d.steps, d.potential, d.coupling, forcing, visit,
            label)])

    evens = np.arange(0, d.nodes.size, 2)
    data1 = run(d.first, evens, "first correction")
    data2 = run(lambda j, b: d.second(j, b, interp_samples(d.nodes[evens], data1[:, 1], d.mids[j])),
                d.store_idx,
                "second correction")
    return d.nodes[d.store_idx], (data2[:, 0], data1[d.store_idx // 2, 1], data2[:, 1])


def phase_increments(kappa: float, moments: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The nonlinear phase gained over each step between `times`: trapezoid
    quadrature of -(kappa/2) * (second moment) on the step's two nodes."""
    return -0.5 * kappa * 0.5 * (moments[:-1] + moments[1:]) * np.diff(times)


def gamma_step(beta_prev, beta_next, kappa: float, dt: float, previous: float) -> float:
    """Advance the nonlinear phase across one step of length dt."""
    moments = np.array([abs_moment(beta_prev, 1), abs_moment(beta_next, 1)])
    return previous + float(phase_increments(kappa, moments, np.array([0.0, dt]))[0])


def exp_split_step_nodes(samples0, grid, times, potential, kinetic_scale=1.0,
                         visit=(), label="evolution"):
    """The oracle of `_stepping.split_step_nodes`: its step loop as it was
    before the engine kept a kinetic table per step length and took the
    half phases by cos/sin.  It rebuilds the kinetic table whenever the
    step length changes, takes every half phase by a complex `exp` and
    squares the density into new arrays; the same signature, yields and
    return value.  Its norms come from the engine's per-row product
    `density @ weights`, so that the drift, too, equals the engine's bit
    for bit."""
    visit = {int(j) for j in visit} | {times.size - 1}
    psi = np.array(samples0, dtype=np.complex128)
    batched = psi.ndim == 2
    labels = [label] if isinstance(label, str) else list(label)
    if batched and len(labels) != psi.shape[0]:
        raise ValueError("a batch needs one label per row")
    dx = grid.dx
    k2 = grid.wavenumbers ** 2
    total = np.add.reduce
    hat = np.empty_like(psi)
    weights = np.zeros((grid.n, 2))
    weights[:, 0] = weights[:GUARD_CELLS, 1] = weights[-GUARD_CELLS:, 1] = dx

    def norm(density):
        return np.sqrt(np.matmul(density[..., None, :], weights)[..., 0, 0])

    def check(t, density, nrm, v):
        bm = boundary_mass(density, grid, GUARD_CELLS, is_density=True)
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
        raise NumericalError(f"{labels[row]}: boundary mass {bm[row]:.3e} at t={t:.6g} "
                             f"exceeds guard {GUARD_MASS:.1e}", **where)

    density = psi.real ** 2 + psi.imag ** 2
    norm0 = norm(density)
    drift = np.zeros_like(norm0)
    check(0.0, density, norm0, 0.0)
    if 0 in visit:
        yield 0, psi
        density = psi.real ** 2 + psi.imag ** 2
    last = times.size - 1
    steps = np.append(np.diff(times), 0.0)
    v = potential(0, density)
    half = np.empty(np.shape(v), dtype=np.complex128)
    np.multiply(-0.5j * steps[0], v, out=half)
    psi *= np.exp(half, out=half)
    for j in range(last):
        h, h_next = steps[j], steps[j + 1]
        if j == 0 or h != steps[j - 1]:
            kin = np.exp(-0.5j * h * kinetic_scale * k2)
        np.fft.fft(psi, out=hat)
        hat *= kin
        np.fft.ifft(hat, out=psi)
        density = psi.real ** 2 + psi.imag ** 2
        nrm = norm(density)
        v = potential(j + 1, density)
        visited = j + 1 in visit
        apart = visited or j + 1 == last
        np.multiply(-0.5j * (h if apart else h + h_next), v, out=half)
        np.exp(half, out=half)
        psi *= half

        check(times[j + 1], density, nrm, v)
        drift = np.maximum(drift, np.abs(nrm - norm0))
        if visited:
            yield j + 1, psi
        if apart and h_next:
            psi *= half if h_next == h else np.exp(-0.5j * h_next * v)
    return drift
