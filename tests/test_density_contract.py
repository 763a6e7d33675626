"""The engine's density contract, the separable mean field and the lean
profile history.

Property tests: a batch evolves as its rows run alone, a guard failure
included; the two-moment cosine mean field equals the FFT convolution
wherever the periodic distance is the true one, and on a doubled window it
is the whole-line convolution.  The reference solver with a cosine or zero
pair makes no FFT convolution.
"""

import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import semihartree.grids as grids  # noqa: E402
import semihartree.hartree as hartree  # noqa: E402
from semihartree._stepping import split_step_nodes, time_nodes  # noqa: E402
from semihartree.amplitude import evolve_beta  # noqa: E402
from semihartree.config import ExperimentConfig  # noqa: E402
from semihartree.errors import NumericalError  # noqa: E402
from semihartree.grids import abs_moment, gaussian_profile, make_grid, mean_field  # noqa: E402
from semihartree.potentials import builtin_external, builtin_pair  # noqa: E402

from helpers import run_nodes, shared_rows  # noqa: E402

COSINE = builtin_pair("cosine")
GRID = make_grid(64, -8.0, 8.0)
T = 0.3


def self_consistent(c, separable, nodes):
    """Mean field from the density plus a well moving over the node times
    `nodes`; `c` is a scalar for one state or an (m, 1) column for a batch."""
    convolve = mean_field(COSINE, [GRID] * 4, COSINE.separable if separable else None)
    x2 = GRID.points ** 2
    return lambda j, density: (c * convolve(np.atleast_2d(density)) + (1.0 + nodes[j]) * x2
                               ).reshape(density.shape)


def failure_time(exc):
    return float(re.search(r"at t=(\S+)", str(exc)).group(1))


# fast rows (|k| near 15) reach the guard band before T, slow ones do not
packets = st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 1.5),
                    st.floats(-15.0, 15.0), st.floats(-2.0, 2.0))


@settings(max_examples=40)
@given(rows=st.lists(packets, min_size=1, max_size=4),
       dt=st.sampled_from([0.01, 0.025, 0.07]),
       store=st.sampled_from([None, [], [1, 3]]),
       separable=st.booleans())
def test_batch_equals_serial_rows(rows, dt, store, separable):
    samples = np.stack([gaussian_profile(GRID, center=c, width=w, wavenumber=k).samples
                        for c, w, k, _ in rows])
    coeffs = np.array([r[3] for r in rows])
    labels = [f"row {i}" for i in range(len(rows))]
    nodes = time_nodes(T, dt)
    visit = range(nodes.size) if store is None else store + [nodes.size - 1]
    run = lambda psi0, c, label: run_nodes(shared_rows(  # noqa: E731
        psi0, GRID, nodes, self_consistent(c, separable, nodes), 1.0, visit, label))
    serial = []  # each row a one-row batch, its row taken out
    for i in range(len(rows)):
        try:
            single_idx, single, single_drift = run(samples[i:i + 1], coeffs[i], labels[i:i + 1])
            serial.append((single_idx, single[:, 0], single_drift[0]))
        except NumericalError as exc:
            assert exc.row == 0
            serial.append(exc)
    run_batch = lambda: run(samples, coeffs[:, None], labels)  # noqa: E731

    failed = [i for i, s in enumerate(serial) if isinstance(s, NumericalError)]
    if failed:
        # the batch stops at the earliest failing node, naming its lowest row
        first = min(failed, key=lambda i: (failure_time(serial[i]), i))
        with pytest.raises(NumericalError) as err:
            run_batch()
        assert err.value.row == first
        assert str(err.value) == str(serial[first])
        return
    idx, data, drift = run_batch()
    assert data.shape == (idx.size, len(rows), GRID.n)
    for i, (single_idx, single, single_drift) in enumerate(serial):
        assert np.array_equal(idx, single_idx)
        scale = np.max(np.abs(single))
        assert np.max(np.abs(data[:, i] - single)) <= 1e-12 * scale
        assert abs(drift[i] - single_drift) <= 1e-12


bumps = st.lists(st.tuples(st.floats(-0.125, 0.125), st.floats(0.002, 0.0125),
                           st.floats(0.1, 2.0)), min_size=1, max_size=3)


@given(bumps=bumps, n=st.sampled_from([128, 256, 512]), half=st.floats(4.0, 40.0))
def test_cosine_moments_equal_fft_inside_window(bumps, n, half):
    # bumps sit within L/8 of the centre with widths up to L/80, so their
    # mass beyond L/4 is below 1e-21; at |x| <= L/4 every pair with
    # density is then closer than L/2, where the periodic distance is the
    # true one, and the two forms agree up to roundoff
    grid = make_grid(n, -half, half)
    x, length = grid.points, grid.length
    density = sum(a * np.exp(-0.5 * ((x - c * length) / (s * length)) ** 2)
                  for c, s, a in bumps)
    [moments] = mean_field(COSINE, [grid], COSINE.separable)(density[None])
    [fft] = mean_field(COSINE, [grid])(density[None])
    inner = np.abs(x) <= 0.25 * length
    mass = np.sum(density) * grid.dx
    assert np.max(np.abs(moments - fft)[inner]) <= 1e-12 * mass


def test_cosine_moments_are_the_whole_line_convolution():
    # on a doubled window with the same spacing, no two points of the
    # original window are L/2 apart, so its FFT is the whole-line sum
    grid, wide = make_grid(512, -16.0, 16.0), make_grid(1024, -32.0, 32.0)
    density = np.random.default_rng(7).uniform(0.0, 1.0, grid.n)
    padded = np.zeros(wide.n)
    padded[256:768] = density
    whole_line = mean_field(COSINE, [wide])(padded[None])[0, 256:768]
    [moments] = mean_field(COSINE, [grid], COSINE.separable)(density[None])
    assert np.array_equal(wide.points[256:768], grid.points)
    assert np.max(np.abs(moments - whole_line)) <= 1e-13 * np.max(np.abs(whole_line))
    # a batch of densities gives one row each
    batch = mean_field(COSINE, [grid, grid], COSINE.separable)(np.stack([density, 2 * density]))
    assert np.max(np.abs(batch - [moments, 2 * moments])) <= 1e-13 * np.max(np.abs(batch))
    # each row on its own grid: a density
    # that vanishes near the edges, on the grid and on a window shifted by
    # 64 cells, gives one field at the points the two share; each row
    # equals, bit for bit, its own call
    compact = np.where(np.abs(grid.points) < 12.0, density, 0.0)
    shifted = make_grid(512, -20.0, 12.0)
    batch = mean_field(COSINE, [grid, shifted], COSINE.separable)(
        np.stack([compact, np.roll(compact, 64)]))
    assert np.max(np.abs(batch[1, 64:] - batch[0, :-64])) <= 1e-13 * np.max(np.abs(batch))
    assert batch[0].tobytes() == mean_field(COSINE, [grid], COSINE.separable)(
        compact[None])[0].tobytes()


def test_zero_pair_has_rank_zero():
    zero = builtin_pair("zero")
    f, g = zero.separable(GRID.points)
    assert f.shape == g.shape == (0, GRID.n)
    out = mean_field(zero, [GRID] * 3, zero.separable)(np.ones((3, GRID.n)))
    assert out.shape == (3, GRID.n) and not out.any()


@pytest.mark.parametrize("name, convolutions", [("cosine", 0), ("zero", 0), ("gaussian", 11)])
def test_reference_solver_convolves_by_fft_only_without_a_form(monkeypatch, name, convolutions):
    calls = []
    real = grids.apply_radial_rfft

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(grids, "apply_radial_rfft", counted)
    monkeypatch.setattr(hartree, "apply_radial_rfft", counted, raising=False)
    eps = 0.32
    grid = make_grid(512, -4.0, 4.0)
    psi0 = hartree.build_coherent_state(gaussian_profile(make_grid(512, -16.0, 16.0)),
                                        0.0, 1.0, eps, grid)
    nodes = time_nodes(0.01, 1e-3)
    run_nodes(split_step_nodes([psi0.samples], [grid], [nodes], hartree._reference_potential(
        [(psi0, 1e-3, nodes)], builtin_pair(name), builtin_external("cosine")), [eps], [()],
        ["evolution"]))
    assert len(calls) == convolutions  # one per step and one at t = 0


def test_profile_history_is_a_lazy_read_only_sequence(gauss):
    history = evolve_beta(gauss, -1.0, 0.0, 0.01, 1e-3, range(11))
    assert len(history) == 11 and len(list(history)) == 11
    assert not history.data.flags.writeable
    assert history[-1].t == pytest.approx(0.01)
    assert [s.t for s in history[2:5]] == pytest.approx([0.002, 0.003, 0.004])
    assert np.shares_memory(history[3].beta.samples, history.data)
    expected = [abs_moment(s.beta, 1) for s in history]
    assert np.allclose(history.second_moments, expected, rtol=1e-14, atol=0)


def test_sparse_history_keeps_its_rows_and_every_spread(gauss):
    full = evolve_beta(gauss, -1.0, 0.0, 0.01, 1e-3, range(11))
    sparse = evolve_beta(gauss, -1.0, 0.0, 0.01, 1e-3, [4])
    assert np.array_equal(sparse.times, full.times[[4, 10]])
    assert np.array_equal(sparse.data, full.data[[4, 10]])
    assert np.array_equal(sparse.gammas, full.gammas[[4, 10]])
    assert np.array_equal(sparse.second_moments, full.second_moments)
    assert np.array_equal(sparse.spectral_spreads, full.spectral_spreads)
    assert sparse.second_moments.size == 11


def test_level_states_view_only_the_compared_rows():
    # the states are views of the profile run's stored rows, which hold the
    # compared nodes and nothing else, so the level keeps no other node
    config = ExperimentConfig(mode="physical", T=0.05, eps_list=(0.32,))
    level = hartree.physical_level(config, refine=1, trace_points=3)
    assert len(level.states) == 3
    base = level.states[0].beta.samples.base
    assert base.shape == (3, config.mu_n)
    assert all(s.beta.samples.base is base for s in level.states)
