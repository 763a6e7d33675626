"""The reference potential's phase bound.  `hartree._phase_bounds` gives,
per reference run, 2 dt (Phi N0 + max|u|) / eps, twice a bound on the
phase max|w|*dt of every step; a batch scans w each step only while a row
whose bound exceeds pi/2 is held.

Property test: over random pairs, external potentials, eps, steps and
grids, every step's phase stays within the bound (within pi/2 whenever the
scan is skipped), and the reference potential's warnings and abort equal
those of its per-row oracle (`helpers.reference_potential`), which scans
every step."""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from semihartree._stepping import split_step_nodes, time_nodes  # noqa: E402
from semihartree.config import ExperimentConfig  # noqa: E402
from semihartree.errors import NumericalError  # noqa: E402
from semihartree.grids import make_grid  # noqa: E402
from semihartree.hartree import (  # noqa: E402
    _phase_bounds,
    _reference_potential,
    _reference_start,
    build_coherent_state,
    physical_level,
)
from semihartree.potentials import (  # noqa: E402
    EXTERNAL_NAMES,
    PAIR_NAMES,
    builtin_external,
    builtin_pair,
)

from helpers import reference_potential, run_nodes  # noqa: E402

A0 = ExperimentConfig().initial_profile()


def verdicts(run):
    """(warning messages, error message or None) of a run to its end."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run_nodes(run)
            error = None
        except NumericalError as exc:
            error = str(exc)
    return [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)], error


@settings(max_examples=60)
@given(pair=st.sampled_from(PAIR_NAMES), external=st.sampled_from(EXTERNAL_NAMES),
       eps=st.floats(0.04, 0.32), dt=st.floats(1e-3, 0.2), n=st.sampled_from([256, 512]),
       fill=st.floats(0.0, 0.99), p=st.floats(-1.0, 1.0))
def test_every_step_stays_within_the_bound(pair, external, eps, dt, n, fill, p):
    # the window runs from 6 sqrt(eps) to the widest whose dx resolves the carrier
    phi = builtin_pair(pair, (0.5, -1.0) if pair == "quadratic" else ())
    U = builtin_external(external)
    widest = np.pi * eps * n / 8.0
    half = 6.0 * np.sqrt(eps) + fill * (widest - 6.0 * np.sqrt(eps))
    grid = make_grid(n, -half, half)
    psi0 = build_coherent_state(A0, 0.0, p, eps, grid)
    nodes = time_nodes(8 * dt, dt)
    runs = [(psi0, dt, nodes)]
    [bound] = _phase_bounds(runs, phi, [np.asarray(U.value(grid.points), dtype=np.float64)])
    free = reference_potential(psi0, 0.0, nodes, phi, U)  # dt 0: w unchecked
    phases = []

    def recorded(j, density):
        w = free(j, density)
        phases.append(dt * float(np.abs(w).max()))
        return w

    try:
        run_nodes(split_step_nodes(psi0.samples, grid, nodes, recorded, eps))
    except NumericalError:  # the guard: the steps before it still count
        pass
    assert max(phases) <= bound
    hypothesis.event("scan" if bound > 0.5 * np.pi else "skip")
    if bound <= 0.5 * np.pi:  # the scan is skipped
        assert max(phases) <= 0.5 * np.pi
    label = f"hartree reference (eps={eps:g})"
    alone = verdicts(split_step_nodes(psi0.samples, grid, nodes,
                                      reference_potential(psi0, dt, nodes, phi, U), eps,
                                      label=label))
    batch = verdicts(split_step_nodes([psi0.samples], [grid], [nodes],
                                      _reference_potential(runs, phi, U), [eps], label=[label]))
    assert batch == alone


def test_default_rows_skip_the_scan():
    # the default physical sweep's rows: the largest bound is 0.06 rad
    # (eps 0.02, level 1), far below pi/2
    cfg = ExperimentConfig(mode="physical")
    U = cfg.external()
    for refine in (1, 2):
        level = physical_level(cfg, refine)
        runs = [_reference_start(eps, cfg, level) for eps in cfg.eps_list]
        bounds = _phase_bounds(runs, cfg.pair(), [U.value(p.grid.points) for p, *_ in runs])
        assert max(bounds) <= 0.07 / refine
