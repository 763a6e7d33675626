"""Every sweep gates its eps in waves of (eps, level) pairs, levels 1 and 2
of every eps first, each level built in the first wave that needs it (the
packet-frame modes evolve every level of a wave, with its profile b at
K = 0, as one ragged batch); these tests hold it to the results of
evaluating the eps one at a time."""

import time

import numpy as np
import pytest

import semihartree.cli as cli
import semihartree.rescaled as rescaled
import semihartree.sweep as sweep_module
from semihartree.classical import integrate_flow
from semihartree.config import ExperimentConfig
from semihartree.errors import NumericalError
from semihartree.rescaled import evolve_wave
from semihartree.sweep import SweepError, run_sweep

from helpers import packet_frame_history

SMALL = ExperimentConfig(mode="rescaled", T=0.5, eps_list=(0.32, 0.16, 0.08))


def test_batched_finals_equal_single_runs():
    # tolerance 0 against a run of its own that visits the final node only;
    # 1e-12 of the largest sample against one that visits every node, so
    # that no two half phases fuse
    cfg = SMALL
    a0, phi, U = cfg.initial_profile(), cfg.pair(), cfg.external()
    trajectory = integrate_flow(cfg.q0, cfg.p0, U, phi.value_at_0, cfg.T, 1e-3)
    finals = evolve_wave(a0, phi, U, cfg.T, [(trajectory, 1e-3, cfg.eps_list)], False)
    for eps, final in zip(cfg.eps_list, finals):
        [alone], _ = packet_frame_history(a0, eps, phi, U, trajectory, cfg.T, 1e-3, every=False)
        assert final.samples.tobytes() == alone.tobytes()
        single = packet_frame_history(a0, eps, phi, U, trajectory, cfg.T, 1e-3)[0][-1]
        scale = np.max(np.abs(single))
        assert np.max(np.abs(final.samples - single)) <= 1e-12 * scale


def row_names(nodes, epsilons):
    """The names `poison` knows each row of a group of the wave by: the
    profile row of level r is "b" and ("b", r), on its dt/2 nodes; an eps
    row is eps and (eps, r), on its dt nodes."""
    if epsilons is None:
        return [["b", ("b", round(SMALL.mu_dt() / (2 * nodes[1])))]]
    return [[float(e), (float(e), round(SMALL.mu_dt() / nodes[1]))] for e in epsilons]


def poison(monkeypatch, onset):
    """Make the potential of each row that `onset` names (see `row_names`)
    non-finite from that time on, so the engine's guard stops exactly that
    row."""
    real = rescaled._wave_potential

    def poisoned(grid, phi, U, groups):
        potential = real(grid, phi, U, groups)
        rows = [(nodes, min(onset.get(name, np.inf) for name in names))
                for _, nodes, epsilons in groups for names in row_names(nodes, epsilons)]

        def wrapped(j, density):
            v = potential(j, density)
            v[[r for r, (nodes, start) in enumerate(rows[:len(density)]) if nodes[j] >= start]] \
                = np.nan
            return v
        return wrapped

    monkeypatch.setattr(rescaled, "_wave_potential", poisoned)


def one_at_a_time(config):
    """(rows, failed eps, message) from single-eps sweeps run in
    list order, stopping at the first failure."""
    rows = []
    for eps in config.eps_list:
        single = ExperimentConfig(mode=config.mode, T=config.T, eps_list=(eps,))
        try:
            rows.extend(run_sweep(single).rows)
        except SweepError as exc:
            return rows, eps, str(exc)
    return rows, None, None


@pytest.mark.parametrize("onset", [
    {0.16: 0.25},               # the middle eps fails
    {0.16: 0.3, 0.08: 0.1},     # a later eps fails first in time
])
def test_failure_matches_one_at_a_time(monkeypatch, onset):
    poison(monkeypatch, onset)
    rows, failed_eps, message = one_at_a_time(SMALL)
    assert failed_eps == 0.16
    with pytest.raises(SweepError) as err:
        run_sweep(SMALL)
    assert err.value.failed_eps == failed_eps
    assert str(err.value) == message
    assert "rescaled amplitude (eps=0.16): non-finite samples" in message
    assert [r.epsilon for r in err.value.report.rows] == [0.32]
    assert [(r.error, r.dt_used, r.n_used) for r in err.value.report.rows] \
        == [(r.error, r.dt_used, r.n_used) for r in rows]


def test_failure_at_second_level_only(monkeypatch):
    # poison 0.16 only on the finer level: level 1 succeeds for every eps,
    # then level 2 drops the level-2 pair of 0.16 and both pairs of 0.08,
    # and the wave reruns with the pairs of 0.32 and the level-1 pair of 0.16
    real = rescaled._wave_potential

    def poisoned(grid, phi, U, groups):
        potential = real(grid, phi, U, groups)
        rows = [(nodes, eps is not None and e == 0.16 and nodes[1] < 1e-3 - 1e-12)
                for _, nodes, eps in groups for e in ([None] if eps is None else eps)]

        def wrapped(j, samples):
            v = potential(j, samples)
            v[[r for r, (nodes, bad) in enumerate(rows[:len(samples)]) if bad and nodes[j] > 0.2]] \
                = np.nan
            return v
        return wrapped

    monkeypatch.setattr(rescaled, "_wave_potential", poisoned)
    rows, failed_eps, message = one_at_a_time(SMALL)
    with pytest.raises(SweepError) as err:
        run_sweep(SMALL)
    assert failed_eps == 0.16
    assert (err.value.failed_eps, str(err.value)) == (failed_eps, message)
    assert [r.error for r in err.value.report.rows] == [r.error for r in rows]


def test_profile_failure_at_level_1_fails_the_wave_at_its_first_pair(monkeypatch, tmp_path):
    # b of level 1 fails as a failing level build does: the sweep ends at
    # the first eps with no rows and the numerical exit code
    poison(monkeypatch, {("b", 1): 0.25})
    rows, failed_eps, message = one_at_a_time(SMALL)
    with pytest.raises(SweepError) as err:
        run_sweep(SMALL)
    assert (err.value.failed_eps, str(err.value)) == (failed_eps, message) == (
        0.32, "sweep aborted at eps=0.32: phase-absorbed profile evolution: "
              "non-finite samples at t=0.25")
    assert err.value.report.rows == () and rows == []
    config = tmp_path / "small.json"
    config.write_text('{"T": 0.5}')
    assert cli.main(["sweep", "--mode", "rescaled", "--eps", "0.32,0.16,0.08", "--config",
                     str(config), "--quiet"]) == cli.EXIT_NUMERICAL


def test_profile_failure_at_level_4_matches_one_at_a_time(monkeypatch):
    # no eps settles, so every eps needs level 4, whose b fails: the second
    # wave ends at its first pair, as the failing level-4 build did
    poison(monkeypatch, {("b", 4): 0.1})
    monkeypatch.setattr(sweep_module, "_settled", lambda err_prev, err: False)
    err = assert_failure_matches_one_at_a_time(SMALL)
    assert err.failed_eps == 0.32
    assert str(err) == ("sweep aborted at eps=0.32: phase-absorbed profile evolution: "
                        "non-finite samples at t=0.1")
    assert err.report.rows == ()


def test_profile_and_eps_failures_together_match_one_at_a_time(monkeypatch):
    # b of every level fails from t = 0.1 on and eps 0.32 from t = 0.15 on:
    # the eps row of level 1 reaches its onset first in node count (node
    # 150, where b of level 1 is at node 300), and its failure ends the
    # sweep at the wave's first pair, as one eps at a time does
    poison(monkeypatch, {"b": 0.1, 0.32: 0.15})
    err = assert_failure_matches_one_at_a_time(SMALL)
    assert err.failed_eps == 0.32
    assert str(err) == ("sweep aborted at eps=0.32: rescaled amplitude (eps=0.32): "
                        "non-finite samples at t=0.15")
    assert err.report.rows == ()


def small_cli(tmp_path, capsys, *flags):
    """(exit code, stderr lines) of the CLI sweep of SMALL."""
    config = tmp_path / "small.json"
    config.write_text('{"T": 0.5}')
    code = cli.main(["sweep", "--mode", "rescaled", "--eps", "0.32,0.16,0.08", "--config",
                     str(config), *flags])
    return code, capsys.readouterr().err.splitlines()


def test_progress_lines_in_list_order(monkeypatch, tmp_path, capsys):
    # one stderr line per row, in list order, printed from the report (none
    # under --quiet); on a partial report the rows it holds come before the
    # error line
    report = run_sweep(SMALL)
    code, lines = small_cli(tmp_path, capsys)
    assert code == cli.EXIT_OK
    assert lines == [f"eps={r.epsilon:<8g} error={r.error:.6e} dt={r.dt_used:g}"
                     for r in report.rows]
    assert [line.split()[0] for line in lines] == ["eps=0.32", "eps=0.16", "eps=0.08"]
    assert small_cli(tmp_path, capsys, "--quiet") == (cli.EXIT_OK, [])
    poison(monkeypatch, {0.16: 0.25})
    code, partial = small_cli(tmp_path, capsys)
    assert code == cli.EXIT_NUMERICAL
    assert partial[:-1] == lines[:1]
    assert partial[-1].startswith("error: sweep aborted at eps=0.16: ")


@pytest.mark.parametrize("mode", ["rescaled", "physical", "corrections-1", "corrections-2"])
def test_narrow_window_fails_alike_in_every_mode(mode, tmp_path, capsys):
    # the profile trips the boundary guard at t = 0 in every mode's level-1
    # build or wave: one message, at the mode's first eps, with no rows
    config = ExperimentConfig(mode=mode, mu_n=128, mu_halfwidth=4.0)
    first = config.eps_list[0]
    with pytest.raises(SweepError) as err:
        run_sweep(config)
    assert err.value.failed_eps == first and err.value.report.rows == ()
    assert str(err.value).startswith(f"sweep aborted at eps={first:g}: ")
    assert "boundary mass" in str(err.value) and "at t=0 exceeds guard" in str(err.value)
    path = tmp_path / "narrow.json"
    path.write_text('{"grid": {"mu_n": 128, "mu_halfwidth": 4}}')
    assert cli.main(["sweep", "--mode", mode, "--config", str(path)]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_first_level_builds_count_in_wall_ms(monkeypatch):
    # levels 1 and 2 are built in the first wave, on its clock: a second's
    # sleep in each build shows in the rows' wall_ms
    real = sweep_module._build_level

    def slow(config, refine):
        if refine in (1, 2):
            time.sleep(1.0)
        return real(config, refine)

    monkeypatch.setattr(sweep_module, "_build_level", slow)
    report = run_sweep(SMALL)
    assert sum(r.wall_ms for r in report.rows) >= 2000.0



PHYSICAL = ExperimentConfig(mode="physical", T=0.25, eps_list=(0.32, 0.16, 0.08))


def assert_failure_matches_one_at_a_time(config):
    rows, failed_eps, message = one_at_a_time(config)
    assert failed_eps is not None
    with pytest.raises(SweepError) as err:
        run_sweep(config)
    assert (err.value.failed_eps, str(err.value)) == (failed_eps, message)
    assert [(r.epsilon, r.error, r.dt_used, r.n_used) for r in err.value.report.rows] \
        == [(r.epsilon, r.error, r.dt_used, r.n_used) for r in rows]
    return err.value


def poison_comparisons(monkeypatch, min_refine, name):
    """Make every comparison of eps 0.16 at refine `min_refine` or deeper
    fail; the error names the pair `name` picks from those, with `row` its
    index in the call."""
    real = sweep_module.compare

    def poisoned(pairs, config):
        bad = [p for p, (eps, level) in enumerate(pairs)
               if eps == 0.16 and level.refine >= min_refine]
        if bad:
            p = name(bad, pairs)
            raise NumericalError(f"poisoned comparison at refine {pairs[p][1].refine}", row=p)
        return real(pairs, config)

    monkeypatch.setattr(sweep_module, "compare", poisoned)


@pytest.mark.parametrize("min_refine", [1, 2])
def test_physical_failure_matches_one_at_a_time(monkeypatch, min_refine):
    # the comparison of eps 0.16 fails, named by its first failing pair
    poison_comparisons(monkeypatch, min_refine, lambda bad, pairs: bad[0])
    err = assert_failure_matches_one_at_a_time(PHYSICAL)
    assert err.failed_eps == 0.16
    assert f"poisoned comparison at refine {min_refine}" in str(err)
    assert [r.epsilon for r in err.report.rows] == [0.32]


@pytest.mark.parametrize("jobs", [1, 2])
def test_physical_failure_at_both_levels_ends_at_the_lower(monkeypatch, jobs):
    # both pairs of eps 0.16 fail, and a call holding both names the
    # level-2 pair (the engine may trip on either row first); the wave
    # reruns with the level-1 pair and ends the sweep with its error, as
    # one eps at a time, level by level, would, whatever jobs is
    poison_comparisons(monkeypatch, 1, lambda bad, pairs: bad[-1])
    rows, failed_eps, message = one_at_a_time(PHYSICAL)
    with pytest.raises(SweepError) as err:
        run_sweep(PHYSICAL, jobs=jobs)
    assert (err.value.failed_eps, str(err.value)) == (failed_eps, message) \
        == (0.16, "sweep aborted at eps=0.16: poisoned comparison at refine 1")
    assert [(r.epsilon, r.error) for r in err.value.report.rows] \
        == [(r.epsilon, r.error) for r in rows]
    assert [r.epsilon for r in rows] == [0.32]


def test_physical_deep_level_build_failure_matches_one_at_a_time(monkeypatch):
    # no eps settles, so every eps needs level 4, whose build fails
    real = sweep_module.physical_level

    def failing(config, refine, *args):
        if refine == 4:
            raise NumericalError("level 4 build failed")
        return real(config, refine, *args)

    monkeypatch.setattr(sweep_module, "physical_level", failing)
    monkeypatch.setattr(sweep_module, "_settled", lambda err_prev, err: False)
    err = assert_failure_matches_one_at_a_time(PHYSICAL)
    assert err.failed_eps == 0.32
    assert str(err) == "sweep aborted at eps=0.32: level 4 build failed"
    assert err.report.rows == ()


def test_packet_frame_deep_level_build_failure_matches_one_at_a_time(monkeypatch):
    # a level build evolves the profile and its corrections as one batch, so
    # its error can carry a row of its own (here the first correction's);
    # that row indexes the build, not the eps, and the sweep ends at the
    # first active eps all the same
    real = sweep_module._build_level

    def failing(config, refine):
        if refine == 4:
            raise NumericalError("first correction: level 4 build failed", row=1)
        return real(config, refine)

    monkeypatch.setattr(sweep_module, "_build_level", failing)
    monkeypatch.setattr(sweep_module, "_settled", lambda err_prev, err: False)
    err = assert_failure_matches_one_at_a_time(SMALL)
    assert err.failed_eps == 0.32
    assert str(err) == "sweep aborted at eps=0.32: first correction: level 4 build failed"
    assert err.report.rows == ()
