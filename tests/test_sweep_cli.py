import concurrent.futures
import json
import tracemalloc

import numpy as np
import pytest

import semihartree.sweep as sweep_module
from semihartree.amplitude import evolve_beta
from semihartree.cli import main
from semihartree.config import ExperimentConfig
from semihartree.errors import ConfigError, NumericalError
from semihartree.grids import WaveFunction, gaussian_profile, l2_distance
from semihartree.hartree import compare, physical_level
from semihartree.sweep import (
    SweepError,
    SweepReport,
    SweepRow,
    emit_report,
    fit_rate,
    lemma_check,
    render_report,
    run_sweep,
)

from helpers import evolve_b

SMALL_RESCALED = ExperimentConfig(mode="rescaled", T=0.5,
                                  eps_list=(0.32, 0.16, 0.08))


def data_section(text: str) -> str:
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith("#"))


class TestFitRate:
    def test_exact_sqrt_law(self):
        eps = np.array([0.32, 0.16, 0.08, 0.04])
        slope, r2 = fit_rate(eps, np.sqrt(eps))
        assert abs(slope - 0.5) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_exact_linear_law(self):
        eps = np.array([0.32, 0.16, 0.08, 0.04])
        slope, r2 = fit_rate(eps, 3.7 * eps)
        assert abs(slope - 1.0) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_short_input_gives_nan(self):
        slope, r2 = fit_rate([0.1], [0.3])
        assert np.isnan(slope) and np.isnan(r2)

    def test_nonpositive_error_gives_nan(self):
        slope, _ = fit_rate([0.2, 0.1], [0.1, 0.0])
        assert np.isnan(slope)


class TestRenderReport:
    def test_empty_report(self):
        text = render_report(SweepReport((), float("nan"), float("nan"), "rescaled"))
        lines = text.splitlines()
        assert lines[0] == "epsilon,error,error_over_sqrt_eps,dt,n,wall_ms"
        assert lines[1] == "# slope=nan r2=nan"
        assert len(lines) == 2

    def test_three_rows_layout(self):
        rows = tuple(SweepRow(e, e ** 0.5, 1.0, 1e-3, 512, 12.5)
                     for e in (0.32, 0.16, 0.08))
        text = render_report(SweepReport(rows, 0.5, 1.0, "rescaled"))
        lines = text.splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 4  # header + 3 rows
        assert all("," in l for l in data)
        assert "." in data[1] and "," + "" in data[1]
        # wall time lives in the trailing comment block, not the data section
        assert data[1].endswith(",")
        assert any(l.startswith("# wall_ms:") for l in lines)
        assert any(l.startswith("# slope=0.5 r2=1.0") for l in lines)

    def test_local_slopes_between_adjacent_rows(self):
        # errors eps^1.5 then eps^0.5: the pairwise rates, not the overall fit
        errors = {0.08: 0.08 ** 1.5, 0.04: 0.04 ** 1.5, 0.02: 0.02 ** 0.5 * 0.04}
        rows = tuple(SweepRow(e, err, err / e ** 0.5, 1e-3, 512, 1.0)
                     for e, err in errors.items())
        lines = render_report(SweepReport(rows, 1.2, 0.9, "corrections-2")).splitlines()
        assert lines[4] == "# slope=1.2 r2=0.9"
        assert lines[5].startswith("# local_slopes: ")
        slopes = [float(s) for s in lines[5].split(": ")[1].split()]
        pairwise = [np.log(errors[a] / errors[b]) / np.log(a / b)
                    for a, b in [(0.08, 0.04), (0.04, 0.02)]]
        np.testing.assert_allclose(slopes, pairwise, rtol=1e-12)
        assert slopes[0] == pytest.approx(1.5)
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 4
        one = render_report(SweepReport(rows[:1], float("nan"), float("nan"), "rescaled"))
        assert "local_slopes" not in one

    def test_emit_byte_stable(self, tmp_path):
        rows = tuple(SweepRow(e, e ** 0.5, 1.0, 1e-3, 512, 3.0)
                     for e in (0.32, 0.16))
        report = SweepReport(rows, 0.5, 1.0, "rescaled")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, p1)
        emit_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRunSweep:
    def test_small_rescaled_sweep(self):
        report = run_sweep(SMALL_RESCALED)
        assert [r.epsilon for r in report.rows] == [0.32, 0.16, 0.08]
        errors = [r.error for r in report.rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert np.isfinite(report.fitted_slope)

    def test_determinism_of_data_section(self):
        first = render_report(run_sweep(SMALL_RESCALED))
        second = render_report(run_sweep(SMALL_RESCALED))
        assert data_section(first) == data_section(second)

    def test_parallel_matches_serial(self):
        serial = run_sweep(SMALL_RESCALED)
        parallel = run_sweep(SMALL_RESCALED, jobs=2)
        assert data_section(render_report(serial)) \
            == data_section(render_report(parallel))

    def test_physical_jobs_are_ignored(self, monkeypatch):
        # no jobs value starts a process pool, and every one gives the serial rows
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        small = ExperimentConfig(mode="physical", T=0.25, eps_list=(0.32, 0.16))
        serial = data_section(render_report(run_sweep(small)))
        for jobs in (2, 64):
            assert data_section(render_report(run_sweep(small, jobs=jobs))) == serial

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigError, match="jobs must be at least 1"):
            run_sweep(SMALL_RESCALED, jobs=0)

    def test_failure_carries_partial_report(self):
        # a window far too small for the spreading profile trips the guard
        bad = ExperimentConfig(mode="rescaled", T=1.0, mu_n=128,
                               mu_halfwidth=4.0, eps_list=(0.32, 0.16, 0.08))
        with pytest.raises(SweepError) as err:
            run_sweep(bad)
        assert err.value.failed_eps == 0.32
        assert isinstance(err.value.report, SweepReport)


class TestModeCrossCheck:
    def test_physical_and_rescaled_slopes_agree(self):
        # the two modes measure the same object in different coordinates,
        # with independent solvers on different grids and steps: at gate
        # level 2 their rows differ by 8.0e-10, 7.0e-8 and 1.63e-7 relative.
        # The gap is the time discretization: at eps 0.02 it is 6.5e-7 at
        # level 1, a factor of 3.98 above level 2's
        eps = (0.32, 0.08, 0.02)
        configs = [ExperimentConfig(mode=mode, eps_list=eps) for mode in ("physical", "rescaled")]
        phys, resc = (run_sweep(cfg) for cfg in configs)
        assert 0.45 <= phys.fitted_slope <= 0.8
        assert abs(phys.fitted_slope - resc.fitted_slope) <= 0.15
        assert [r.epsilon for r in phys.rows] == [r.epsilon for r in resc.rows] == list(eps)
        assert [r.dt_used for r in resc.rows] == [configs[1].mu_dt() / 2] * 3  # level 2
        for rp, rr in zip(phys.rows, resc.rows):
            assert abs(rp.error - rr.error) <= 1e-6 * rr.error
        (errors, *_), = compare([(0.02, physical_level(configs[0], 1))], configs[0])
        [(level_1, *_)] = sweep_module._packet_frame_errors(
            configs[1], [(0.02, sweep_module._build_level(configs[1], 1))])
        gaps = [abs(errors[-1] - level_1) / level_1,
                abs(phys.rows[-1].error - resc.rows[-1].error) / resc.rows[-1].error]
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0


class TestLemmaCheckHarness:
    def test_deviations_and_order(self):
        check = lemma_check(kappa=-1.0, T=0.5, dt=1e-3)
        assert check.probe_times == (0.125, 0.25, 0.5)
        assert max(check.deviations) <= 1e-6
        assert check.order_ok

    @staticmethod
    def full_history_deviations(kappa, T, dt, probe_times):
        """The cross-check from both profile runs stored at every node."""
        grid = ExperimentConfig().mu_grid()
        a0 = gaussian_profile(grid)
        times, b = evolve_b(a0, kappa, 0.0, T, dt)
        states = evolve_beta(a0, kappa, 0.0, T, dt, range(times.size))
        devs = []
        for t in probe_times:
            i = int(np.argmin(np.abs(times - t)))
            phased = WaveFunction(grid, np.exp(1j * states[i].gamma) * states[i].beta.samples)
            devs.append(l2_distance(WaveFunction(grid, b[i]), phased))
        return tuple(devs)

    def test_cli_default_keeps_only_probe_states(self):
        # the CLI default: 4,000 and 8,000 steps of two runs each.  Stored at
        # every node, the four runs peaked at 126 MiB; the probe nodes and
        # the profile's 128-row block take under 4 MiB.  b is still visited
        # at every node, so the deviations are those of the full histories
        # to the last bit.
        tracemalloc.start()
        try:
            check = lemma_check(T=1.0, dt=2.5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        for dt, devs in ((2.5e-4, check.deviations), (1.25e-4, check.deviations_half)):
            assert devs == self.full_history_deviations(-1.0, 1.0, dt, check.probe_times)


class TestCli:
    def write_config(self, tmp_path, **overrides):
        doc = {"phi": {"name": "cosine"}, "U": {"name": "cosine", "params": [1]},
               "T": 0.5, "eps_list": [0.32, 0.16, 0.08], "mode": "rescaled"}
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        text = out.read_text()
        assert text.startswith("epsilon,error")
        assert "# slope=" in text

    def test_sweep_rerun_identical_data(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
        assert data_section(out1.read_text()) == data_section(out2.read_text())

    def test_plot_script_emission(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.csv"
        gp = tmp_path / "report.gp"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--plot-script", str(gp), "--quiet"])
        assert code == 0
        assert "logscale" in gp.read_text()

    @pytest.mark.parametrize("command", [["sweep"], ["corrections", "--K", "2"]],
                             ids=["sweep", "corrections"])
    def test_plot_script_without_out_is_a_config_error(self, tmp_path, monkeypatch,
                                                        capsys, command):
        # refused before anything runs: no sweep, no level, no file
        monkeypatch.chdir(tmp_path)
        sweeps = []
        monkeypatch.setattr("semihartree.cli.run_sweep", lambda *a, **k: sweeps.append(a))
        assert main(command + ["--plot-script", "x.gp", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --plot-script requires --out\n"
        assert sweeps == []
        assert list(tmp_path.iterdir()) == []

    def test_eps_override(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--eps", "0.2,0.1", "--quiet"])
        assert code == 0
        assert "\n0.2," in out.read_text()

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"phi":{"name":"coulomb"}}')
        assert main(["sweep", "--config", str(path), "--quiet"]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "none.json")]) == 2

    def test_jobs_below_one_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--jobs", "0", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("q0", [1e16, 1e17])
    def test_domain_collapsing_in_floating_point_exit_code(self, tmp_path, capsys, q0):
        # far from 0 the physical grid's points collide: one line, and the
        # partial report (no rows) is still written
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({"q0": q0, "eps_list": [0.32]}))
        out = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "collide in floating point (eps=0.32)" in err
        assert out.read_text().startswith("epsilon,error,")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--mode", "rescaled"], ["sweep", "--mode", "physical"],
        ["corrections", "--K", "1"], ["corrections", "--K", "2"], ["compare"],
    ], ids=["rescaled", "physical", "corrections-1", "corrections-2", "compare"])
    @pytest.mark.parametrize("T", [1e-9, 1e-300])
    def test_horizon_below_one_step_exit_code(self, tmp_path, capsys, argv, T):
        # time_nodes(T, dt) is [0, T]: one short step, node 0 kept at 0
        cfg = self.write_config(tmp_path, T=T)
        assert main(argv + ["--config", str(cfg), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [["sweep", "--mode", "rescaled"],
                                      ["corrections", "--K", "1"]],
                             ids=["rescaled", "corrections-1"])
    @pytest.mark.parametrize("halfwidth", [1e160, 1e300])
    def test_halfwidth_with_an_overflowing_square_exit_code(self, tmp_path, capsys, argv,
                                                            halfwidth):
        # b's r^2 kernel reaches halfwidth^2: refused when the config is parsed
        cfg = self.write_config(tmp_path, grid={"mu_halfwidth": halfwidth})
        assert main(argv + ["--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.mu_halfwidth") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["sweep", "--mode", "rescaled"], ["sweep", "--mode", "physical"],
        ["corrections", "--K", "1"], ["corrections", "--K", "2"], ["compare"],
    ], ids=["rescaled", "physical", "corrections-1", "corrections-2", "compare"])
    @pytest.mark.parametrize("grid", [
        {"mu_halfwidth": 1e150}, {"mu_halfwidth": 1e70}, {"mu_halfwidth": 1000},
        {"mu_halfwidth": 300}, {"mu_halfwidth": 3.0}, {"mu_n": 8},
    ], ids=["hw1e150", "hw1e70", "hw1000", "hw300", "hw3", "n8"])
    def test_grid_that_cannot_hold_the_profile_exit_code(self, tmp_path, capsys,
                                                         monkeypatch, argv, grid):
        # the grid parses, yet the initial profile fails `validate`'s checks on
        # it: refused with one line, before any solver runs, and with no warning
        def no_solver(*args):
            raise AssertionError("a solver ran")

        for name in ("_build_level", "physical_level"):
            monkeypatch.setattr(sweep_module, name, no_solver)
        monkeypatch.setattr("semihartree.cli.physical_level", no_solver)
        cfg = self.write_config(tmp_path, grid=grid)
        assert main(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(
            "config error: grid.mu_n/grid.mu_halfwidth ") and "cannot hold the initial " \
            "profile: " in captured.err

    @pytest.mark.parametrize("grid", [
        {"mu_halfwidth": 200}, {"mu_halfwidth": 3.5}, {"mu_n": 128, "mu_halfwidth": 4},
    ], ids=["hw200", "hw3.5", "n128-hw4"])
    def test_grid_that_holds_the_profile_passes_the_check(self, tmp_path, capsys,
                                                          monkeypatch, grid):
        # the edges of the check at 512 cells (200 passes, 300 fails; 3.5
        # passes, 3.0 fails) and the narrow window of the guard tests reach
        # the solvers
        def reached(*args):
            raise NumericalError("a solver ran")

        monkeypatch.setattr(sweep_module, "_build_level", reached)
        cfg = self.write_config(tmp_path, grid=grid)
        assert main(["validate", "--config", str(cfg), "--quiet"]) == 0
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 3
        assert capsys.readouterr().err.endswith(": a solver ran\n")

    @pytest.mark.parametrize("mode", ["rescaled", "physical", "corrections-2"])
    def test_run_sweep_refuses_a_grid_that_cannot_hold_the_profile(self, tmp_path, capsys,
                                                                    monkeypatch, mode):
        # called directly, as the library's users and the benchmark call it,
        # the sweep raises the one line that the CLI prints, before any level
        # is built (at 512 cells on +-1000 it used to return rows of slope 0.33)
        def no_solver(*args):
            raise AssertionError("a solver ran")

        for name in ("_build_level", "physical_level"):
            monkeypatch.setattr(sweep_module, name, no_solver)
        with pytest.raises(ConfigError) as err:
            run_sweep(ExperimentConfig(mode=mode, mu_halfwidth=1000.0))
        assert str(err.value).startswith("grid.mu_n/grid.mu_halfwidth (512 cells on +-1000) "
                                         "cannot hold the initial profile: ")
        cfg = self.write_config(tmp_path, mode=mode, grid={"mu_halfwidth": 1000})
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {err.value}\n"

    @pytest.mark.filterwarnings("error")
    def test_validate_reports_an_unfit_grid_without_warning(self, tmp_path, capsys):
        # the abs moments overflow nowhere that the density is nonzero
        cfg = self.write_config(tmp_path, grid={"mu_halfwidth": 1e70})
        assert main(["validate", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "FAIL" and captured.err == ""
        assert "nan" not in captured.out

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, grid={"mu_n": 128, "mu_halfwidth": 4},
                                T=1.0)
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 3

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_lemma_check(self, capsys):
        assert main(["lemma-check", "--dt", "0.001", "--T", "0.5"]) == 0
        assert "deviation" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "0"), ("--dt", "nan"), ("--T", "-1"), ("--T", "inf"),
        ("--tol", "nan"), ("--tol", "-1"), ("--kappa", "inf"),
    ])
    def test_lemma_check_malformed_number_exit_code(self, capsys, flag, value):
        assert main(["lemma-check", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert flag in err

    def test_compare_trace(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, mode="physical",
                                eps_list=[0.08], T=0.25)
        out = tmp_path / "trace.csv"
        code = main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,error"
        assert lines[1].startswith("0.0,")
        assert "final_error=" in lines[-1]

    @pytest.mark.parametrize("n", ["-1", "-5"])
    def test_compare_negative_trace_exit_code(self, capsys, n):
        # --trace 0 keeps the final state alone; a negative count is malformed
        assert main(["compare", "--trace", n, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --trace must be at least 0, got {n}\n"

    def test_compare_trace_beyond_the_node_count(self, tmp_path):
        # the trace is clamped to the level's nodes: a huge N traces every
        # node, exactly as N = the node count does, and allocates no N indices
        from semihartree._stepping import time_nodes

        cfg = self.write_config(tmp_path, mode="physical", eps_list=[0.32], T=0.05)
        nodes = time_nodes(0.05, 1e-3)
        outs = {}
        for n in (10 ** 20, nodes.size):
            outs[n] = tmp_path / f"trace{n}.csv"
            assert main(["compare", "--config", str(cfg), "--trace", str(n),
                         "--out", str(outs[n]), "--quiet"]) == 0
        text = outs[10 ** 20].read_text()
        assert text == outs[nodes.size].read_text()
        times = [float(line.split(",")[0]) for line in text.splitlines()[1:-1]]
        assert times == pytest.approx(nodes, abs=1e-12)

    def test_corrections_subcommand(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["corrections", "--eps", "0.08,0.04,0.02",
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert "# slope=" in out.read_text()

    def test_corrections_mode_resolves_its_eps_default(self):
        from semihartree.cli import _load_config
        import argparse

        args = argparse.Namespace(config=None, mode=None, eps=None, K=1)
        cfg = _load_config(args)
        assert cfg.mode == "corrections-1"
        assert cfg.eps_list == (0.08, 0.04, 0.02, 0.01, 0.005)
