import pytest

from semihartree.config import (
    CORRECTIONS_EPS_LIST,
    DEFAULT_EPS_LIST,
    ExperimentConfig,
    parse_config,
)
from semihartree.errors import ConfigError


MINIMAL = (b'{"phi":{"name":"cosine"},"U":{"name":"cosine","params":[1]},'
           b'"T":1,"eps_list":[0.32,0.16,0.08]}')


class TestParse:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.q0 == 0.0
        assert cfg.p0 == 1.0
        assert cfg.mode == "physical"
        assert cfg.a0 == "standard-gaussian"
        assert cfg.eps_list == (0.32, 0.16, 0.08)
        assert cfg.mu_n == 512
        assert cfg.mu_halfwidth == 16.0

    def test_round_trips_all_fields(self):
        text = (b'{"a0":"standard-gaussian","phi":{"name":"quadratic",'
                b'"params":[1,-1]},"U":{"name":"harmonic","params":[1]},'
                b'"q0":0.5,"p0":2,"T":2,"eps_list":[0.1,0.05],"dt":0.0005,'
                b'"grid":{"mu_n":256,"mu_halfwidth":12},"mode":"rescaled"}')
        cfg = parse_config(text)
        assert cfg.phi_params == (1.0, -1.0)
        assert cfg.dt == 5e-4
        assert cfg.mu_n == 256
        assert cfg.mode == "rescaled"

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config(b"{not json")

    def test_non_utf8(self):
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_config(b"\xff\xfe{}")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(b'{"phi":{"name":"cosine"},"seed":3}')

    def test_unknown_grid_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(b'{"grid":{"nx":64}}')

    def test_increasing_eps_rejected(self):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            parse_config(b'{"eps_list":[0.1, 0.2]}')

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(b'{"eps_list":[0.1, 0.0]}')

    def test_eps_with_overflowing_reciprocal_rejected(self):
        # 1/1e-320 overflows to inf, which every solver divides by
        with pytest.raises(ConfigError, match=r"^eps_list entries must be positive and "
                                              r"finite, with a finite 1/eps$"):
            parse_config(b'{"eps_list":[0.1, 1e-320]}')
        assert parse_config(b'{"eps_list":[1e-300]}').eps_list == (1e-300,)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--mode", "rescaled"], ["sweep", "--mode", "physical"],
        ["corrections", "--K", "1"], ["corrections", "--K", "2"], ["compare"]])
    def test_eps_with_overflowing_reciprocal_exits_2_with_one_line(self, capsys, monkeypatch,
                                                                    argv):
        import semihartree.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("a run was started with an eps whose 1/eps overflows")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        monkeypatch.setattr(cli, "physical_level", refuse)
        code = cli.main(argv + ["--eps", "1e-320", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("config error: eps_list entries must be positive and finite, "
                       "with a finite 1/eps\n")

    def test_unknown_pair_name_lists_valid(self):
        with pytest.raises(ConfigError, match="valid names are"):
            parse_config(b'{"phi":{"name":"coulomb"}}')

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="valid modes"):
            parse_config(b'{"mode":"wigner"}')


class TestDefaults:
    def test_default_eps_by_mode(self):
        assert ExperimentConfig().eps_list == DEFAULT_EPS_LIST
        assert ExperimentConfig(mode="rescaled").eps_list == DEFAULT_EPS_LIST
        assert ExperimentConfig(mode="corrections-1").eps_list \
            == CORRECTIONS_EPS_LIST

    def test_physical_dt_scales_with_sqrt_eps(self):
        cfg = ExperimentConfig()
        assert cfg.physical_dt(0.02) == pytest.approx(2e-4)
        assert cfg.physical_dt(0.08) == pytest.approx(4e-4)
        assert cfg.physical_dt(0.32) == pytest.approx(8e-4)

    def test_explicit_dt_wins(self):
        cfg = ExperimentConfig(dt=1e-4)
        assert cfg.physical_dt(0.32) == 1e-4
        assert cfg.mu_dt() == 1e-4

    def test_builders(self):
        cfg = parse_config(MINIMAL)
        assert cfg.pair().name == "cosine"
        assert cfg.external().name == "cosine"
        assert cfg.mu_grid().n == 512
        assert abs(cfg.initial_profile().samples[256]) > 0.1


class TestNumbers:
    """Every malformed number in a config ends with exit 2 and a one-line
    message naming its key path."""

    @staticmethod
    def validate(tmp_path, capsys, text):
        from semihartree.cli import main

        path = tmp_path / "config.json"
        path.write_text(text)
        code = main(["validate", "--config", str(path), "--quiet"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ('{"q0":"abc"}', "q0"),
        ('{"T":null}', "T"),
        ('{"eps_list":[0.1,"x"]}', "eps_list[1]"),
        ('{"T":Infinity}', "T"),
        ('{"q0":NaN}', "q0"),
        ('{"grid":{"mu_n":512.9}}', "grid.mu_n"),
        ('{"grid":{"mu_halfwidth":Infinity}}', "grid.mu_halfwidth"),
    ], ids=["string", "null", "string-in-list", "infinity", "nan",
            "fractional-integer", "infinite-halfwidth"])
    def test_bad_number_exits_2(self, tmp_path, capsys, text, where):
        code, err = self.validate(tmp_path, capsys, text)
        assert code == 2
        assert err.startswith(f"config error: {where} must be ") and err.count("\n") == 1

    def test_bool_and_huge_int_rejected(self):
        with pytest.raises(ConfigError, match=r"^U\.params\[0\] must be a finite number"):
            parse_config(b'{"U":{"name":"cosine","params":[true]}}')
        with pytest.raises(ConfigError, match="^p0 must be a finite number"):
            parse_config(b'{"p0":1' + b"0" * 400 + b"}")

    def test_integral_float_accepted_as_integer(self):
        cfg = parse_config(b'{"grid":{"mu_n":256.0}}')
        assert cfg.mu_n == 256 and isinstance(cfg.mu_n, int)


class TestResourceBounds:
    @pytest.fixture(autouse=True)
    def no_grid(self, monkeypatch):
        # parsing must never allocate the mesh it describes
        import semihartree.config as config

        def refuse(*args):
            raise AssertionError("a grid was allocated while parsing")

        monkeypatch.setattr(config, "make_grid", refuse)

    @pytest.mark.parametrize("extra, accepted", [(0, True), (2, False)],
                             ids=["bound", "bound+2"])
    def test_mu_n_bound(self, extra, accepted):
        from semihartree.config import DEFAULT_MU_N, MAX_MU_N

        assert MAX_MU_N >= 16 * DEFAULT_MU_N
        text = b'{"grid":{"mu_n":%d}}' % (MAX_MU_N + extra)
        if accepted:
            assert parse_config(text).mu_n == MAX_MU_N
        else:
            with pytest.raises(ConfigError, match=r"^grid\.mu_n must be even and in "
                               r"\[8, \d+\]$"):
                parse_config(text)

    @pytest.mark.parametrize("text, where", [
        ('{"grid":{"mu_n":1000000000000}}', "grid.mu_n"),
        ('{"grid":{"mu_halfwidth":5e-324}}', "grid.mu_halfwidth"),
        ('{"grid":{"mu_halfwidth":1e308}}', "grid.mu_halfwidth"),
        ('{"grid":{"mu_halfwidth":1e160}}', "grid.mu_halfwidth"),
        ('{"T":1' + "0" * 5000 + '}', "malformed JSON"),
        ('[' * 100000 + ']' * 100000, "malformed JSON"),
    ], ids=["huge-mu_n", "subnormal-halfwidth", "overflowing-halfwidth",
            "square-overflowing-halfwidth", "5000-digit-number", "deep-nesting"])
    def test_validate_exits_2_with_one_line(self, tmp_path, capsys, text, where):
        code, err = TestNumbers.validate(tmp_path, capsys, text)
        assert code == 2
        assert err.startswith(f"config error: {where}") and err.count("\n") == 1

    @pytest.mark.parametrize("extra, accepted", [(0, True), (1, False)],
                             ids=["bound", "bound+1"])
    def test_time_step_bound(self, extra, accepted):
        from semihartree.config import DEFAULT_MU_DT, MAX_TIME_STEPS

        # the defaults: 1,000 sweep steps, 4,000 lemma-check steps
        assert MAX_TIME_STEPS >= 16 * ExperimentConfig().T / DEFAULT_MU_DT
        dt = 2.0 ** -10  # dyadic, so that T/dt is exact
        text = '{"T":%r,"dt":%r}' % ((MAX_TIME_STEPS + extra) * dt, dt)
        if accepted:
            assert parse_config(text).T / dt == MAX_TIME_STEPS
        else:
            with pytest.raises(ConfigError, match=r"^T/dt must be at most \d+ steps, "
                               r"got 1\.6e\+04$"):
                parse_config(text)

    @pytest.mark.parametrize("argv, text", [
        (["validate"], '{"dt":1e-300}'),
        (["sweep"], '{"T":1e300}'),
        (["lemma-check", "--dt", "1e-300"], None),
    ], ids=["validate-tiny-dt", "sweep-huge-T", "lemma-check-tiny-dt"])
    def test_time_step_bound_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                    argv, text):
        import semihartree.cli as cli
        from semihartree.config import MAX_TIME_STEPS

        def refuse(*args, **kwargs):
            raise AssertionError("a run was started past the time-step bound")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        monkeypatch.setattr(cli, "lemma_check", refuse)
        if text is not None:
            path = tmp_path / "config.json"
            path.write_text(text)
            argv = argv + ["--config", str(path)]
        code = cli.main(argv + ["--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"must be at most {MAX_TIME_STEPS} steps" in err and "Traceback" not in err
