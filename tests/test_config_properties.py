"""Property tests: no JSON document makes configuration parsing, or the
`validate` command that reads it, end in anything but a config or a
ConfigError (exit 2)."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from semihartree import cli  # noqa: E402
from semihartree.amplitude import validate_initial_amplitude  # noqa: E402
from semihartree.config import (  # noqa: E402
    MAX_MU_N,
    MODES,
    ExperimentConfig,
    config_from_mapping,
    decode_config_text,
)
from semihartree.errors import ConfigError  # noqa: E402
from semihartree.potentials import EXTERNAL_NAMES, PAIR_NAMES  # noqa: E402

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=8))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=8), inner, max_size=4),
                      max_leaves=8)
numbers = st.integers() | st.floats()
potentials = st.fixed_dictionaries(
    {"name": st.sampled_from(PAIR_NAMES + EXTERNAL_NAMES) | values},
    optional={"params": st.lists(numbers | values, max_size=3) | values})
# every documented key with values near its type, plus anything else
documents = st.fixed_dictionaries({}, optional={
    "a0": st.just("standard-gaussian") | values,
    "phi": potentials | values,
    "U": potentials | values,
    "q0": numbers | values, "p0": numbers | values, "T": numbers | values,
    "eps_list": st.lists(numbers, max_size=6) | values,
    "dt": numbers | values,
    "grid": st.fixed_dictionaries({}, optional={
        "mu_n": st.integers(min_value=-10, max_value=10 ** 6) | numbers | values,
        "mu_halfwidth": st.floats(min_value=0.0, exclude_min=True) | numbers | values,
    }) | values,
    "mode": st.sampled_from(MODES) | values,
}) | st.dictionaries(st.text(max_size=8), values, max_size=4)


def parse_outcome(raw):
    try:
        return config_from_mapping(raw)
    except ConfigError as exc:
        assert "\n" not in str(exc)
        return exc


@given(documents)
def test_mapping_gives_config_or_config_error(raw):
    outcome = parse_outcome(raw)
    assert isinstance(outcome, (ExperimentConfig, ConfigError))


@given(st.binary(max_size=64) | st.text(max_size=64)
       | values.map(json.dumps) | documents.map(json.dumps))
def test_text_gives_config_or_config_error(text):
    try:
        raw = decode_config_text(text)
    except ConfigError as exc:
        assert "\n" not in str(exc)
        return
    assert isinstance(parse_outcome(raw), (ExperimentConfig, ConfigError))


@given(documents)
def test_validate_exits_0_2_or_3(raw):
    # 2 exactly when the document is a config error; a valid document exits
    # 0, or 3 when its initial profile fails the report (a mesh too coarse
    # or too narrow for the unit Gaussian, say {"grid": {"mu_n": 8}})
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(raw, fh)
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(["validate", "--config", path])
    finally:
        os.unlink(path)
    outcome = parse_outcome(raw)
    if isinstance(outcome, ConfigError):
        assert code == 2
        assert err.getvalue() == f"config error: {outcome}\n"
    else:
        passed = validate_initial_amplitude(outcome.initial_profile()).passed
        assert code == (0 if passed else 3)


@given(st.integers(min_value=4, max_value=MAX_MU_N // 2), st.floats(min_value=0.0))
def test_accepted_grid_has_finite_nonzero_spacing_and_wavenumbers(half_n, halfwidth):
    try:
        grid = ExperimentConfig(mu_n=2 * half_n, mu_halfwidth=halfwidth).mu_grid()
    except ConfigError:
        return
    assert 0 < grid.dx < np.inf
    assert np.isfinite(grid.points).all() and np.isfinite(grid.wavenumbers).all()
