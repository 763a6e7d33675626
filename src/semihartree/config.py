"""Experiment configuration: JSON parsing, validation, defaults.

The schema is flat and fully defaulted; unknown keys anywhere are
rejected so typos fail loudly.  Configurations are plain data (names and
numbers only).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError
from .grids import Grid, WaveFunction, gaussian_profile, make_grid
from .potentials import (
    ExternalPotential,
    PairPotential,
    builtin_external,
    builtin_pair,
)

__all__ = ["ExperimentConfig", "parse_config", "config_from_mapping",
           "decode_config_text", "MODES"]

MODES = ("physical", "rescaled", "corrections-1", "corrections-2")
PROFILES = ("standard-gaussian",)

DEFAULT_EPS_LIST = (0.32, 0.16, 0.08, 0.04, 0.02)
# the expansion is asymptotic: its order is measured on the small-eps side,
# which the eps-uniform packet-frame solver serves at fixed cost
CORRECTIONS_EPS_LIST = (0.08, 0.04, 0.02, 0.01, 0.005)
DEFAULT_MU_N = 512
MAX_MU_N = 16 * DEFAULT_MU_N  # bounds the memory a config can ask for
DEFAULT_MU_HALFWIDTH = 16.0
DEFAULT_MU_DT = 1e-3
# 16x the default T/dt, as MAX_MU_N is 16x the default n: bounds the node
# arrays and histories a run can ask for
MAX_TIME_STEPS = 16_000
# physical-frame solver step at the reference eps below; the default rule
# scales dt with sqrt(eps), which keeps the splitting error (~dt^2/eps)
# uniform across a sweep while the potential phase per step stays small
DEFAULT_PHYSICAL_DT = 2e-4
REFERENCE_EPS = 0.02


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep/compare configuration with every default filled."""

    a0: str = "standard-gaussian"
    phi_name: str = "cosine"
    phi_params: tuple = ()
    U_name: str = "cosine"
    U_params: tuple = (1.0,)
    q0: float = 0.0
    p0: float = 1.0
    T: float = 1.0
    eps_list: Optional[tuple] = None  # mode-dependent default, see __post_init__
    dt: Optional[float] = None
    mu_n: int = DEFAULT_MU_N
    mu_halfwidth: float = DEFAULT_MU_HALFWIDTH
    mode: str = "physical"

    def __post_init__(self):
        if self.a0 not in PROFILES:
            raise ConfigError(
                f"unknown initial profile {self.a0!r}: valid profiles are "
                + ", ".join(PROFILES)
            )
        if self.mode not in MODES:
            raise ConfigError(
                f"unknown mode {self.mode!r}: valid modes are " + ", ".join(MODES)
            )
        if not self.T > 0:
            raise ConfigError("T must be positive")
        if self.eps_list is None:
            default = (CORRECTIONS_EPS_LIST if self.mode.startswith("corrections")
                       else DEFAULT_EPS_LIST)
            object.__setattr__(self, "eps_list", default)
        eps = tuple(float(e) for e in self.eps_list)
        if not eps:
            raise ConfigError("eps_list must not be empty")
        if not all(0 < e < np.inf and np.isfinite(1.0 / e) for e in eps):
            raise ConfigError("eps_list entries must be positive and finite, with a finite 1/eps")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
        object.__setattr__(self, "eps_list", eps)
        if self.dt is not None and not self.dt > 0:
            raise ConfigError("dt must be positive")
        check_time_steps(self.T, self.mu_dt(), "T/dt")
        if self.mu_n % 2 != 0 or not 8 <= self.mu_n <= MAX_MU_N:
            raise ConfigError(f"grid.mu_n must be even and in [8, {MAX_MU_N}]")
        hw = self.mu_halfwidth
        if not (hw > 0 and np.isfinite(2.0 * hw) and np.isfinite(np.pi * self.mu_n / hw)):
            raise ConfigError("grid.mu_halfwidth must be positive, with finite wavenumbers")
        # construct both potentials once so bad names/params fail at parse time
        try:
            builtin_pair(self.phi_name, self.phi_params)
            builtin_external(self.U_name, self.U_params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    # -- builders -----------------------------------------------------------

    def pair(self) -> PairPotential:
        return builtin_pair(self.phi_name, self.phi_params)

    def external(self) -> ExternalPotential:
        return builtin_external(self.U_name, self.U_params)

    def mu_grid(self) -> Grid:
        return make_grid(self.mu_n, -self.mu_halfwidth, self.mu_halfwidth)

    def initial_profile(self) -> WaveFunction:
        return gaussian_profile(self.mu_grid())

    def mu_dt(self) -> float:
        return self.dt if self.dt is not None else DEFAULT_MU_DT

    def physical_dt(self, epsilon: float) -> float:
        if self.dt is not None:
            return self.dt
        return DEFAULT_PHYSICAL_DT * np.sqrt(epsilon / REFERENCE_EPS)


def check_time_steps(T: float, dt: float, where: str) -> None:
    """ConfigError unless T/dt is at most MAX_TIME_STEPS (T, dt > 0)."""
    if not T / dt <= MAX_TIME_STEPS:
        raise ConfigError(f"{where} must be at most {MAX_TIME_STEPS} steps, "
                          f"got {T / dt:.3g}")


def _reject_unknown(obj: dict, allowed: tuple, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where}")


def _number(value, where: str, integer: bool = False):
    """A finite real number (integral if `integer`, never a bool) as a float
    or int; anything else is a ConfigError naming the key path `where`."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # nan, inf, a huge int
            or integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _potential_entry(obj, where: str) -> tuple:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object with a 'name'")
    _reject_unknown(obj, ("name", "params"), where)
    if "name" not in obj:
        raise ConfigError(f"{where} requires a 'name'")
    name = obj["name"]
    params = obj.get("params", [])
    if not isinstance(params, list):
        raise ConfigError(f"{where}.params must be a list of numbers")
    return str(name), tuple(_number(p, f"{where}.params[{i}]")
                            for i, p in enumerate(params))


def decode_config_text(text: Union[bytes, str]) -> dict:
    """UTF-8 JSON document to a plain mapping (no validation yet)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from None
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a 5000-digit int, deep nesting
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def parse_config(text: Union[bytes, str]) -> ExperimentConfig:
    """Parse and validate a UTF-8 JSON configuration document."""
    return config_from_mapping(decode_config_text(text))


def config_from_mapping(raw: dict) -> ExperimentConfig:
    allowed = ("a0", "phi", "U", "q0", "p0", "T", "eps_list", "dt", "grid", "mode")
    _reject_unknown(raw, allowed, "config")

    kwargs = {}
    if "a0" in raw:
        kwargs["a0"] = str(raw["a0"])
    if "phi" in raw:
        kwargs["phi_name"], kwargs["phi_params"] = _potential_entry(raw["phi"], "phi")
    if "U" in raw:
        kwargs["U_name"], kwargs["U_params"] = _potential_entry(raw["U"], "U")
    for key in ("q0", "p0", "T"):
        if key in raw:
            kwargs[key] = _number(raw[key], key)
    if "eps_list" in raw:
        if not isinstance(raw["eps_list"], list):
            raise ConfigError("eps_list must be a list of numbers")
        kwargs["eps_list"] = tuple(_number(e, f"eps_list[{i}]")
                                   for i, e in enumerate(raw["eps_list"]))
    if "dt" in raw and raw["dt"] is not None:
        kwargs["dt"] = _number(raw["dt"], "dt")
    if "grid" in raw:
        grid = raw["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("grid must be an object")
        _reject_unknown(grid, ("mu_n", "mu_halfwidth"), "grid")
        if "mu_n" in grid:
            kwargs["mu_n"] = _number(grid["mu_n"], "grid.mu_n", integer=True)
        if "mu_halfwidth" in grid:
            kwargs["mu_halfwidth"] = _number(grid["mu_halfwidth"], "grid.mu_halfwidth")
    if "mode" in raw:
        kwargs["mode"] = str(raw["mode"])

    return ExperimentConfig(**kwargs)
