"""Experiment configuration: flat key=value files plus CLI overrides."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grids import TimeGrid
from .propagation import INITIAL_EIGEN_PLUS
from .synthesis import POLICY_HERMITIAN
from .two_level import (AllenEberlyParams, PulseSpec, allen_eberly,
                        classify_regime)
from .experiments import INITIAL_STATES, POLICIES

OUTPUT_FORMATS = ("csv", "json")

#: config-file keys and their parsers
_SCALAR_KEYS = {
    "omega0": float,
    "delta0": float,
    "tau": float,
    "t0": float,
    "t_final": float,
    "steps": int,
    "policy": str,
    "initial_state": str,
    "out": str,
    "format": str,
    "pulse_file": str,
}


def _parse_gamma_list(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad gamma list {text!r}: {exc}") from None
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters shared by all CLI commands."""

    omega0: float = 1.0
    delta0: float = 9.0
    tau: float = 1.0
    t0: Optional[float] = None  # default: -t_final (symmetric window)
    t_final: float = 1.0
    steps: int = 4000
    gamma_list: Optional[tuple] = None  # commands fill their own defaults
    policy: str = POLICY_HERMITIAN
    initial_state: str = INITIAL_EIGEN_PLUS
    out: str = "."
    format: str = "csv"
    pulse_file: Optional[str] = None

    @property
    def window(self) -> tuple:
        t0 = -self.t_final if self.t0 is None else self.t0
        return t0, self.t_final

    @property
    def grid(self) -> TimeGrid:
        """The run grid: ``steps`` intervals on the window."""
        return TimeGrid(*self.window, self.steps)

    def validate(self) -> None:
        t0, t_f = self.window
        if not t0 < t_f:
            raise ConfigError(f"need t0 < t_final, got [{t0}, {t_f}]")
        if self.steps < 100:
            raise ConfigError(f"steps must be >= 100, got {self.steps}")
        if self.omega0 <= 0:
            raise ConfigError("omega0 must be positive")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.format not in OUTPUT_FORMATS:
            raise ConfigError(f"format must be one of {OUTPUT_FORMATS}")
        for pol in self.policies:
            if pol not in POLICIES:
                raise ConfigError(f"unknown policy {pol!r}; choose from {POLICIES}")
        for ini in self.initial_states:
            if ini not in INITIAL_STATES:
                raise ConfigError(
                    f"unknown initial state {ini!r}; choose from {INITIAL_STATES}")
        # gammas() refuses an explicit empty list; defaults need no check
        gammas = () if self.gamma_list is None else self.gammas()
        # the comparisons above let NaN and +inf through, and classify_regime
        # below raises ValueError on them
        numbers = [("omega0", self.omega0), ("delta0", self.delta0),
                   ("tau", self.tau), ("t0", t0), ("t_final", t_f)]
        numbers += [("gamma", g) for g in gammas]
        for name, value in numbers:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for g in gammas:
            if g < 0:
                raise ConfigError(f"gamma must be >= 0, got {g}")
            # surfaces DegenerateRegime for gamma on the critical line
            classify_regime(self.peak_omega, g)

    @property
    def policies(self) -> tuple:
        return tuple(p.strip() for p in self.policy.split(",") if p.strip())

    @property
    def initial_states(self) -> tuple:
        return tuple(s.strip() for s in self.initial_state.split(",") if s.strip())

    def gammas(self, default: tuple = ()) -> tuple:
        """The configured decay rates, else the command's ``default``;
        raises ConfigError when that leaves none."""
        gammas = self.gamma_list if self.gamma_list is not None else default
        if not gammas:
            raise ConfigError("gamma list must not be empty")
        return gammas

    @cached_property
    def pulse_table(self) -> Optional[np.ndarray]:
        """Columns (t, Omega_R, Delta) of the pulse file, read once."""
        if self.pulse_file is None:
            return None
        return load_pulse_file(self.pulse_file)

    @property
    def peak_omega(self) -> float:
        """The peak Rabi frequency that picks the branch regime: the largest
        Omega_R sample of a pulse file, else (or if all are 0) omega0."""
        peak = 0.0 if self.pulse_file is None else np.max(self.pulse_table[1])
        return float(peak) if peak > 0 else self.omega0

    def ae_params(self, gamma: float) -> AllenEberlyParams:
        t0, t_f = self.window
        return AllenEberlyParams(omega0=self.omega0, delta0=self.delta0,
                                 tau=self.tau, gamma=gamma, t0=t0, t_f=t_f)

    def pulse_for(self, gamma: float) -> PulseSpec:
        """Pulse for one decay rate: sech/tanh by default, else the pulse
        file interpolated piecewise linearly (no analytic derivatives)."""
        if self.pulse_file is None:
            return allen_eberly(self.ae_params(gamma))
        ts, oms, dls = self.pulse_table

        def omega_r(t):
            return np.interp(t, ts, oms)

        def delta(t):
            return np.interp(t, ts, dls)

        def gamma_fn(t):
            return np.full_like(np.asarray(t, dtype=float), gamma)

        return PulseSpec(omega_r=omega_r, delta=delta, gamma=gamma_fn)


def load_pulse_file(path: str) -> np.ndarray:
    """The checked columns (t, Omega_R, Delta) of a three-column pulse
    table, shape (3, rows)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"pulse file {path!r} not found")
    try:
        data = np.loadtxt(p, delimiter=",")
    except ValueError:
        try:
            data = np.loadtxt(p)
        except ValueError:
            raise ConfigError(f"pulse file {path!r} holds a non-numeric cell "
                              f"or a header row") from None
    if data.ndim != 2 or data.shape[1] < 3:
        raise ConfigError(f"pulse file {path!r} must have columns t, Omega_R, Delta")
    ts, oms, dls = data[:, 0], data[:, 1], data[:, 2]
    if np.any(np.diff(ts) <= 0):
        raise ConfigError("pulse file times must be strictly increasing")
    if np.any(oms < 0):
        raise ConfigError("pulse file Rabi frequencies must be >= 0")
    if not np.all(np.isfinite(data[:, :3])):
        raise ConfigError(f"pulse file {path!r} holds a non-finite value")
    return data[:, :3].T


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; unknown keys error."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path!r} not found")
    values: dict = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key == "gamma":
            values["gamma_list"] = _parse_gamma_list(text)
        elif key in _SCALAR_KEYS:
            try:
                values[key] = _SCALAR_KEYS[key](text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") \
                    from None
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def build_config(config_path: Optional[str] = None, **overrides) -> ExperimentConfig:
    """File values, then NH_STA_OUT, then explicit (non-None) overrides."""
    values: dict = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    env_out = os.environ.get("NH_STA_OUT")
    if env_out:
        values["out"] = env_out
    for key, val in overrides.items():
        if val is None:
            continue
        if key == "gamma" and isinstance(val, str):
            values["gamma_list"] = _parse_gamma_list(val)
        else:
            values[key] = val
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
