"""Experiment configuration.  ``OPTIONS`` declares each option once; the
CLI's flags, the keys of a flat ``key = value`` file, ``ExperimentConfig``'s
fields and the manifest's echo of them all come from it.  The file readers
live in :mod:`nhsta.readers`, loaded for ``--pulse-file`` or ``--config``;
``load_pulse_file`` resolves here too (PEP 562), for the benchmark tracer.
:meth:`ExperimentConfig.single_run` is the one rule of the commands that
run one policy from one initial state, ``verify``, ``figure3`` and
``figure4``: a list of either is refused."""
from __future__ import annotations

import math
import os
import sys
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, refuse_unknown
from .grids import TimeGrid
from .synthesis import POLICY_HERMITIAN
from .two_level import PulseSpec, allen_eberly, classify_regime
from .experiments import INITIAL_EIGEN_PLUS, INITIAL_STATES, POLICIES

OUTPUT_FORMATS = ("csv", "json")
MIN_STEPS = 100
#: numpy cannot size a longer quarter grid: 4 * steps + 1 complex samples
MAX_STEPS = (np.iinfo(np.intp).max // 16 - 1) // 4


def _comma_list(text: str) -> tuple:
    """The stripped, non-blank items of a comma-separated list."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _refuse_repeats(what: str, values: tuple) -> None:
    """Raise ConfigError naming the first item of ``values`` that repeats
    an earlier one: a run would build and write it again."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{what} list repeats {value!r}")


def _parse_gamma_list(text: str) -> tuple:
    """The decay rates of a comma list, -0 read as 0 so that it names its
    table, row and checks as 0 does."""
    try:
        return tuple(float(part) + 0.0 for part in _comma_list(text))
    except ValueError as exc:
        raise ConfigError(f"bad gamma list {text!r}: {exc}") from None


#: Each option as (name, type of its text, default, help), in the order a
#: manifest echoes them.  The name is the config-file key, the flag with "-"
#: for "_" and the field of ``ExperimentConfig``, but gamma's is gamma_list.
OPTIONS = (
    ("omega0", float, 1.0, "pulse amplitude (1/tau)"),
    ("delta0", float, 9.0, "chirp range (1/tau)"),
    ("tau", float, 1.0, "characteristic duration"),
    ("t0", float, None, "window start, -t_final if not given"),
    ("t_final", float, 1.0, "window end"),
    ("steps", int, 4000, f"grid intervals (>= {MIN_STEPS})"),
    ("gamma", _parse_gamma_list, None,
     "comma-separated decay rates (1/tau), the command's own if not given"),
    ("policy", str, POLICY_HERMITIAN,
     f"supplement policy, {' | '.join(POLICIES)}; sweep accepts a comma list"),
    ("initial_state", str, INITIAL_EIGEN_PLUS,
     f"{' | '.join(INITIAL_STATES)}; sweep accepts a comma list"),
    ("out", str, ".", "output directory (or env NH_STA_OUT)"),
    ("format", str, "csv", f"table format, {' | '.join(OUTPUT_FORMATS)}"),
    ("pulse_file", str, None, "tabulated pulse (columns t, Omega_R, Delta)"),
)


class ExperimentConfig:
    """Validated experiment parameters shared by all CLI commands: one
    attribute per option, named in ``FIELDS`` in the manifest's order."""

    #: option name -> (its field, the type of its text)
    READERS = {name: ("gamma_list" if name == "gamma" else name, kind)
               for name, kind, *_ in OPTIONS}
    FIELDS = tuple(field for field, _ in READERS.values())

    def __init__(self, **values):
        for name in values:
            refuse_unknown("option", name, self.FIELDS)
        for field, (_, _, default, _) in zip(self.FIELDS, OPTIONS):
            setattr(self, field, values.get(field, default))

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
        if self.steps < MIN_STEPS:
            raise ConfigError(f"steps must be >= {MIN_STEPS}, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ConfigError(f"steps must be <= {MAX_STEPS}, got {self.steps}")
        if self.omega0 <= 0:
            raise ConfigError("omega0 must be positive")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        refuse_unknown("format", self.format, OUTPUT_FORMATS)
        for what, values, known in (
                ("policy", self.policies, POLICIES),
                ("initial state", self.initial_states, INITIAL_STATES)):
            if not values:
                raise ConfigError(f"{what} list must not be empty")
            for value in values:
                refuse_unknown(what, value, known)
            _refuse_repeats(what, values)
        gammas = self.gamma_list or ()
        # the comparisons above let NaN and +inf through, and regime_for
        # (in gammas() below) raises ValueError on them
        numbers = [("omega0", self.omega0), ("delta0", self.delta0),
                   ("tau", self.tau), ("t0", t0), ("t_final", t_f)]
        numbers += [("gamma", g) for g in gammas]
        for name, value in numbers:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        _refuse_repeats("gamma", gammas)
        if self.pulse_file is not None:
            # the splines would extrapolate Omega_R and Delta outside the table
            ts = self.pulse_table[0]
            if ts[0] > t0 or ts[-1] < t_f:
                raise ConfigError(
                    f"pulse file {self.pulse_file!r} covers t in "
                    f"[{float(ts[0])}, {float(ts[-1])}], not the run window "
                    f"[{t0}, {t_f}]")
            # the not-a-knot spline can undershoot between knots >= 0, so
            # read it where a run does, on the run grid refined 4x
            quarter = self.grid.refine(4).samples
            negative = self.pulse_splines[0][0](quarter) < 0
            if np.any(negative):
                raise ConfigError(
                    f"pulse file {self.pulse_file!r}: the spline through its "
                    f"Omega_R is negative at "
                    f"t={quarter[np.argmax(negative)]:g}")
        for g in gammas:
            if g < 0:
                raise ConfigError(f"gamma must be >= 0, got {g}")
        if self.gamma_list is not None:
            self.gammas()  # an empty list, or a rate on the critical line

    @property
    def policies(self) -> tuple:
        return _comma_list(self.policy)

    @property
    def initial_states(self) -> tuple:
        return _comma_list(self.initial_state)

    def single_run(self) -> tuple:
        """The (policy, initial state) of a command that runs one of each;
        raises ConfigError when either is a list."""
        for values, what in ((self.policies, "policy"),
                             (self.initial_states, "initial state")):
            if len(values) != 1:
                raise ConfigError(
                    f"this command takes a single {what}, got {values}")
        return self.policies[0], self.initial_states[0]

    def gammas(self, default: tuple = ()) -> tuple:
        """The configured decay rates, else the command's ``default``, the
        ones a command runs; raises ConfigError when that leaves none, and
        DegenerateRegime when one sits on the critical line."""
        gammas = self.gamma_list if self.gamma_list is not None else default
        if not gammas:
            raise ConfigError("gamma list must not be empty")
        for gamma in gammas:
            self.regime_for(gamma)
        return gammas

    @cached_property
    def pulse_table(self) -> np.ndarray:
        """Columns (t, Omega_R, Delta) of the pulse file, read once."""
        # looked up on the module, where the benchmark tracer wraps it
        return sys.modules[__name__].load_pulse_file(self.pulse_file)

    @property
    def peak_omega(self) -> float:
        """The peak Rabi frequency that picks the branch regime: the largest
        Omega_R sample of a pulse file, else (or if all are 0) omega0."""
        peak = 0.0 if self.pulse_file is None else np.max(self.pulse_table[1])
        return float(peak) if peak > 0 else self.omega0

    @cached_property
    def pulse_splines(self) -> tuple:
        """(value, rate) of the splines through Omega_R and Delta, fitted once."""
        from .readers import cubic_spline
        ts, oms, dls = self.pulse_table
        return cubic_spline(ts, oms), cubic_spline(ts, dls)

    def pulse_for(self, gamma: float) -> PulseSpec:
        """Pulse for one decay rate: sech/tanh by default, else the pulse
        file's cubic splines with their exact derivatives, and constant gamma."""
        if self.pulse_file is None:
            return allen_eberly(self.omega0, self.delta0, self.tau, gamma)
        (omega_r, d_omega_r), (delta, d_delta) = self.pulse_splines
        return PulseSpec(omega_r, delta, d_omega_r, d_delta, gamma)

    def regime_for(self, gamma: float) -> str:
        """The branch regime that labels a decay rate's runs, picked by the
        peak Rabi frequency (:attr:`peak_omega`)."""
        return classify_regime(self.peak_omega, gamma)


def build_config(config_path: Optional[str] = None, **overrides) -> ExperimentConfig:
    """File values, then NH_STA_OUT, then explicit (non-None) overrides,
    each named by its option and read as its type when given as text."""
    values: dict = {}
    if config_path is not None:
        from .readers import parse_config_file
        values.update(parse_config_file(config_path))
    env_out = os.environ.get("NH_STA_OUT")
    if env_out:
        values["out"] = env_out
    for name, value in overrides.items():
        if value is None:
            continue
        refuse_unknown("option", name, tuple(ExperimentConfig.READERS))
        field, kind = ExperimentConfig.READERS[name]
        values[field] = kind(value) if isinstance(value, str) else value
    return ExperimentConfig(**values)


def __getattr__(name: str):  # the pulse reader, on first use (PEP 562)
    if name != "load_pulse_file":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .readers import load_pulse_file
    return load_pulse_file
