"""Experiment configuration.  ``OPTIONS`` declares each option once; the
CLI's flags, the keys of a flat ``key = value`` file, ``ExperimentConfig``'s
fields and the manifest's echo of them all come from it."""
from __future__ import annotations

import math
import os
import warnings
from functools import cached_property, partial
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
MIN_STEPS = 100
#: numpy cannot size a longer quarter grid: 4 * steps + 1 complex samples
MAX_STEPS = (np.iinfo(np.intp).max // 16 - 1) // 4


def _comma_list(text: str) -> tuple:
    """The stripped, non-blank items of a comma-separated list."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_gamma_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in _comma_list(text))
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
        for field, (_, _, default, _) in zip(self.FIELDS, OPTIONS):
            setattr(self, field, values.pop(field, default))
        if values:
            raise ConfigError(f"unknown option {next(iter(values))!r}")

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
        if self.format not in OUTPUT_FORMATS:
            raise ConfigError(f"format must be one of {OUTPUT_FORMATS}")
        for what, values, known in (
                ("policy", self.policies, POLICIES),
                ("initial state", self.initial_states, INITIAL_STATES)):
            if not values:
                raise ConfigError(f"{what} list must not be empty")
            for value in values:
                if value not in known:
                    raise ConfigError(
                        f"unknown {what} {value!r}; choose from {known}")
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
        if self.pulse_file is not None:
            # the splines would extrapolate Omega_R and Delta outside the table
            ts = self.pulse_table[0]
            if ts[0] > t0 or ts[-1] < t_f:
                raise ConfigError(
                    f"pulse file {self.pulse_file!r} covers t in "
                    f"[{float(ts[0])}, {float(ts[-1])}], not the run window "
                    f"[{t0}, {t_f}]")
        for g in gammas:
            if g < 0:
                raise ConfigError(f"gamma must be >= 0, got {g}")
            # surfaces DegenerateRegime for gamma on the critical line
            classify_regime(self.peak_omega, g)

    @property
    def policies(self) -> tuple:
        return _comma_list(self.policy)

    @property
    def initial_states(self) -> tuple:
        return _comma_list(self.initial_state)

    def gammas(self, default: tuple = ()) -> tuple:
        """The configured decay rates, else the command's ``default``;
        raises ConfigError when that leaves none."""
        gammas = self.gamma_list if self.gamma_list is not None else default
        if not gammas:
            raise ConfigError("gamma list must not be empty")
        return gammas

    @cached_property
    def pulse_table(self) -> np.ndarray:
        """Columns (t, Omega_R, Delta) of the pulse file, read once."""
        return load_pulse_file(self.pulse_file)

    @property
    def peak_omega(self) -> float:
        """The peak Rabi frequency that picks the branch regime: the largest
        Omega_R sample of a pulse file, else (or if all are 0) omega0."""
        peak = 0.0 if self.pulse_file is None else np.max(self.pulse_table[1])
        return float(peak) if peak > 0 else self.omega0

    @cached_property
    def pulse_splines(self) -> tuple:
        """(value, rate) of the splines through Omega_R and Delta, fitted once."""
        ts, oms, dls = self.pulse_table
        return cubic_spline(ts, oms), cubic_spline(ts, dls)

    def pulse_for(self, gamma: float) -> PulseSpec:
        """Pulse for one decay rate: sech/tanh by default, else the pulse
        file's cubic splines with their exact derivatives, and constant gamma."""
        if self.pulse_file is None:
            return allen_eberly(AllenEberlyParams(self.omega0, self.delta0,
                                                  self.tau, gamma))
        (omega_r, d_omega_r), (delta, d_delta) = self.pulse_splines

        def gamma_fn(t):
            return np.full_like(np.asarray(t, dtype=float), gamma)

        return PulseSpec(omega_r=omega_r, delta=delta, gamma=gamma_fn,
                         d_omega_r=d_omega_r, d_delta=d_delta,
                         d_gamma=np.zeros_like)


def cubic_spline(x: np.ndarray, y: np.ndarray) -> tuple:
    """(value, rate) functions of the not-a-knot cubic spline through (x, y),
    for at least four increasing knots (de Boor, *A Practical Guide to
    Splines*, 1978).  A Thomas recurrence solves the tridiagonal system for
    the knot slopes s; its pivots stay positive for any knot spacing."""
    h = np.diff(x)
    m = np.diff(y) / h  # chord slopes
    d0, d1 = h[0] + h[1], h[-1] + h[-2]
    sub = np.r_[h[1:], d1].tolist()  # coefficient of s[i - 1] in row i
    diag = np.r_[h[1], 2.0 * (h[:-1] + h[1:]), h[-2]].tolist()
    sup = np.r_[d0, h[:-1]].tolist()  # coefficient of s[i + 1] in row i
    s = np.r_[((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0,
              3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:]),
              (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1
              ].tolist()
    for i in range(1, len(s)):
        w = sub[i - 1] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        s[i] -= w * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(len(s) - 2, -1, -1):
        s[i] = (s[i] - sup[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    # piece k is y[k] + s[k]*u + c2[k]*u**2 + c3[k]*u**3 with u = t - x[k];
    # the last knot's piece is its tangent, so every knot is read at u = 0
    c2 = np.r_[(3.0 * m - 2.0 * s[:-1] - s[1:]) / h, 0.0]
    c3 = np.r_[(s[:-1] + s[1:] - 2.0 * m) / h**2, 0.0]

    def spline(t, order):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(h))
        u = t - x[k]
        if order:
            return s[k] + u * (2.0 * c2[k] + 3.0 * u * c3[k])
        return y[k] + u * (s[k] + u * (c2[k] + u * c3[k]))

    return partial(spline, order=0), partial(spline, order=1)


def load_pulse_file(path: str) -> np.ndarray:
    """The checked columns (t, Omega_R, Delta) of a three-column pulse
    table, shape (3, rows)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"pulse file {path!r} not found")
    if not p.is_file():
        raise ConfigError(f"pulse file {path!r} is not a file")
    try:
        with warnings.catch_warnings():  # an empty table is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(p, delimiter=",", ndmin=2)
            except ValueError:
                data = np.loadtxt(p, ndmin=2)
    except ValueError:
        raise ConfigError(f"pulse file {path!r} holds a non-numeric cell "
                          f"or a header row") from None
    except OSError as exc:
        raise ConfigError(f"pulse file {path!r} cannot be read: "
                          f"{exc.strerror}") from None
    if data.size == 0:
        raise ConfigError(f"pulse file {path!r} holds no rows")
    if data.shape[1] < 3:
        raise ConfigError(f"pulse file {path!r} must have columns t, Omega_R, Delta")
    if len(data) < 4:  # a not-a-knot cubic spline needs four knots
        raise ConfigError(f"pulse file {path!r} needs at least 4 rows for a "
                          f"cubic spline, got {len(data)}")
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
    if not p.is_file():
        raise ConfigError(f"config file {path!r} is not a file")
    try:
        lines = p.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"config file {path!r} cannot be read: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path!r} is not UTF-8 text") from None
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in ExperimentConfig.READERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        field, kind = ExperimentConfig.READERS[key]
        try:
            values[field] = kind(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") \
                from None
    return values


def build_config(config_path: Optional[str] = None, **overrides) -> ExperimentConfig:
    """File values, then NH_STA_OUT, then explicit (non-None) overrides,
    each named by its option and read as its type when given as text."""
    values: dict = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    env_out = os.environ.get("NH_STA_OUT")
    if env_out:
        values["out"] = env_out
    for name, value in overrides.items():
        if value is None:
            continue
        if name not in ExperimentConfig.READERS:
            raise ConfigError(f"unknown option {name!r}")
        field, kind = ExperimentConfig.READERS[name]
        values[field] = kind(value) if isinstance(value, str) else value
    return ExperimentConfig(**values)
