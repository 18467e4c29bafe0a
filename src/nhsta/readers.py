"""The file readers: a ``--pulse-file`` table and its cubic splines, and a
flat ``key = value`` ``--config`` file, each found, opened and refused by
``_read``.  :mod:`nhsta.config` imports this module only when a run names
one of those files."""
from __future__ import annotations

import warnings
from functools import partial
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, refuse_unknown


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


def _read(kind: str, path: str, read, malformed: str):
    """``read(Path(path))``; a missing, non-file or unreadable ``kind`` file,
    or a ValueError from ``read`` (the file is ``malformed``), is refused."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{kind} file {path!r} not found")
    if not p.is_file():
        raise ConfigError(f"{kind} file {path!r} is not a file")
    try:
        return read(p)
    except ValueError:
        raise ConfigError(f"{kind} file {path!r} {malformed}") from None
    except OSError as exc:
        raise ConfigError(f"{kind} file {path!r} cannot be read: "
                          f"{exc.strerror}") from None


def _load_table(p: Path) -> np.ndarray:
    """The rows of a comma- or else whitespace-separated numeric table."""
    with warnings.catch_warnings():  # load_pulse_file refuses an empty table
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(p, delimiter=",", ndmin=2)
        except ValueError:
            return np.loadtxt(p, ndmin=2)


def load_pulse_file(path: str) -> np.ndarray:
    """The checked columns (t, Omega_R, Delta) of a three-column pulse
    table, shape (3, rows)."""
    data = _read("pulse", path, _load_table,
                 "holds a non-numeric cell or a header row")
    if data.size == 0:
        raise ConfigError(f"pulse file {path!r} holds no rows")
    if data.shape[1] < 3:
        raise ConfigError(f"pulse file {path!r} must have columns t, Omega_R, Delta")
    if len(data) < 4:  # a not-a-knot cubic spline needs four knots
        raise ConfigError(f"pulse file {path!r} needs at least 4 rows for a "
                          f"cubic spline, got {len(data)}")
    ts, oms = data[:, 0], data[:, 1]
    if np.any(np.diff(ts) <= 0):
        raise ConfigError(f"pulse file {path!r}: times must be strictly increasing")
    if np.any(oms < 0):
        raise ConfigError(f"pulse file {path!r}: Rabi frequencies must be >= 0")
    if not np.all(np.isfinite(data[:, :3])):
        raise ConfigError(f"pulse file {path!r} holds a non-finite value")
    return data[:, :3].T


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; unknown keys error."""
    lines = _read("config", path,
                  lambda p: p.read_text(encoding="utf-8").splitlines(),
                  "is not UTF-8 text")
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        try:
            refuse_unknown("key", key, tuple(ExperimentConfig.READERS))
            field, kind = ExperimentConfig.READERS[key]
            values[field] = kind(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") \
                from None
        except ConfigError as exc:  # an unknown key or a list reader's fault
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values
