"""Uniform time grids: plain records that paths, gauges and runs share."""
from __future__ import annotations

import math

import numpy as np


class TimeGrid:
    """Uniform grid of ``steps`` intervals (``steps + 1`` samples) on [t0, t_f].

    Samples are built as the exact affine blend ((steps-k)*t0 + k*t_f)/steps so
    that a symmetric window [-T, T] contains t = 0.0 exactly.
    """

    __slots__ = ("t0", "t_f", "steps")

    def __init__(self, t0: float, t_f: float, steps: int):
        if not (math.isfinite(t0) and math.isfinite(t_f)):
            raise ValueError(f"need a finite window, got [{t0}, {t_f}]")
        if not t0 < t_f:
            raise ValueError(f"need t0 < t_f, got [{t0}, {t_f}]")
        if steps < 2:
            raise ValueError(f"need steps >= 2, got {steps}")
        self.t0, self.t_f, self.steps = t0, t_f, steps

    @property
    def step(self) -> float:
        return (self.t_f - self.t0) / self.steps

    @property
    def n_points(self) -> int:
        return self.steps + 1

    @property
    def samples(self) -> np.ndarray:
        k = np.arange(self.steps + 1, dtype=float)
        return ((self.steps - k) * self.t0 + k * self.t_f) / self.steps

    def refine(self, factor: int) -> "TimeGrid":
        """Same window with ``factor`` times as many intervals."""
        return TimeGrid(self.t0, self.t_f, self.steps * factor)

    def index_of(self, t: float, tol: float = 1e-9) -> int | None:
        """Index of the sample equal to ``t`` within ``tol`` step units, else None."""
        x = (t - self.t0) / self.step
        j = int(round(x))
        if 0 <= j <= self.steps and abs(x - j) < tol:
            return j
        return None


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integral of samples ``y`` spaced ``dx``, from 0; the
    formula of scipy's ``cumulative_trapezoid(y, dx=dx, initial=0)``."""
    y = np.asarray(y)
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))
