"""Time a fixed CPU kernel: how fast this host runs Python and numpy now.

Usage: python3 bench/calibrate.py

A small server for ``run.py``.  After one warm-up pass it reads standard
input line by line; for each line it runs the kernel once and prints the
pass's wall and CPU seconds on one line.  It exits at end of input.

The kernel never touches nh-sta, so a change to the program leaves it alone,
while a host that runs everything slower (other tenants on the same physical
core, a lower clock) slows it about as much as the program.  ``run.py`` runs
a pass before, during and after each timed invocation, on the same CPU, and
scales the invocation's times by reference pass time / measured pass time.

The kernel has the instruction mix of nh-sta's hot loop: an interpreted
fixed-step RK4 of a driven, decaying two-level system on 2-element complex
arrays (interpreter dispatch, scalar math, tiny numpy calls), plus one pass
of vectorised transcendental math over a larger array.
"""
import math
import sys
import time

import numpy as np

STEPS = 250
BULK_POINTS = 40_000


def hamiltonian(t):
    om = 1.0 / math.cosh(t)
    dl = 9.0 * math.tanh(t)
    return np.array([[0.0, 0.5 * om], [0.5 * om, dl - 0.15j]])


def kernel():
    h = 2.0 / STEPS
    psi = np.array([1.0, 0.0], dtype=complex)
    for k in range(STEPS):
        t = -1.0 + k * h
        k1 = -1j * (hamiltonian(t) @ psi)
        k2 = -1j * (hamiltonian(t + 0.5 * h) @ (psi + 0.5 * h * k1))
        k3 = -1j * (hamiltonian(t + 0.5 * h) @ (psi + 0.5 * h * k2))
        k4 = -1j * (hamiltonian(t + h) @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    x = np.linspace(-1.0, 1.0, BULK_POINTS)
    bulk = float(np.sum(np.cosh(x) * np.tanh(x) ** 2))
    return abs(psi[0]) ** 2 + abs(psi[1]) ** 2 + bulk


def main():
    expect = kernel()  # warm-up; the result is fixed
    for _ in sys.stdin:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if kernel() != expect:
            raise SystemExit("calibration kernel is not deterministic")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        print(f"{wall!r} {cpu!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
