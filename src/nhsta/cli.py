"""Command-line driver: figure pipelines, verification suite, sweeps.

Exit statuses: 0 success, 1 check failure, 2 configuration error,
3 numerical error (non-finite values, branch tracking, degeneracy).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .biorthogonal import decompose, reconstruct
from .config import ExperimentConfig, build_config
from .errors import (BranchJump, ConfigError, DegenerateRegime,
                     DegenerateSpectrum, InconsistentChoice, NonFinite,
                     SinThetaSingular, TanPole, ZeroGauge)
from .experiments import run_shortcut, theta_series, zplane_series
from .grids import TimeGrid
from .propagation import integrate
from .synthesis import POLICY_HERMITIAN
from .two_level import classify_regime

NUMERICAL_ERRORS = (NonFinite, BranchJump, DegenerateRegime, DegenerateSpectrum,
                    TanPole, SinThetaSingular, ZeroGauge, InconsistentChoice)

FIGURE1_DEFAULT_GAMMAS = (0.3, 3.0)
FIGURE2_DEFAULT_GAMMAS = (0.3, 3.0, 0.0)
FIGURE3_DEFAULT_GAMMAS = (0.1, 0.3, 1.0)
FIGURE4_DEFAULT_GAMMAS = (1.0,)
VERIFY_DEFAULT_GAMMAS = (0.1, 0.3, 1.0, 3.0)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(value)
    return f"{float(value):.17g}"


class OutputSet:
    """Collects emitted tables plus run metadata into a manifest."""

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.dir = Path(cfg.out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fmt = cfg.format
        self.command = command
        self.config_echo = asdict(cfg)
        self.files: list = []
        self.runs: list = []

    def emit(self, name: str, header: Sequence[str], columns: Sequence) -> Path:
        cols = [np.asarray(c) if not isinstance(c, (list, tuple)) else c
                for c in columns]
        path = self.dir / f"{name}.{self.fmt}"
        if self.fmt == "csv":
            lines = [",".join(header)]
            for row in zip(*cols):
                lines.append(",".join(_fmt(v) for v in row))
            path.write_text("\n".join(lines) + "\n")
        else:
            rows = [[v if isinstance(v, str) else float(v) for v in row]
                    for row in zip(*cols)]
            path.write_text(json.dumps({"columns": list(header), "rows": rows},
                                       indent=1) + "\n")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files.append({"path": path.name, "sha256": digest})
        return path

    def add_run(self, **meta) -> None:
        self.runs.append(meta)

    def write_manifest(self) -> Path:
        path = self.dir / f"{self.command}_manifest.json"
        payload = {
            "command": self.command,
            "version": __version__,
            "config": self.config_echo,
            "runs": self.runs,
            "files": self.files,
        }
        path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
        return path


def _gamma_tag(gamma: float) -> str:
    return f"{gamma:g}".replace("-", "m")


def _single(values: tuple, what: str) -> str:
    if len(values) != 1:
        raise ConfigError(f"this command takes a single {what}, got {values}")
    return values[0]


def cmd_figure1(cfg: ExperimentConfig) -> int:
    """Radicand trajectories (t, Re Z, Im Z, eta, regime) per decay rate."""
    cfg.validate()
    out = OutputSet(cfg, "figure1")
    t0, t_f = cfg.window
    grid = TimeGrid(t0, t_f, cfg.steps)
    for gamma in cfg.gammas(FIGURE1_DEFAULT_GAMMAS):
        regime = classify_regime(cfg.omega0, gamma)
        pulse = cfg.pulse_for(gamma)
        series = zplane_series(pulse, grid, regime)
        n = grid.n_points
        out.emit(f"figure1_gamma{_gamma_tag(gamma)}",
                 ["t", "re_z", "im_z", "eta", "regime"],
                 [series["t"], series["re_z"], series["im_z"], series["eta"],
                  [regime.value] * n])
        out.add_run(gamma=gamma, regime=regime.value)
    out.write_manifest()
    return 0


def cmd_figure2(cfg: ExperimentConfig) -> int:
    """Complex mixing angle (t, Re theta, Im theta) per decay rate."""
    cfg.validate()
    out = OutputSet(cfg, "figure2")
    t0, t_f = cfg.window
    grid = TimeGrid(t0, t_f, cfg.steps)
    for gamma in cfg.gammas(FIGURE2_DEFAULT_GAMMAS):
        regime = classify_regime(cfg.omega0, gamma) if gamma > 0 else None
        pulse = cfg.pulse_for(gamma)
        series = theta_series(pulse, grid, regime)
        out.emit(f"figure2_gamma{_gamma_tag(gamma)}",
                 ["t", "re_theta", "im_theta"],
                 [series["t"], series["re_theta"], series["im_theta"]])
        out.add_run(gamma=gamma)
    out.write_manifest()
    return 0


def _run_for(cfg: ExperimentConfig, gamma: float, policy: str,
             initial_state: str, with_convergence: bool = True):
    pulse = cfg.pulse_for(gamma)
    t0, t_f = cfg.window
    grid = TimeGrid(t0, t_f, cfg.steps)
    regime = classify_regime(cfg.omega0, gamma)
    started = time.perf_counter()
    run = run_shortcut(pulse, grid, policy=policy, initial_state=initial_state,
                       regime=regime, with_convergence=with_convergence)
    elapsed = time.perf_counter() - started
    return run, elapsed


def cmd_figure3(cfg: ExperimentConfig) -> int:
    """Raw and modified eigenstate populations for the shortcut pipeline."""
    cfg.validate(require_gammas=False)
    out = OutputSet(cfg, "figure3")
    policy = _single(cfg.policies, "policy")
    initial = _single(cfg.initial_states, "initial state")
    for gamma in cfg.gammas(FIGURE3_DEFAULT_GAMMAS):
        run, elapsed = _run_for(cfg, gamma, policy, initial)
        a = run.amps
        out.emit(f"figure3_gamma{_gamma_tag(gamma)}",
                 ["t", "c_plus_sq", "c_minus_sq", "g_plus_sq", "g_minus_sq"],
                 [run.grid.samples,
                  np.abs(a.c_plus) ** 2, np.abs(a.c_minus) ** 2,
                  a.pop_phi_plus, a.pop_phi_minus])
        out.add_run(gamma=gamma, policy=policy, initial_state=initial,
                    wall_time_s=elapsed, **run.metrics)
    out.write_manifest()
    return 0


def cmd_figure4(cfg: ExperimentConfig) -> int:
    """Bare-state populations, raw and renormalized."""
    cfg.validate(require_gammas=False)
    out = OutputSet(cfg, "figure4")
    policy = _single(cfg.policies, "policy")
    initial = _single(cfg.initial_states, "initial state")
    for gamma in cfg.gammas(FIGURE4_DEFAULT_GAMMAS):
        run, elapsed = _run_for(cfg, gamma, policy, initial)
        a = run.amps
        out.emit(f"figure4_gamma{_gamma_tag(gamma)}",
                 ["t", "p0", "p1", "p0_plus_p1", "p0_renorm", "p1_renorm"],
                 [run.grid.samples, a.pop_bare_0, a.pop_bare_1,
                  a.pop_bare_0 + a.pop_bare_1,
                  a.pop_bare_0_renorm, a.pop_bare_1_renorm])
        out.add_run(gamma=gamma, policy=policy, initial_state=initial,
                    wall_time_s=elapsed, **run.metrics)
    out.write_manifest()
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Cross-product gamma x policy x initial state, one metrics row each.

    Runs are independent pure computations (safe to parallelize); executed
    sequentially here and assembled into a single table.
    """
    cfg.validate(require_gammas=True)
    out = OutputSet(cfg, "sweep")
    header = ["gamma", "policy", "initial_state", "regime", "g_plus_sq_final",
              "p0_renorm_final", "p1_final", "max_abs_g_minus", "max_residual",
              "convergence"]
    rows: list = []
    for gamma in cfg.gammas():
        for policy in cfg.policies:
            for initial in cfg.initial_states:
                run, elapsed = _run_for(cfg, gamma, policy, initial)
                m = run.metrics
                rows.append([gamma, policy, initial, m["regime"],
                             m["g_plus_sq_final"], m["p0_renorm_final"],
                             m["p1_final"], m["max_abs_g_minus"],
                             m["max_residual"], m["convergence"]])
                out.add_run(gamma=gamma, policy=policy, initial_state=initial,
                            wall_time_s=elapsed, **m)
    out.emit("sweep", header, list(map(list, zip(*rows))))
    out.write_manifest()
    return 0


def _verify_checks(cfg: ExperimentConfig):
    """Yield (name, measured, bound, ok) for the self-verification suite."""
    rng = np.random.default_rng(7)
    bio = comp = rtrip = 0.0
    count = 0
    while count < 60:
        dim = int(rng.integers(2, 5))
        m = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        try:
            sys_ = decompose(m, degeneracy_threshold=1e-6)
        except DegenerateSpectrum:
            continue
        count += 1
        bio = max(bio, sys_.biorthogonality_defect())
        comp = max(comp, sys_.completeness_defect())
        rtrip = max(rtrip, float(np.max(np.abs(reconstruct(sys_) - m))))
    yield "biorthogonality[random-corpus]", bio, 1e-10, bio <= 1e-10
    yield "completeness[random-corpus]", comp, 1e-10, comp <= 1e-10
    yield "round-trip[random-corpus]", rtrip, 1e-10, rtrip <= 1e-10

    h_rabi = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    psi0 = np.array([1, 0], dtype=complex)

    def rabi_error(steps):
        grid = TimeGrid(0.0, 10.0, steps)
        traj = integrate(lambda t: h_rabi, psi0, grid)
        exact = np.array([np.cos(5.0), -1j * np.sin(5.0)])
        return float(np.max(np.abs(traj.psi[-1] - exact)))

    ratio = rabi_error(500) / rabi_error(1000)
    yield "rk4-order[rabi]", ratio, "within [8, 32]", 8.0 <= ratio <= 32.0

    h_decay = 0.5 * np.array([[0, 0], [0, -1j]], dtype=complex)
    traj = integrate(lambda t: h_decay, np.array([0, 1], dtype=complex),
                     TimeGrid(0.0, 2.0, 4000))
    rel = abs(abs(traj.psi[-1, 1]) - np.exp(-1.0)) / np.exp(-1.0)
    yield "decay-exact[relative]", rel, 1e-8, rel <= 1e-8

    for gamma in cfg.gammas(VERIFY_DEFAULT_GAMMAS):
        pulse = cfg.pulse_for(gamma)
        t0, t_f = cfg.window
        grid = TimeGrid(t0, t_f, cfg.steps)
        regime = classify_regime(cfg.omega0, gamma)
        run = run_shortcut(pulse, grid, policy=POLICY_HERMITIAN,
                           regime=regime, with_convergence=True,
                           with_frame_check=True)
        tag = f"gamma={gamma:g}"
        res = run.residual.max_abs_residual
        yield f"nullification-residual[{tag}]", res, 1e-10, res <= 1e-10
        coupling = float(np.max(run.residual.frame_coupling))
        yield f"frame-coupling-21[{tag}]", coupling, 1e-6, coupling <= 1e-6
        gm = float(np.max(np.abs(run.amps.g_minus)))
        yield f"max-abs-g-minus[{tag}]", gm, 1e-5, gm <= 1e-5
        gp_dev = float(np.max(np.abs(run.amps.pop_phi_plus - 1.0)))
        yield f"g-plus-sq-dev[{tag}]", gp_dev, 0.05, gp_dev <= 0.05
        closed = float(np.max(np.abs(run.amps.g_plus - run.g_plus_closed)))
        yield f"closed-form-vs-ode[{tag}]", closed, 1e-5, closed <= 1e-5
        conv = run.convergence
        yield f"convergence[{tag}]", conv, 1e-7, conv <= 1e-7


def cmd_verify(cfg: ExperimentConfig) -> int:
    """Run the invariant suite; nonzero exit status on any failure."""
    cfg.validate()
    failures = 0
    for name, measured, bound, ok in _verify_checks(cfg):
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        if isinstance(measured, float):
            print(f"{status}  {name}  measured={measured:.3e}  bound={bound}")
        else:
            print(f"{status}  {name}  measured={measured}  bound={bound}")
    total = "all checks passed" if failures == 0 else f"{failures} check(s) FAILED"
    print(f"verify: {total}")
    return 0 if failures == 0 else 1


COMMANDS = {
    "figure1": cmd_figure1,
    "figure2": cmd_figure2,
    "figure3": cmd_figure3,
    "figure4": cmd_figure4,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nh-sta",
        description="Engineered fast passage for a decaying two-level system: "
                    "figure pipelines, parameter sweeps, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--gamma", help="comma-separated decay rates (1/tau)")
        p.add_argument("--steps", type=int, help="grid intervals (>= 100)")
        p.add_argument("--t-final", dest="t_final", type=float,
                       help="window end; start defaults to -t_final")
        p.add_argument("--t0", type=float, help="window start")
        p.add_argument("--omega0", type=float, help="pulse amplitude (1/tau)")
        p.add_argument("--delta0", type=float, help="chirp range (1/tau)")
        p.add_argument("--tau", type=float, help="characteristic duration")
        p.add_argument("--policy", help=f"supplement policy; sweep accepts a "
                                        f"comma list (default {POLICY_HERMITIAN})")
        p.add_argument("--initial-state", dest="initial_state",
                       help="eigen-plus | bare-ground; sweep accepts a comma list")
        p.add_argument("--pulse-file", dest="pulse_file",
                       help="tabulated pulse (columns t, Omega_R, Delta)")
        p.add_argument("--out", help="output directory (or env NH_STA_OUT)")
        p.add_argument("--format", choices=["csv", "json"], help="table format")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(
            config_path=args.config,
            gamma=args.gamma,
            steps=args.steps,
            t_final=args.t_final,
            t0=args.t0,
            omega0=args.omega0,
            delta0=args.delta0,
            tau=args.tau,
            policy=args.policy,
            initial_state=args.initial_state,
            pulse_file=args.pulse_file,
            out=args.out,
            format=args.format,
        )
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
