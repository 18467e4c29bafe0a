"""Engineered fast adiabatic passage for decaying two-level systems.

Builds realizable supplementary Hamiltonians that pin a lossy two-level
system to one instantaneous eigenstate of a chirped pulse, verifies the
construction by direct propagation, and exposes the biorthogonal
decomposition behind it.  The biorthogonal API and the figure series are
imported on first use (PEP 562), so a command compiles only what it runs.

Importing the package pauses the garbage collector while numpy and the
package's modules load, then, unless the caller has frozen objects, moves
every live object into the oldest generation (``gc.freeze()`` then
``gc.unfreeze()``), so no young collection walks the long-lived module
objects.  The collector's enabled flag, thresholds and freeze count are
left as found.
"""
import gc as _gc

__version__ = "0.1.0"

_collecting, _frozen = _gc.isenabled(), _gc.get_freeze_count()
_gc.disable()
try:
    from .errors import (BranchJump, ConfigError, DegenerateRegime,
                         DegenerateSpectrum, InconsistentChoice, NhStaError,
                         NonFinite, SinThetaSingular, TanPole, ZeroGauge)
    from .grids import TimeGrid
    from .propagation import StateTrajectory, convergence_check, integrate
    from .synthesis import (AmplitudeTrajectory, GaugeFunctions, amplitudes,
                            assemble_h1_series, closed_form_gplus,
                            frame_coupling, general_family_omega_zero,
                            hermitian_realizable, matched_delta,
                            matched_gauge, naive_cd_entries,
                            nullification_residual)
    from .two_level import (BranchRegime, MixingAnglePath, PulseSpec,
                            allen_eberly, classify_regime, eigenvalue_path,
                            frame_diagonal, mixing_angle_path, radicand)
    from .experiments import (ShortcutRun, ShortcutTable, run_shortcut,
                              shortcut_tables)
    if not _frozen:
        _gc.freeze()
        _gc.unfreeze()
finally:
    if _collecting:
        _gc.enable()

#: names imported on first use -> their module
_DEFERRED = {"BiorthogonalSystem": "biorthogonal", "biorthogonal": None,
             "decompose": "biorthogonal", "reconstruct": "biorthogonal",
             "theta_series": "figures", "zplane_series": "figures"}

__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | set(_DEFERRED))


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_DEFERRED[name] or name}")
    return getattr(module, name) if _DEFERRED[name] else module
