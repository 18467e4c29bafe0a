"""Engineered fast adiabatic passage for decaying two-level systems.

Builds realizable supplementary Hamiltonians that pin a lossy two-level
system to one instantaneous eigenstate of a chirped pulse, verifies the
construction by direct propagation, and exposes the biorthogonal
decomposition behind it.  The package loads neither that decomposition
(:mod:`nhsta.biorthogonal`) nor the figure series (:mod:`nhsta.figures`):
import them from their modules, so a command compiles only what it runs.

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
    from .synthesis import (amplitudes, closed_form_gplus, frame_coupling,
                            general_family_omega_zero, hermitian_realizable,
                            matched_gauge, naive_cd_entries,
                            nullification_residual)
    from .two_level import (MixingAnglePath, PulseSpec, allen_eberly,
                            classify_regime, eigenvalue_path, frame_diagonal,
                            mixing_angle_path, radicand)
    from .experiments import (ShortcutRun, ShortcutTable, run_shortcut,
                              shortcut_tables)
    if not _frozen:
        _gc.freeze()
        _gc.unfreeze()
finally:
    if _collecting:
        _gc.enable()

__all__ = sorted(name for name in dir() if not name.startswith("_"))
