"""Engineered fast adiabatic passage for decaying two-level systems.

Builds realizable supplementary Hamiltonians that pin a lossy two-level
system to one instantaneous eigenstate of a chirped pulse, verifies the
construction by direct propagation, and exposes the biorthogonal
decomposition behind it.
"""

__version__ = "0.1.0"

from .biorthogonal import BiorthogonalSystem, decompose, reconstruct
from .errors import (BranchJump, ConfigError, DegenerateRegime,
                     DegenerateSpectrum, InconsistentChoice, NhStaError,
                     NonFinite, SinThetaSingular, TanPole, ZeroGauge)
from .gauges import GaugeFunctions, matched_delta
from .grids import TimeGrid
from .propagation import (AmplitudeTrajectory, StateTrajectory, amplitudes,
                          convergence_check, integrate)
from .synthesis import (assemble_h1_series, closed_form_gplus,
                        frame_coupling, general_family_omega_zero,
                        hermitian_realizable, matched_gauge, naive_cd_entries,
                        nullification_residual)
from .two_level import (AllenEberlyParams, BranchRegime, MixingAnglePath,
                        PulseSpec, allen_eberly, classify_regime,
                        eigenvalue_path, frame_diagonal, mixing_angle_path,
                        radicand)
from .experiments import (ShortcutRun, ShortcutTable, run_shortcut,
                          shortcut_tables, theta_series, zplane_series)

__all__ = [name for name in dir() if not name.startswith("_")]
