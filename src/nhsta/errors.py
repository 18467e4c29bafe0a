"""Exception types shared across the package."""


class NhStaError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(NhStaError):
    """A matrix, control value, or propagated state contains NaN/Inf."""


class DegenerateSpectrum(NhStaError):
    """Eigenvalues closer than the degeneracy threshold."""


class DegenerateRegime(NhStaError):
    """Decay rate sits on the critical line gamma = 2*omega0 (or |Z| ~ 0)."""


class BranchJump(NhStaError):
    """Branch-continuous tracking failed (grid too coarse or cut conflict)."""


class TanPole(NhStaError):
    """Mixing-angle rate undefined: (Delta - i*gamma/2)^2 + Omega_R^2 ~ 0."""


class SinThetaSingular(NhStaError):
    """Unguardable 0/0 in the gauge/supplement ratio Im[dtheta]/Re[sin theta]."""


class ZeroGauge(NhStaError):
    """A gauge function vanished; frame rotation not invertible."""


class InconsistentChoice(NhStaError):
    """User-supplied family functions make the pointwise system unsolvable."""


class ConfigError(NhStaError):
    """Invalid experiment configuration."""
