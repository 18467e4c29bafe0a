"""Exception types shared across the package, and the one refusal of an
unknown name (:func:`refuse_unknown`)."""


class NhStaError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(NhStaError):
    """A matrix, control value, or propagated state contains NaN/Inf."""


class DegenerateSpectrum(NhStaError):
    """Eigenvalues closer than the degeneracy threshold."""


class DegenerateRegime(NhStaError):
    """Decay rate sits on the critical line gamma = 2*omega0."""


class BranchJump(NhStaError):
    """Branch-continuous tracking failed (grid too coarse)."""


class TanPole(NhStaError):
    """Mixing-angle rate undefined: (Delta - i*gamma/2)^2 + Omega_R^2 ~ 0."""


class SinThetaSingular(NhStaError):
    """Re[sin theta] ~ 0 where Im[dtheta] survives: no hermitian split."""


class ZeroGauge(NhStaError):
    """A gauge function vanished; frame rotation not invertible."""


class InconsistentChoice(NhStaError):
    """sin(theta) ~ 0 where dtheta survives: no zero-drive split."""


class ConfigError(NhStaError):
    """Invalid experiment configuration."""


def refuse_unknown(what: str, name, known) -> None:
    """Raise ConfigError naming ``name`` and the choices unless it is one
    of ``known``."""
    if name not in known:
        raise ConfigError(f"unknown {what} {name!r}; choose from {known}")
