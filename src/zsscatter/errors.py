"""Exception hierarchy for the scattering solver."""


class ZSScatterError(Exception):
    """Base class for all solver errors."""


class NonFiniteValue(ZSScatterError):
    """A numerical sweep produced an overflow, NaN or Inf."""


class DegreeZero(ZSScatterError):
    """Root finding requested for a constant polynomial."""


class NoConvergence(ZSScatterError):
    """Eigenvalue/root iteration failed to converge."""


class RankDeficient(ZSScatterError):
    """Least-squares matrix is numerically rank deficient."""


class NonRealPotential(ZSScatterError):
    """Sampled potential data contains non-real values."""


class DomainTooSmall(ZSScatterError):
    """Sampled potential data does not cover the requested window."""


class BasisDegenerate(ZSScatterError):
    """A Jost solution vanishes at the normalization point x = 0."""


class PoleAtMinusOne(ZSScatterError):
    """The inverse Moebius map is evaluated at its pole z = -1."""


class DivisionNearZero(ZSScatterError):
    """Reflection/transmission requested where |a(rho)| is near zero."""


class DegenerateNormalization(ZSScatterError):
    """Both quotient forms for a norming constant have tiny denominators."""


class MissingSpectrumData(ZSScatterError):
    """Eigenvalues and norming constants that do not match one for one."""


class DenominatorNearZero(ZSScatterError):
    """Potential-recovery denominator vanishes inside the trusted window."""


class UnstableSpectrum(ZSScatterError):
    """Root filters reject most candidates; truncation order too small."""


class InvalidScatteringData(ZSScatterError):
    """Scattering JSON is malformed or inconsistent."""


class UnderdeterminedSystem(ZSScatterError, ValueError):
    """Inverse collocation system with K + M < N + 1; also a ValueError."""
