"""Exception types raised across the simulator.

Everything derives from QwalkError so callers (and the CLI) can catch
simulator failures in one place without swallowing genuine bugs.
"""

__all__ = [
    "QwalkError",
    "ModeCollision",
    "DimensionMismatch",
    "EtaOutOfRange",
    "IndexOutOfRange",
    "SingularMatrix",
    "NumericalInstability",
    "DuplicateGateBin",
    "ZeroHeraldRate",
    "CutoffTooSmall",
    "ResourceBound",
    "LabelMismatch",
    "NotNormalized",
    "ConfigInvalid",
    "IoError",
    "OracleMismatch",
]


class QwalkError(Exception):
    """Base class for simulator-specific errors."""


class ModeCollision(QwalkError):
    """Two sources target the same optical mode."""


class DimensionMismatch(QwalkError):
    """An operator or vector does not match the state's mode count."""


class EtaOutOfRange(QwalkError):
    """A transmission or efficiency lies outside its allowed interval."""


class IndexOutOfRange(QwalkError):
    """A mode label or flat index does not exist in the register."""


class SingularMatrix(QwalkError):
    """A covariance block that must be invertible is singular."""


class NumericalInstability(QwalkError):
    """A probability computation left its trusted numerical regime."""


class DuplicateGateBin(QwalkError):
    """Two enabled gates were configured on the same time bin."""


class ZeroHeraldRate(QwalkError):
    """Conditioning on a herald click that can never fire."""


class CutoffTooSmall(QwalkError):
    """Fock truncation leak exceeds the configured bound."""


class ResourceBound(QwalkError):
    """The oracle request exceeds its practical size limits."""


class LabelMismatch(QwalkError):
    """Two distributions do not share the same outcome labels."""


class NotNormalized(QwalkError):
    """A distribution that must sum to one does not."""


class ConfigInvalid(QwalkError):
    """A run configuration fails schema or consistency checks."""


class IoError(QwalkError):
    """Reading or writing a run artifact failed."""


class OracleMismatch(QwalkError):
    """Gaussian-engine and Fock-oracle probabilities disagree beyond tolerance."""
