"""Exception hierarchy shared by all posetblock modules, and the one integer check."""

from numbers import Integral


class PosetBlockError(Exception):
    """Base class for every error raised by this package."""


class BoundsError(PosetBlockError):
    """A numeric parameter is not an integer, or lies outside its valid range."""


class CycleError(PosetBlockError):
    """The transitive closure of the given relations is not antisymmetric."""


class DimensionError(PosetBlockError):
    """Objects with incompatible ground-set sizes or vector lengths were mixed."""


class ExplosionError(PosetBlockError):
    """An enumeration would exceed its configured cap."""


class PreconditionError(PosetBlockError):
    """A fast-path operation was called on an instance outside its scope."""


class InvalidWeightError(PosetBlockError):
    """A custom weight table violates w(0)=0 or w(a)>0 for a != 0."""


class HypothesisError(PosetBlockError):
    """A theorem-specific hypothesis (unique ideal, s | k, ...) does not hold."""


class NonPrimeError(PosetBlockError):
    """Linear-code operations require a prime alphabet size."""


class TrivialCodeError(PosetBlockError):
    """The zero code has no nonzero codeword to take a minimum over."""


class ConsistencyError(PosetBlockError):
    """Two routes that must agree produced different answers (internal bug trap)."""


class ConfigError(PosetBlockError):
    """A configuration file or CLI argument is malformed."""


class WeightWarning(UserWarning):
    """A custom weight lacks symmetry or subadditivity; the distance may not be a metric."""


def integer(value, what: str) -> int:
    """value as an int if it is a Python or numpy integer: never a bool,
    never rounded or parsed; else BoundsError."""
    if type(value) is int:  # the common case, first: config parsing is hot
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise BoundsError(f"{what} must be an integer, got {value!r}")
