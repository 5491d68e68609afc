"""Exception types shared across the package."""


class SwagError(Exception):
    """Base class for all package errors."""


class LoadError(SwagError):
    """A dataset file is missing or unreadable."""


class FormatError(SwagError):
    """A dataset file exists but its contents are malformed."""


class ContractError(SwagError):
    """An operation was called with arguments violating its contract."""


class ConfigError(SwagError):
    """A configuration value is out of range or inconsistent."""


class NumericalError(SwagError):
    """A numerical routine failed to converge, or its input's scale lies
    beyond the float range."""


class TapeError(SwagError):
    """Backward pass invoked on a consumed or invalid graph."""


class TrainingError(SwagError):
    """A training run hit an unrecoverable state (e.g. NaN loss)."""
