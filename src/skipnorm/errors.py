"""Exception types shared across the library, and the seed check."""

import numbers

__all__ = ["DimensionError", "ContractError", "ConfigError", "FormatError", "SingularRatioError"]


class DimensionError(ValueError):
    """Operand shapes are incompatible and not trailing-axis broadcastable."""


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


class ConfigError(ValueError):
    """Invalid model or experiment configuration."""


class FormatError(ValueError):
    """A data file does not match the expected binary layout."""


class SingularRatioError(ValueError):
    """A normalization gain entry is exactly zero, making the ratio undefined."""


def _check_seed(seed):
    """Raise ConfigError unless ``seed`` is an integer >= 0, as
    ``np.random.default_rng`` requires; run it before any random draw."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
