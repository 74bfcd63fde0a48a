"""Exception types shared across the library, the one integer check that
every size, count and seed the library takes passes, the size check, and
the one rule by which the library opens a file a caller names."""

import errno
import numbers
import os
import stat

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


def _check_count(value, what, least=0):
    """Raise ConfigError unless ``value`` is an integer >= ``least``, before
    anything is sized or drawn from it; a seed's least is 0."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")


# the most float64 values a model, what one forward of a batch adds to it
# (both counted by blocks._footprint) or a synthetic dataset may hold: 2**24
# doubles, 128 MiB, 110 times a depth-16, width-64 2rSkip+LN model's 1.5e5
MAX_DOUBLES = 1 << 24


def _check_doubles(count, what):
    """Raise ConfigError when ``what`` would hold more than MAX_DOUBLES
    float64 values; run it on a closed-form count, before allocating."""
    if count > MAX_DOUBLES:
        raise ConfigError(f"{what} would hold {count:.3g} doubles, more than the {MAX_DOUBLES} allowed")


def _open_regular(path, flags):
    """The fd of ``os.open(path, flags)``, opened without blocking, or
    OSError "<path>: not a regular file" for a FIFO, socket, device or
    directory, whose read or write could wait or mislead; the kernel's own
    refusals, such as EISDIR for a directory opened to write, keep theirs."""
    try:
        fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        if exc.errno == errno.ENXIO:  # a FIFO with no reader, or a socket
            raise OSError(f"{path}: not a regular file") from None
        raise
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError(f"{path}: not a regular file")
    return fd
