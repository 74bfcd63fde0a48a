"""Exception types shared across the library, and the rules every value
a caller hands it passes before any work: ``_check_count`` for every
size, count and seed, ``_check_real`` for every real setting (a learning
rate, a noise level, a shortcut scale), ``_check_batch`` for every array
(a batch's inputs and labels, a dataset's sets), ``_check_doubles`` for
anything sized from them, and ``_open_regular`` for every file the
library reads or writes. Each docstring names the error each fault
raises.
"""

import errno
import math
import numbers
import os
import stat

import numpy as np

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


def _check_real(value, what, bound=0, strict=False):
    """Raise ConfigError unless ``value`` is a finite real number at least
    ``bound``, or above it when ``strict``; bools and numpy floats are
    real numbers, as they are counts for ``_check_count``."""
    relation = ">" if strict else ">="
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and (value > bound if strict else value >= bound)):
        raise ConfigError(f"{what} must be a finite real number {relation} {bound}, got {value!r}")


def _check_batch(a, size, classes=None, nonempty=False):
    """``a``, an array a caller passes, once it is checked before any work.

    Without ``classes`` it is a batch's inputs: rows of ``size`` real
    numbers (``size`` None: any width) of a bool, integer or float dtype,
    all finite, returned as a C-contiguous float64 array of the same
    values. With ``classes`` it is their labels: ``size`` integers, one
    per row, each in [0, classes), returned as an array. Each fault
    raises one fixed error:

    - DimensionError: inputs that are not 2-D or not ``size`` wide, or
      labels of another shape than (size,);
    - ContractError: nested sequences of unequal lengths, another dtype
      (complex, str or object inputs; bool or float labels), a NaN or
      infinite input, or inputs of no rows when ``nonempty``;
    - IndexError: a label outside [0, classes).

    NaN and inf are found through min and max, which propagate NaN, so
    finding them makes no temporary the size of ``a``.
    """
    try:
        a = np.asarray(a)
    except ValueError as exc:  # nested sequences of unequal lengths
        raise ContractError(f"not an array: {exc}") from None
    if classes is None:
        if a.ndim != 2 or size not in (None, a.shape[1]):
            raise DimensionError(f"inputs must have shape (rows, {'width' if size is None else size}), got {a.shape}")
        if a.dtype.kind not in "biuf":
            raise ContractError(f"inputs must be real numbers (bool, integer or float), got dtype {a.dtype}")
        if nonempty and not len(a):
            raise ContractError("the set needs at least one row")
        if a.dtype.kind == "f" and a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
            raise ContractError("inputs must be finite, got a NaN or an infinity")
        return np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != (size,):
        raise DimensionError(f"{a.size} labels for {size} rows: labels must have shape ({size},), got {a.shape}")
    if a.dtype.kind not in "iu":
        raise ContractError(f"labels must be integers, got dtype {a.dtype}")
    if size and (a.min() < 0 or a.max() >= classes):
        raise IndexError(f"label out of range [0, {classes})")
    return a


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
