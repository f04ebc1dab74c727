"""The parameter checks that the modules of the package share, one of each kind.

This module imports only `math` and `numpy`, so every module reaches it, the
elliptic functions too.  A check refuses a bad value with one ValueError whose
one-line message names the parameter, and returns the value as its caller
computes with it.  A real number is a Python int or float that is not a bool,
a NumPy integer or floating scalar, or a 0-d array of one, and fits a float.
"""

import math

import numpy as np


def _real_scalar(x) -> float:
    """`x` as a float when it is a real number, else nan, which the range
    checks below refuse as they refuse a nan."""
    if type(x) is float:
        return x
    if isinstance(x, (float, int, np.floating, np.integer)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            return math.nan
    if isinstance(x, np.ndarray) and x.ndim == 0 and x.dtype.kind in "fiu":
        return float(x)
    return math.nan


def _shown(x) -> str:
    """`x` for a one-line message: its repr, or the shape of an array."""
    return f"an array of shape {x.shape}" if isinstance(x, np.ndarray) else repr(x)


def _check_real(x, name: str):
    """The real-number gate: `x` as a float when it is a real number, else as
    a float array (a float64 array as it is).  Complex, bool and string arrays
    are refused by their dtype, an object array (huge or mixed Python numbers)
    by the cast.  Input that is not an ndarray, and an object array, are read
    element by element too: numpy reads a bool among numbers as 0/1, and the
    cast of an object array reads True and "1" as 1.0."""
    value = _real_scalar(x)
    if not math.isnan(value):
        return value
    arr = np.asarray(x)
    dtype = arr.dtype
    if dtype.kind == "O" or (dtype.kind in "fiu" and not isinstance(x, np.ndarray)):
        dtype = next((np.asarray(v).dtype for v in np.asarray(x, dtype=object).flat
                      if isinstance(v, (bool, np.bool_, str, bytes))), dtype)
    if dtype.kind not in "fiuO":
        raise ValueError(f"{name} must be real numbers, got {dtype} values")
    try:
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be real numbers that fit a float") from None


def _check_finite(x, name: str):
    """`_check_real` of `x`, refusing a nan or an infinity and naming the first."""
    x = _check_real(x, name)
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise ValueError(f"{name} must be finite, got {np.asarray(x)[~np.isfinite(x)].flat[0]}")
    return x


def _check_number(x, name: str) -> float:
    """A finite real number, as a float."""
    value = _real_scalar(x)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number")
    return value


def _check_positive(x, name: str) -> float:
    """A tolerance, a step or a size: a finite positive real number."""
    value = _real_scalar(x)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive")
    return value


def _check_lambda(lam) -> float:
    """The length penalty: a finite nonnegative real number."""
    value = _real_scalar(lam)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("lambda must be finite and nonnegative")
    return value


def _check_m(m) -> float:
    """The elliptic parameter: a real number in (0, 1)."""
    value = _real_scalar(m)
    if not 0.0 < value < 1.0:
        raise ValueError(f"parameter m must lie in the open interval (0,1), got {_shown(m)}")
    return value


def _check_int(value, low: int, name: str) -> None:
    """A count: an integer (not a bool) >= low."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}")


def _check_closed(closed) -> bool:
    """The open/closed flag: a bool or numpy bool, as a Python bool."""
    if not isinstance(closed, (bool, np.bool_)):
        raise ValueError("closed must be true or false")
    return bool(closed)
