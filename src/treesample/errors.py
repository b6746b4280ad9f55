"""Exception types shared across the package, and one rule each for overflow,
integers, real numbers and choices: :func:`exact_sums` takes every exact sum,
:func:`require_finite`, :func:`_require_int`, :func:`_require_real` and
:func:`_require_choice` check every value that must be finite or of that kind."""

import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: bad weight spec, depth, norm, or flag combination."""


class DatasetError(ValueError):
    """Malformed graph data: parse failures, shape mismatches, invariant violations."""


class CacheMismatchError(RuntimeError):
    """A distance cache exists but was built under different parameters or data."""


class NumericalOverflowError(ArithmeticError):
    """A computation overflowed to infinity instead of returning a finite value."""


def _overflow(what: str) -> NumericalOverflowError:
    return NumericalOverflowError(f"{what} overflowed: the value is not finite; reduce "
                                  "the depth, the level weights, eta or the feature scale")


def exact_sums(rows, what: str) -> np.ndarray:
    """``math.fsum`` of each row of ``rows`` (a 2-D array or an iterable of
    sequences), as a float64 array.  A sum of finite terms past the float
    range raises :class:`NumericalOverflowError` naming ``what``, with the
    ``OverflowError`` as its cause; a non-finite term only makes its sum
    non-finite, for the caller to report."""
    try:
        return np.fromiter(map(math.fsum, rows.tolist() if isinstance(rows, np.ndarray)
                               else rows), dtype=np.float64)
    except OverflowError as exc:
        raise _overflow(what) from exc


def require_finite(values, what: str):
    """``values``, a scalar or an array, if every entry is finite; otherwise
    :class:`NumericalOverflowError` naming ``what``."""
    if not np.isfinite(values).all():
        raise _overflow(what)
    return values


def _is_int(x) -> bool:
    """A Python or numpy integer (``bool`` is neither)."""
    return type(x) is int or isinstance(x, np.integer)


def _require_int(value, name: str, low: int, high: int | None) -> int:
    """``value`` as an ``int`` if it is an integer in ``low..high`` (no upper
    end for ``None``); otherwise :class:`ConfigError` naming ``name``."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if high is None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    if high is not None and high < low:
        raise ConfigError(f"no {name} is valid, got {value}")
    if high is not None and not low <= value <= high:
        raise ConfigError(f"{name} must be in {low}..{high}, got {value}")
    return int(value)


def _require_real(value, name: str) -> float:
    """``value`` as a finite ``float`` if it is a Python or numpy real number
    (a ``Fraction`` too, a ``bool`` not); otherwise :class:`ConfigError`
    naming ``name``.  The caller checks the range."""
    is_real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        real = float(value) if is_real else math.nan
    except OverflowError:  # an int or a Fraction past the float range
        real = math.nan
    if not math.isfinite(real):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return real


def _require_choice(value, name: str, choices: tuple[str, ...]) -> str:
    """``value`` as a ``str`` if it is one (a numpy string too, a list or an
    array not) in ``choices``; otherwise :class:`ConfigError` naming ``name``."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
    return str(value)


def _seeded_rng(seed) -> np.random.Generator:
    """The package's one way to make a generator: ``seed`` is an integer >= 0."""
    return np.random.default_rng(_require_int(seed, "seed", 0, None))
