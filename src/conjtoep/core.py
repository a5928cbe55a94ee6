"""Complex matrix primitives, exactness windows, and residual/tolerance machinery.

All values are immutable and all operations are pure functions: matrices are
accepted as dense complex ndarrays and never mutated; matrices the package
builds are frozen read-only.  This makes every routine in the package safe to
call concurrently.

Matrix convention used throughout: ``M[i, j]`` is the coefficient of the
``i``-th basis vector in the image of the ``j``-th one, i.e. columns are
images of basis vectors.  A window is an inclusive integer bound ``w``: a
check on it reads the leading block ``[0..w] x [0..w]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "ConjtoepError",
    "WindowError",
    "ExactnessError",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "decide",
    "require_coefficient",
    "require_number",
    "require_pair",
    "require_integer",
    "require_matrix",
    "is_unitary_on_window",
]


PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class ConjtoepError(Exception):
    """Base class for all errors raised by this package."""


class WindowError(ConjtoepError):
    """Raised when a window is negative or does not fit inside the matrix it
    is applied to."""


class ExactnessError(ConjtoepError):
    """Raised when a requested window exceeds the region where truncated
    entries provably equal the untruncated operator's entries."""


@dataclass(frozen=True)
class Tolerance:
    """Combined absolute/relative comparison tolerance.

    The threshold at a scale is ``absolute + relative * scale``.
    The defaults cover double-precision accumulation over sums of up to
    ~1e4 terms.
    """

    absolute: float = 1e-12
    relative: float = 1e-10

    def __post_init__(self):
        if self.absolute < 0 or self.relative < 0:
            raise ConjtoepError("tolerance components must be nonnegative")
        if self.absolute == 0 and self.relative == 0:
            raise ConjtoepError("tolerance must not be identically zero")

    def threshold(self, scale: float = 1.0) -> float:
        return self.absolute + self.relative * scale


DEFAULT_TOLERANCE = Tolerance()


def decide(residual: float, threshold: float, tail: float) -> str:
    """Tail-aware verdict: ``inconclusive`` only when a residual above the
    threshold is within a tail larger than the threshold.  Non-finite input
    (an overflow) is refused, since every comparison with NaN is false."""
    if not (math.isfinite(residual) and math.isfinite(threshold) and math.isfinite(tail)):
        raise ConjtoepError("non-finite residual, threshold or tail bound")
    if tail <= threshold:
        return PASS if residual <= threshold + tail else FAIL
    if residual > threshold + tail:
        return FAIL
    if residual > threshold:
        return INCONCLUSIVE
    return PASS


def require_coefficient(value) -> complex:
    """A symbol coefficient as a finite complex number."""
    value = complex(value)
    if not cmath.isfinite(value):
        raise ConjtoepError("symbol coefficients must be finite")
    return value


def require_number(value, name: str) -> float:
    """A JSON number as a float, never a boolean, string or null coerced to one."""
    if value is None or isinstance(value, (bool, str)):
        raise ConjtoepError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_pair(value, name: str) -> complex:
    """An ``[re, im]`` pair of JSON numbers as a complex number."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise TypeError(f"{name} must be an [re, im] pair, got {value!r}")
    return complex(require_number(value[0], name), require_number(value[1], name))


def require_integer(value, name: str) -> int:
    """A JSON integer, never a float, boolean or string coerced to one."""
    if type(value) is not int:
        raise ConjtoepError(f"{name} must be an integer, got {value!r}")
    return value


def require_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and normalize a dense complex matrix.

    A read-only complex128 array is already frozen and comes back as is;
    anything else comes back as a complex128 copy.  Rejects non-2D input and
    non-finite entries.
    """
    frozen = isinstance(a, np.ndarray) and a.dtype == np.complex128 and not a.flags.writeable
    m = a if frozen else np.array(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ConjtoepError("expected a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ConjtoepError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise ConjtoepError("expected a square matrix")
    return m


def _windowed(a: np.ndarray, w: int) -> np.ndarray:
    """The block ``[0..w] x [0..w]`` of a matrix; a window bound that is
    negative or does not fit the matrix is refused."""
    if w < 0:
        raise WindowError("window bounds must be nonnegative")
    if w >= min(a.shape):
        raise WindowError("window exceeds matrix")
    return a[: w + 1, : w + 1]


def is_unitary_on_window(a, w: int, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[bool, float]:
    """Check ``a . a^H = I`` restricted to the window ``0..w``.

    Returns ``(verdict, residual)`` where the residual is the Frobenius norm
    of ``(a a^H - I)`` on the window.  The input must be square; only its
    window rows ``r = a[0..w, :]`` are read, and the block is ``r r^H - I``.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConjtoepError("expected a square matrix")
    _windowed(a, w)
    rows = require_matrix(a[: w + 1])
    residual = float(np.linalg.norm(rows @ rows.conj().T - np.eye(w + 1)))
    return residual <= tol.threshold(1.0), residual
