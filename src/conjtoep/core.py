"""Complex matrix primitives, exactness windows, and residual/tolerance machinery.

All values are immutable and all operations are pure functions: matrices are
accepted as dense complex ndarrays and never mutated; matrices the package
builds are frozen read-only.  This makes every routine in the package safe to
call concurrently.

Matrix convention used throughout: ``M[i, j]`` is the coefficient of the
``i``-th basis vector in the image of the ``j``-th one, i.e. columns are
images of basis vectors.
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
    "Window",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "decide",
    "require_coefficient",
    "require_matrix",
    "frobenius_distance",
    "is_unitary_on_window",
    "random_unitary",
    "random_symmetric_unitary",
]


PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class ConjtoepError(Exception):
    """Base class for all errors raised by this package."""


class WindowError(ConjtoepError):
    """Raised when a window does not fit inside the matrix it is applied to."""


class ExactnessError(ConjtoepError):
    """Raised when a requested window exceeds the region where truncated
    entries provably equal the untruncated operator's entries."""


@dataclass(frozen=True)
class Window:
    """Inclusive index bounds of the submatrix ``[0..max_row] x [0..max_col]``.

    A window attached to a truncated operator records which entries are
    exact, i.e. equal to the corresponding entries of the untruncated
    operator.
    """

    max_row: int
    max_col: int

    def __post_init__(self):
        if self.max_row < 0 or self.max_col < 0:
            raise WindowError("window bounds must be nonnegative")

    @classmethod
    def full(cls, n: int) -> "Window":
        """Window covering an entire n x n matrix."""
        return cls(n - 1, n - 1)

    @classmethod
    def square(cls, m: int) -> "Window":
        return cls(m, m)

    def fits(self, shape: tuple[int, int]) -> bool:
        return self.max_row < shape[0] and self.max_col < shape[1]

    def require_fits(self, shape: tuple[int, int]) -> None:
        if not self.fits(shape):
            raise WindowError("window exceeds matrix")


@dataclass(frozen=True)
class Tolerance:
    """Combined absolute/relative comparison tolerance.

    Complex comparison uses ``|x - y| <= absolute + relative * max(|x|, |y|)``.
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

    def close(self, x: complex, y: complex) -> bool:
        return abs(x - y) <= self.threshold(max(abs(x), abs(y)))


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


def _windowed(a: np.ndarray, w: Window) -> np.ndarray:
    w.require_fits(a.shape)
    return a[: w.max_row + 1, : w.max_col + 1]


def frobenius_distance(a, b, w: Window) -> float:
    """Frobenius distance of two matrices restricted to a window.

    Returns ``sqrt(sum_{i<=w.max_row, j<=w.max_col} |a_ij - b_ij|^2)``.
    Symmetric in its matrix arguments and zero exactly when the entries
    agree on the window.
    """
    a = require_matrix(a)
    b = require_matrix(b)
    return float(np.linalg.norm(_windowed(a, w) - _windowed(b, w)))


def is_unitary_on_window(a, w: Window, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[bool, float]:
    """Check ``a . a^H = I`` restricted to a window.

    Returns ``(verdict, residual)`` where the residual is the Frobenius norm
    of ``(a a^H - I)`` on the window.  The input must be square.
    """
    a = require_matrix(a, square=True)
    w.require_fits(a.shape)
    gram = a @ a.conj().T
    eye = np.eye(a.shape[0], dtype=np.complex128)
    residual = float(np.linalg.norm(_windowed(gram - eye, w)))
    return residual <= tol.threshold(1.0), residual


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution does not favor R's signs
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_symmetric_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric unitary ``W W^t`` for a random unitary W.

    The product of a unitary with its own transpose is automatically both
    symmetric and unitary, which is exactly the coefficient matrix shape a
    conjugation requires.
    """
    w = random_unitary(n, rng)
    return w @ w.T
