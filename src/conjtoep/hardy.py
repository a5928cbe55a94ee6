"""Laurent symbols, truncated Toeplitz matrices, and shift-compression tests.

Symbols are trigonometric polynomials (finitely many Fourier coefficients);
every identity checked downstream then reduces to finite sums whose exactness
window can be computed instead of assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConjtoepError,
    ExactnessError,
    Tolerance,
    DEFAULT_TOLERANCE,
    Window,
    require_coefficient,
    require_matrix,
)

# Index differences gathered per block of rows in toeplitz_gather (2 MiB of int64).
_GATHER_BLOCK = 1 << 18

__all__ = [
    "LaurentSymbol",
    "TruncatedOperator",
    "ShiftOperator",
    "toeplitz_gather",
    "toeplitz_matrix",
    "toeplitz_apply",
    "is_toeplitz",
    "s_toeplitz_residual",
]


@dataclass(frozen=True)
class LaurentSymbol:
    """Finitely supported Fourier coefficient map ``n -> phi_n``.

    ``band`` is the largest ``|n|`` with a nonzero coefficient; zero
    coefficients are dropped on construction so the support is canonical.
    """

    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for n, v in self.coefficients.items():
            v = require_coefficient(v)
            if v != 0:
                cleaned[int(n)] = v
        object.__setattr__(self, "coefficients", cleaned)

    @property
    def band(self) -> int:
        if not self.coefficients:
            return 0
        return max(abs(n) for n in self.coefficients)

    def coefficient(self, n: int) -> complex:
        return self.coefficients.get(n, 0j)

    def l1_norm(self) -> float:
        """Sum of coefficient magnitudes; dominates the operator norm."""
        return float(sum(abs(v) for v in self.coefficients.values()))

    def scaled(self, factor: complex) -> "LaurentSymbol":
        return LaurentSymbol({n: factor * v for n, v in self.coefficients.items()})

    def plus(self, other: "LaurentSymbol") -> "LaurentSymbol":
        keys = set(self.coefficients) | set(other.coefficients)
        return LaurentSymbol({n: self.coefficient(n) + other.coefficient(n) for n in keys})

    def to_json(self) -> str:
        return json.dumps(
            {"coeffs": {str(n): [v.real, v.imag] for n, v in sorted(self.coefficients.items())}}
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentSymbol":
        coeffs = data["coeffs"]
        return cls({int(n): complex(re, im) for n, (re, im) in coeffs.items()})

    @classmethod
    def from_json(cls, text: str) -> "LaurentSymbol":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class TruncatedOperator:
    """An (N+1) x (N+1) truncation of an operator on the Hardy space."""

    matrix: np.ndarray
    degree: int

    def __post_init__(self):
        m = require_matrix(self.matrix, square=True)
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != self.degree + 1:
            raise ConjtoepError("matrix size must be degree + 1")


@dataclass(frozen=True)
class ShiftOperator(TruncatedOperator):
    """Truncated unilateral shift ``S f_n = f_{n+1}`` for some basis {f_n}.

    ``band`` is the bandwidth of the untruncated matrix when known (None for
    dense shifts, ``2 b + 1`` for ``C M_z C`` with ``C`` of band ``b``);
    columns ``0..degree - band`` are then exactly the columns of the
    untruncated isometry.
    """

    band: int | None = None

    def exact_columns(self) -> int | None:
        """Number of leading columns that equal the untruncated shift's."""
        if self.band is None:
            return None
        return max(0, self.degree - self.band + 1)

    def isometry_defect(self, max_col: int) -> float:
        """Frobenius norm of (S^H S - I) on the leading ``max_col+1`` columns."""
        s = self.matrix[:, : max_col + 1]
        gram = s.conj().T @ s
        return float(np.linalg.norm(gram - np.eye(max_col + 1)))


def toeplitz_gather(coefficients: dict, codes: np.ndarray) -> TruncatedOperator:
    """Toeplitz truncation gathered from a coefficient table by index difference.

    ``codes`` are integer codes of the retained modes, additive in the index,
    and ``coefficients`` maps codes to symbol coefficients; entry ``(p, q)``
    is the coefficient at ``codes[p] - codes[q]``.  Compressing a
    multiplication operator never mixes the retained coefficients, so the
    truncation is exact everywhere.  Rows are gathered in blocks of about
    ``_GATHER_BLOCK`` entries, so the index differences never take a
    matrix-sized array.  The gathered matrix is frozen, so the operator
    takes it without a copy.
    """
    span = int(np.ptp(codes))
    table = np.zeros(2 * span + 1, dtype=np.complex128)
    for c, v in coefficients.items():
        if -span <= c <= span:
            table[c + span] = v
    n = codes.size
    matrix = np.empty((n, n), dtype=np.complex128)
    offset = codes - span
    step = max(1, _GATHER_BLOCK // n)
    for start in range(0, n, step):
        diff = codes[start : start + step, None] - offset
        np.take(table, diff, out=matrix[start : start + step], mode="clip")
    matrix.setflags(write=False)
    return TruncatedOperator(matrix, n - 1)


def toeplitz_matrix(phi: LaurentSymbol, degree: int) -> TruncatedOperator:
    """Truncation of the Toeplitz operator with the given symbol.

    Entry ``(q, p)`` is ``phi_{q-p}``: :func:`toeplitz_gather` with each
    index as its own code.
    """
    if degree < 0:
        raise ConjtoepError("degree must be nonnegative")
    return toeplitz_gather(phi.coefficients, np.arange(degree + 1))


def toeplitz_apply(phi: LaurentSymbol, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``T x``, or ``T^T x``, for the Toeplitz truncation at degree ``len(x) - 1``.

    Computed by one shifted slice per coefficient of the symbol, since
    ``(T x)[q]`` sums ``phi_s x[q - s]`` over the support; ``T`` is never
    formed.
    """
    out = np.zeros(x.shape, dtype=np.complex128)
    n = x.shape[0]
    for s, v in phi.coefficients.items():
        s = -s if transpose else s
        if abs(s) >= n:
            continue
        if s >= 0:
            out[s:] += v * x[: n - s]
        else:
            out[: n + s] += v * x[-s:]
    return out


def is_toeplitz(t, w: Window, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[bool, float]:
    """Constant-diagonal test on a window.

    Returns ``(verdict, residual)`` with residual the maximum of
    ``|t[i, j] - t[i+1, j+1]|`` over pairs whose first element lies in the
    window.
    """
    t = require_matrix(t, square=True)
    w.require_fits(t.shape)
    n = t.shape[0]
    top = min(w.max_row + 1, n - 1)
    right = min(w.max_col + 1, n - 1)
    if top == 0 or right == 0:
        return True, 0.0
    diff = t[:top, :right] - t[1 : top + 1, 1 : right + 1]
    residual = float(np.max(np.abs(diff))) if diff.size else 0.0
    scale = float(np.max(np.abs(t))) if t.size else 1.0
    return residual <= tol.threshold(max(1.0, scale)), residual


def s_toeplitz_residual(t: TruncatedOperator, s: ShiftOperator, w: Window) -> float:
    """Frobenius norm of ``S^H T S - T`` restricted to a window.

    For a banded shift the window must lie inside the exact columns,
    ``w.max <= degree - band``, so that every sum defining the windowed
    entries of the product is complete at this truncation.
    """
    if t.degree != s.degree:
        raise ConjtoepError("operator and shift degrees differ")
    w.require_fits(t.matrix.shape)
    if s.band is not None and max(w.max_row, w.max_col) > t.degree - s.band:
        raise ExactnessError("exactness window violated")
    left = s.matrix[:, : w.max_row + 1]
    product = left.conj().T @ (t.matrix @ s.matrix[:, : w.max_col + 1])
    return float(np.linalg.norm(product - t.matrix[: w.max_row + 1, : w.max_col + 1]))
