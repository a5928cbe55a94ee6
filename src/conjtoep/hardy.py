"""Laurent symbols, truncated Toeplitz matrices, and the constant-diagonal test.

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
    Tolerance,
    DEFAULT_TOLERANCE,
    _windowed,
    require_coefficient,
    require_matrix,
    require_pair,
)

# Index differences gathered per block of rows in toeplitz_gather (2 MiB of int64).
_GATHER_BLOCK = 1 << 18

__all__ = [
    "LaurentSymbol",
    "TruncatedOperator",
    "toeplitz_gather",
    "toeplitz_matrix",
    "toeplitz_apply",
    "is_toeplitz",
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

    def to_json(self) -> str:
        return json.dumps(
            {"coeffs": {str(n): [v.real, v.imag] for n, v in sorted(self.coefficients.items())}}
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentSymbol":
        return cls({int(n): require_pair(v, "coefficient") for n, v in data["coeffs"].items()})

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


def is_toeplitz(t, w: int, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[bool, float]:
    """Constant-diagonal test on the window ``0..w``.

    Returns ``(verdict, residual)`` with residual the maximum of
    ``|t[i, j] - t[i+1, j+1]|`` over pairs whose first element lies in the
    window.
    """
    t = require_matrix(t, square=True)
    _windowed(t, w)
    n = t.shape[0]
    top = min(w + 1, n - 1)
    if top == 0:
        return True, 0.0
    diff = t[:top, :top] - t[1 : top + 1, 1 : top + 1]
    residual = float(np.max(np.abs(diff)))
    return residual <= tol.threshold(max(1.0, float(np.max(np.abs(t))))), residual
