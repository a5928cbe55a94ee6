"""Exact finite-dimensional case on C^(N+1).

Everything here is a genuinely finite computation; the only tolerance is a
fixed 1e-13 relative allowance for round-off, deliberately not configurable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .conjugation import Conjugation, canonical_factorization
from .core import ConjtoepError, require_coefficient, require_matrix
from .hardy import LaurentSymbol, toeplitz_matrix
from .symmetry import coefficient_defect, transpose_defect

__all__ = [
    "FiniteToeplitz",
    "toeplitz_conjugation",
    "finite_symmetry_criterion",
    "general_symmetry",
]

_ROUNDOFF_REL = 1e-13


@dataclass(frozen=True)
class FiniteToeplitz:
    """Constant-diagonal matrix on C^(N+1) given by its diagonal values a_k."""

    size_minus_one: int
    a: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.size_minus_one < 0:
            raise ConjtoepError("size must be positive")
        cleaned = {}
        for k, v in self.a.items():
            k = int(k)
            if abs(k) > self.size_minus_one:
                raise ConjtoepError("diagonal index outside the matrix")
            v = require_coefficient(v)
            if v != 0:
                cleaned[k] = v
        object.__setattr__(self, "a", cleaned)

    def value(self, k: int) -> complex:
        return self.a.get(k, 0j)

    def matrix(self) -> np.ndarray:
        """Entry ``(i, j)`` is ``a_{i-j}``: the Toeplitz truncation of the
        Laurent polynomial with these coefficients."""
        return toeplitz_matrix(LaurentSymbol(self.a), self.size_minus_one).matrix

    def l1_norm(self) -> float:
        return float(sum(abs(v) for v in self.a.values()))

    def to_json(self) -> str:
        return json.dumps(
            {
                "N": self.size_minus_one,
                "a": {str(k): [v.real, v.imag] for k, v in sorted(self.a.items())},
            }
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteToeplitz":
        """Parse ``{"N": int, "a": {k: [re, im]}}``; ``N`` must be a JSON
        integer, never a float, boolean or string coerced to one."""
        size = data["N"]
        if type(size) is not int:
            raise ConjtoepError(f"N must be an integer, got {size!r}")
        return cls(size, {int(k): complex(re, im) for k, (re, im) in data["a"].items()})

    @classmethod
    def from_json(cls, text: str) -> "FiniteToeplitz":
        return cls.from_json_dict(json.loads(text))


def toeplitz_conjugation(size_minus_one: int) -> Conjugation:
    """Flip-and-conjugate map on C^(N+1); every Toeplitz matrix is symmetric for it.

    The coefficient matrix is the anti-diagonal permutation (ones exactly
    where the two indices sum to N); its band is N, the whole matrix.
    """
    if size_minus_one < 0:
        raise ConjtoepError("size must be positive")
    n = size_minus_one + 1
    coeff = np.fliplr(np.eye(n, dtype=np.complex128))
    return Conjugation(coeff, size_minus_one, size_minus_one, None, "toeplitz_conjugation")


def _require_finite(conj: Conjugation, size_minus_one: int) -> None:
    """Refuse all but a conjugation of C^(N+1): banded, at degree N."""
    if conj.band is None:
        raise ConjtoepError("a truncated dense conjugation is not a conjugation of C^(N+1)")
    if conj.degree != size_minus_one:
        raise ConjtoepError("conjugation and matrix sizes differ")


def finite_symmetry_criterion(t: FiniteToeplitz, conj: Conjugation) -> tuple[bool, float]:
    """Coefficient identity deciding symmetry of a finite Toeplitz matrix.

    Checks ``sum_m c_{m,p} conj(a_{m-k}) = sum_m c_{m,k} conj(a_{m-p})`` for
    every index pair: the one-variable coefficient identities
    (:func:`conjtoep.symmetry.coefficient_defect`) over the whole matrix.
    """
    n = t.size_minus_one + 1
    _require_finite(conj, t.size_minus_one)
    residual = coefficient_defect(conj.coeff, t.matrix(), n - 1, n)
    scale = max(1.0, t.l1_norm())
    return residual <= _ROUNDOFF_REL * scale * n, residual


def general_symmetry(t, conj: Conjugation) -> tuple[bool, float]:
    """Exact symmetry check for an arbitrary operator on C^(N+1).

    Compares the transpose of the matrix with its conjugation by the unitary
    factor of ``C = U J`` (:func:`conjtoep.symmetry.transpose_defect` over
    every index); the residual equals the defect of the defining identity
    ``C T* C = T`` up to unitary invariance of the norm.
    """
    t = require_matrix(t, square=True)
    n = t.shape[0]
    _require_finite(conj, n - 1)
    u = canonical_factorization(conj)
    residual = float(np.linalg.norm(transpose_defect(u, t @ u, t)))
    scale = max(1.0, float(np.linalg.norm(t)))
    return residual <= _ROUNDOFF_REL * scale * n, residual
