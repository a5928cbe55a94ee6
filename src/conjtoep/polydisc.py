"""Several-variable truncations: box enumeration, multi-index Toeplitz
matrices, the diagonal phase conjugation family, and shift-tuple checks.

Multi-index boxes are flattened by a graded lexicographic enumeration so low
total-degree modes occupy the leading flat indices; all one-variable
specializations delegate to the same numerical kernels as the one-variable
modules and agree with them bit for bit.  The conjugation is diagonal, so
the definition and shift-tuple checks work by index arithmetic on the box's
mixed-radix codes and form no n x n matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conjugation import Conjugation, phase_diagonal
from .core import (
    ConjtoepError, Tolerance, DEFAULT_TOLERANCE, decide, require_coefficient, require_integer, require_pair
)
from .hardy import TruncatedOperator, toeplitz_gather
from .symmetry import diagonal_definition_defect

__all__ = [
    "PolySymbol",
    "BoxTruncation",
    "poly_toeplitz",
    "poly_conjugation",
    "check_poly_criterion",
    "poly_check_definition",
    "PolyDefinitionResult",
    "doubly_commuting_residual",
]


@dataclass(frozen=True)
class PolySymbol:
    """Finitely supported coefficient map on d-dimensional integer vectors."""

    d: int
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise ConjtoepError("dimension must be at least 1")
        cleaned = {}
        for key, value in self.coefficients.items():
            idx = tuple(int(k) for k in key)
            if len(idx) != self.d:
                raise ConjtoepError("coefficient index has wrong dimension")
            value = require_coefficient(value)
            if value != 0:
                cleaned[idx] = value
        object.__setattr__(self, "coefficients", cleaned)

    @property
    def band(self) -> tuple:
        """Per-axis maximum absolute index over the support."""
        if not self.coefficients:
            return tuple(0 for _ in range(self.d))
        return tuple(
            max(abs(k[axis]) for k in self.coefficients) for axis in range(self.d)
        )

    def coefficient(self, idx) -> complex:
        return self.coefficients.get(tuple(idx), 0j)

    def l1_norm(self) -> float:
        return float(sum(abs(v) for v in self.coefficients.values()))

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "coeffs": {
                    ",".join(str(c) for c in k): [v.real, v.imag]
                    for k, v in sorted(self.coefficients.items())
                },
            }
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "PolySymbol":
        """Parse ``{"d": int, "coeffs": {"k1,...,kd": [re, im]}}``."""
        d = require_integer(data["d"], "d")
        coeffs = {
            tuple(int(part) for part in key.split(",")): require_pair(v, "coefficient")
            for key, v in data["coeffs"].items()
        }
        return cls(d, coeffs)

    @classmethod
    def from_json(cls, text: str) -> "PolySymbol":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class BoxTruncation:
    """Per-axis degree bounds with a fixed graded-lexicographic flattening."""

    degrees: tuple

    def __post_init__(self):
        degs = tuple(int(n) for n in self.degrees)
        object.__setattr__(self, "degrees", degs)
        if not degs or any(n < 0 for n in degs):
            raise ConjtoepError("box degrees must be nonnegative and nonempty")

    @property
    def d(self) -> int:
        return len(self.degrees)

    @property
    def size(self) -> int:
        out = 1
        for n in self.degrees:
            out *= n + 1
        return out

    @cached_property
    def indices(self) -> tuple:
        """All multi-indices in the box, graded lexicographic."""
        grid = [()]
        for n in self.degrees:
            grid = [k + (i,) for k in grid for i in range(n + 1)]
        return tuple(sorted(grid, key=lambda k: (sum(k), k)))

    @cached_property
    def _index_array(self) -> np.ndarray:
        """The enumeration as a ``(size, d)`` integer array."""
        return np.array(self.indices, dtype=np.intp).reshape(self.size, self.d)

    @cached_property
    def _places(self) -> np.ndarray:
        """Mixed-radix place values, radix ``2 n_i + 1`` on axis ``i``: the code
        ``k . places`` then determines every difference of box indices."""
        radix = [2 * n + 1 for n in self.degrees]
        return np.array([math.prod(radix[i + 1 :]) for i in range(self.d)], dtype=np.intp)

    @cached_property
    def _codes(self) -> np.ndarray:
        return self._index_array @ self._places

    def window_positions(self, bounds) -> np.ndarray:
        """Flat positions of the sub-box ``k_i <= bounds_i``."""
        bounds = np.asarray(tuple(bounds), dtype=np.intp)
        if bounds.shape != (self.d,):
            raise ConjtoepError("window bounds must have the box dimension")
        return np.flatnonzero(np.all(self._index_array <= bounds, axis=1))

    def _neighbours(self, step) -> np.ndarray:
        """Flat position of ``k + step`` for every index ``k`` of the box, or
        ``size`` where that leaves the box."""
        step = np.asarray(step, dtype=np.intp)
        moved = self._index_array + step
        inside = np.all((moved >= 0) & (moved <= np.array(self.degrees)), axis=1)
        out = np.full(self.size, self.size, dtype=np.intp)
        out[inside] = self._position_of[self._codes[inside] + step @ self._places]
        return out

    @cached_property
    def _position_of(self) -> np.ndarray:
        """Flat position by code, for the codes of the box."""
        out = np.zeros(int(self._codes.max()) + 1, dtype=np.intp)
        out[self._codes] = np.arange(self.size)
        return out


def _coded(phi: PolySymbol, box: BoxTruncation) -> dict:
    """The symbol's coefficients keyed by mixed-radix code, on the offsets
    that fit the box."""
    if phi.d != box.d:
        raise ConjtoepError("symbol and box dimensions differ")
    return {
        int(np.dot(k, box._places)): v
        for k, v in phi.coefficients.items()
        if all(abs(c) <= n for c, n in zip(k, box.degrees))
    }


def poly_toeplitz(phi: PolySymbol, box: BoxTruncation) -> TruncatedOperator:
    """Flat matrix with entry ``(flat(k), flat(l)) = phi(k - l)``; exact everywhere.

    :func:`conjtoep.hardy.toeplitz_gather` on the box's mixed-radix codes;
    for a one-variable box this is exactly ``toeplitz_matrix``.
    """
    return toeplitz_gather(_coded(phi, box), box._codes)


def poly_conjugation(theta, xi, box: BoxTruncation) -> Conjugation:
    """Diagonal phase conjugation with entries ``exp(i sum xi_j) exp(-i k.theta)``.

    Band 0: the conjugation keeps the diagonal only.  Non-finite phases are
    refused.
    """
    theta = tuple(float(t) for t in theta)
    xi = tuple(float(x) for x in xi)
    if len(theta) != box.d or len(xi) != box.d:
        raise ConjtoepError("theta and xi must have the box dimension")
    diag = phase_diagonal(box._index_array, theta, xi)
    return Conjugation(diag, box.size - 1, 0, None, f"poly_theta_xi(d={box.d})")


def check_poly_criterion(
    phi: PolySymbol, theta, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[str, float]:
    """Exact coefficient test ``exp(i k.theta) phi(k) = phi(-k)`` over the support.

    Non-finite phases are refused, and so (by :func:`conjtoep.core.decide`)
    is a residual that overflows."""
    theta = tuple(float(t) for t in theta)
    if len(theta) != phi.d:
        raise ConjtoepError("theta dimension mismatch")
    if not all(math.isfinite(t) for t in theta):
        raise ConjtoepError("phases theta and xi must be finite")
    defects = [0.0]
    support = set(phi.coefficients)
    support |= {tuple(-c for c in k) for k in support}
    for k in support:
        kt = 0.0
        for kj, tj in zip(k, theta):
            kt += kj * tj
        lhs = np.exp(1j * kt) * phi.coefficient(k)
        rhs = phi.coefficient(tuple(-c for c in k))
        defects.append(abs(lhs - rhs))
    residual = float(np.max(defects))
    scale = max(1.0, phi.l1_norm())
    return decide(residual, tol.threshold(scale), 0.0), residual


@dataclass(frozen=True)
class PolyDefinitionResult:
    verdict: str
    residual: float
    tilde_mismatch: float
    window: tuple


def poly_check_definition(
    phi: PolySymbol,
    theta,
    xi,
    box: BoxTruncation,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> PolyDefinitionResult:
    """``C T* C = T`` for the diagonal phase conjugation, windowed per axis.

    The window on axis ``i`` is ``n_i - band_i``, where every entry of the
    truncated product is exact.  Entry ``(k, l)`` of ``C T* C - T`` is
    ``d_k (phi(l - k) conj(d_l)) - phi(k - l)``, so
    :func:`conjtoep.symmetry.diagonal_definition_defect` evaluates it on the
    window pairs whose difference is in the support or its reflection, by
    index arithmetic on the box's codes; neither the Toeplitz nor the
    conjugation matrix is formed.  The residual is the Frobenius norm.

    Also reports the twisted-coefficient mismatch
    ``max |phi(k - l) - <T (C z^k), (C z^l)>|`` over window pairs, the
    several-variable transpose-basis condition.  For a diagonal conjugation
    its entry ``(p, q)`` is the definition defect ``(q, p)``, so it is the
    largest modulus among the same entries.
    """
    coded = _coded(phi, box)
    window = tuple(n - b for n, b in zip(box.degrees, phi.band))
    if any(w < 0 for w in window):
        raise ConjtoepError("window does not fit the box")

    diag = poly_conjugation(theta, xi, box).entries
    positions = box.window_positions(window)
    defect = diagonal_definition_defect(diag[positions], coded, box._codes[positions])
    residual = float(np.linalg.norm(defect))
    tilde_mismatch = float(np.max(np.abs(defect), initial=0.0))
    verdict = decide(residual, tol.threshold(max(1.0, phi.l1_norm())), 0.0)
    return PolyDefinitionResult(verdict, residual, tilde_mismatch, window)


def doubly_commuting_residual(conj: Conjugation, box: BoxTruncation) -> dict:
    """Shift-tuple diagnostics for ``S_i = C M_{z_i} C``, by index arithmetic.

    Returns the maximum commutator and star-commutator residuals over axis
    pairs on the window ``n_i - 1`` per axis, plus the dimension of the
    joint wandering space (the intersection of the adjoint kernels
    restricted to the window), which is 1 for any conjugated
    coordinate-shift tuple.

    For the diagonal ``A = diag(d)``, ``S_i`` is the weighted shift taking
    mode ``k`` to ``k + e_i`` with weight ``w_i(k) = d_{k+e_i} conj(d_k)``,
    so every commutator entry is a product of weights at ``l +- e_i +- e_j``.
    The stacked adjoints ``S_i^H`` on the window have columns with disjoint
    supports, so their singular values are the column norms
    ``sqrt(sum_i |w_i(l - e_i)|^2)``.  No n x n matrix is formed; a
    conjugation whose band is not 0 is refused.
    """
    if conj.degree != box.size - 1:
        raise ConjtoepError("conjugation degree does not match the box")
    if conj.band != 0:
        raise ConjtoepError("doubly commuting diagnostics need a diagonal (band-0) conjugation")
    d = box.d
    unit = np.eye(d, dtype=np.intp)
    grid = box.window_positions(tuple(max(0, n - 1) for n in box.degrees))
    in_grid = np.zeros(box.size + 1, dtype=bool)
    in_grid[grid] = True
    # weights over the box plus one zero slot, where neighbours leave it
    diag = np.append(conj.entries, 0)
    up = [box._neighbours(unit[i]) for i in range(d)]
    down = [box._neighbours(-unit[i]) for i in range(d)]
    weights = [np.append(diag[up[i]] * np.conj(diag[:-1]), 0) for i in range(d)]

    commute = 0.0
    star = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            wi, wj = weights[i], weights[j]
            # (S_i S_j - S_j S_i)[q + e_i + e_j, q]
            q = grid[in_grid[box._neighbours(unit[i] + unit[j])[grid]]]
            entries = wi[up[j][q]] * wj[q] - wj[up[i][q]] * wi[q]
            commute = max(commute, float(np.linalg.norm(entries)))
            # (S_i^H S_j - S_j S_i^H)[q - e_i + e_j, q]
            p = box._neighbours(unit[j] - unit[i])[grid]
            q, p = grid[in_grid[p]], p[in_grid[p]]
            r = down[i][q]
            entries = np.conj(wi[p]) * wj[q] - wj[r] * np.conj(wi[r])
            star = max(star, float(np.linalg.norm(entries)))

    norms = np.sqrt(sum(np.abs(weights[i][down[i][grid]]) ** 2 for i in range(d)))
    cutoff = 1e-8 * max(1.0, float(np.max(norms)))
    wandering = int(grid.size - np.sum(norms > cutoff))
    return {"commute": commute, "star_commute": star, "wandering_dim": wandering}
