"""Several-variable truncations: box enumeration, multi-index Toeplitz
matrices, the diagonal phase conjugation family, and shift-tuple checks.

Multi-index boxes are flattened by a graded lexicographic enumeration so low
total-degree modes occupy the leading flat indices; all one-variable
specializations delegate to the same numerical kernels as the one-variable
modules and agree with them bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conjugation import Conjugation, diagonal_phase, shift_columns
from .core import ConjtoepError, Tolerance, DEFAULT_TOLERANCE, decide, require_coefficient
from .hardy import TruncatedOperator, toeplitz_gather
from .symmetry import definition_residual, transpose_defect

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
        d = int(data["d"])
        coeffs = {}
        for key, (re, im) in data["coeffs"].items():
            idx = tuple(int(part) for part in key.split(","))
            coeffs[idx] = complex(re, im)
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
    def _positions(self) -> dict:
        return {k: i for i, k in enumerate(self.indices)}

    def flat(self, idx) -> int:
        return self._positions[tuple(idx)]

    def unflat(self, position: int) -> tuple:
        return self.indices[position]

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


def poly_toeplitz(phi: PolySymbol, box: BoxTruncation) -> TruncatedOperator:
    """Flat matrix with entry ``(flat(k), flat(l)) = phi(k - l)``; exact everywhere.

    :func:`conjtoep.hardy.toeplitz_gather` on the box's mixed-radix codes;
    for a one-variable box this is exactly ``toeplitz_matrix``.
    """
    if phi.d != box.d:
        raise ConjtoepError("symbol and box dimensions differ")
    coded = {
        int(np.dot(k, box._places)): v
        for k, v in phi.coefficients.items()
        if all(abs(c) <= n for c, n in zip(k, box.degrees))
    }
    return toeplitz_gather(coded, box._codes)


def poly_conjugation(theta, xi, box: BoxTruncation) -> Conjugation:
    """Diagonal phase conjugation with entries ``exp(i sum xi_j) exp(-i k.theta)``."""
    theta = tuple(float(t) for t in theta)
    xi = tuple(float(x) for x in xi)
    if len(theta) != box.d or len(xi) != box.d:
        raise ConjtoepError("theta and xi must have the box dimension")
    xi_sum = 0.0
    for x in xi:
        xi_sum += x
    diag = np.empty(box.size, dtype=np.complex128)
    for i, k in enumerate(box.indices):
        kt = 0.0
        for kj, tj in zip(k, theta):
            kt += kj * tj
        diag[i] = diagonal_phase(kt, xi_sum)
    label = f"poly_theta_xi(d={box.d})"
    return Conjugation(np.diag(diag), box.size - 1, 0, None, label)


def check_poly_criterion(
    phi: PolySymbol, theta, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[str, float]:
    """Exact coefficient test ``exp(i k.theta) phi(k) = phi(-k)`` over the support."""
    theta = tuple(float(t) for t in theta)
    if len(theta) != phi.d:
        raise ConjtoepError("theta dimension mismatch")
    residual = 0.0
    support = set(phi.coefficients)
    support |= {tuple(-c for c in k) for k in support}
    for k in support:
        kt = 0.0
        for kj, tj in zip(k, theta):
            kt += kj * tj
        lhs = np.exp(1j * kt) * phi.coefficient(k)
        rhs = phi.coefficient(tuple(-c for c in k))
        residual = max(residual, abs(lhs - rhs))
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
    """Brute-force ``C T* C = T`` on the flat matrices, windowed per axis.

    The window on axis ``i`` is ``n_i - band_i``, where every entry of the
    truncated product is exact.

    Also reports the twisted-coefficient mismatch
    ``max |phi(k - l) - <T (C z^k), (C z^l)>|`` over window pairs, the
    several-variable transpose-basis condition.
    """
    if phi.d != box.d:
        raise ConjtoepError("symbol and box dimensions differ")
    window = tuple(n - b for n, b in zip(box.degrees, phi.band))
    if any(w < 0 for w in window):
        raise ConjtoepError("window does not fit the box")

    conj = poly_conjugation(theta, xi, box)
    t = poly_toeplitz(phi, box).matrix
    positions = box.window_positions(window)
    residual = definition_residual(conj.coeff, t, positions, positions)
    tilde_mismatch = float(np.max(np.abs(transpose_defect(conj.coeff, t, positions))))
    verdict = decide(residual, tol.threshold(max(1.0, phi.l1_norm())), 0.0)
    return PolyDefinitionResult(verdict, residual, tilde_mismatch, window)


def doubly_commuting_residual(conj: Conjugation, box: BoxTruncation) -> dict:
    """Shift-tuple diagnostics for ``S_i = C M_{z_i} C``.

    Returns the maximum commutator and star-commutator residuals over axis
    pairs on the window ``n_i - 1`` per axis, plus the dimension of the
    joint wandering space (the intersection of the adjoint kernels
    restricted to the window), which is 1 for any conjugated
    coordinate-shift tuple.
    """
    if conj.degree != box.size - 1:
        raise ConjtoepError("conjugation degree does not match the box")
    positions = box.window_positions(tuple(max(0, n - 1) for n in box.degrees))
    # M_{z_i} moves row flat(k) to flat(k + e_i), whose code is one place
    # value higher; rows with k_i = n_i leave the box
    codes = box._codes
    position_of = np.zeros(int(codes.max()) + 1, dtype=np.intp)
    position_of[codes] = np.arange(box.size)
    shifts = []
    for axis in range(box.d):
        src = np.flatnonzero(box._index_array[:, axis] < box.degrees[axis])
        dst = position_of[codes[src] + box._places[axis]]
        shifts.append(shift_columns(conj.coeff, box.size, src, dst))

    commute = 0.0
    star = 0.0
    grid = np.ix_(positions, positions)
    for i in range(box.d):
        for j in range(i + 1, box.d):
            si, sj = shifts[i], shifts[j]
            commute = max(commute, float(np.linalg.norm((si @ sj - sj @ si)[grid])))
            star = max(
                star,
                float(np.linalg.norm((si.conj().T @ sj - sj @ si.conj().T)[grid])),
            )

    stacked = np.vstack([s.conj().T[grid] for s in shifts])
    singular = np.linalg.svd(stacked, compute_uv=False)
    cutoff = 1e-8 * max(1.0, float(singular[0]) if singular.size else 1.0)
    wandering = int(positions.size - np.sum(singular > cutoff))
    return {"commute": commute, "star_commute": star, "wandering_dim": wandering}
