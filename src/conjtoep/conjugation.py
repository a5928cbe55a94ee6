"""Conjugations on truncated spaces: representation, families, factorization.

A conjugation (anti-linear, involutive, isometric map) is stored through its
coefficient matrix ``A`` in the canonical basis, ``A[m, n] = <C e_n, e_m>``,
so that ``C x = A conj(x)``.  Such a matrix is automatically a symmetric
unitary, and the same matrix acting linearly is the unique unitary factor of
the canonical factorization ``C = U J`` (J = coordinatewise conjugation).

Each conjugation also carries its ``band`` so downstream residual checks can
compute exactness windows instead of assuming them: a banded matrix (all
coefficients vanish beyond ``|m - n| > band``) gives windows by arithmetic,
and a dense one (``band is None``), which is always a composition
conjugation, gets certified tail bounds.  A band-0 conjugation is stored as
its diagonal, and a composition conjugation as its family and degree alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .composition import DENSE_WINDOW, CompositionParams, column_tails, composition_matrix, _working_degree
from .core import (
    ConjtoepError,
    Tolerance,
    DEFAULT_TOLERANCE,
    is_unitary_on_window,
    require_integer,
    require_matrix,
    require_number,
    require_pair,
)

__all__ = [
    "NotConjugationError",
    "BasisError",
    "Conjugation",
    "BasisSpec",
    "CanonicalJ",
    "ThetaXi",
    "AlphaDiagonal",
    "Composition",
    "FromBasis",
    "parse_family_spec",
    "family_spec_to_dict",
    "materialize",
    "phase_diagonal",
    "conjugation_from_fixed_basis",
    "is_conjugation",
    "unitarity_slack",
    "validate_conjugation",
    "canonical_factorization",
    "intertwine_lambda",
    "working_coefficients",
]


# Coefficients of modulus at most this count as zero when a band is measured
# (conjugation_from_fixed_basis) or a band-0 matrix is reduced to its diagonal.
_OFF_BAND = 1e-13


class NotConjugationError(ConjtoepError):
    """Raised when a matrix fails the symmetric-unitary conjugation test."""


class BasisError(ConjtoepError):
    """Raised for invalid orthonormal-basis input."""


@dataclass(frozen=True)
class Conjugation:
    """Coefficient matrix of a conjugation plus its band.

    ``band`` bounds ``|m - n|`` over the nonzero coefficients of the
    untruncated matrix; ``None`` means dense, which only a ``Composition``
    ``family`` is: it is kept as that spec and its degree, and read at a
    padded degree for tail-controlled checks.  A map that genuinely lives on
    C^(degree+1) has band ``degree``.  ``family`` keeps the recipe when known.

    ``entries`` is the coefficient matrix (``None`` when dense), except for
    band 0, where it is the diagonal (a diagonal matrix passed in is reduced
    to it): finite and of modulus at most 1.  A band-0 or dense conjugation
    forms the n x n ``coeff`` only when something reads it; the diagonal
    kernels and the narrow dense plans never do.
    """

    entries: np.ndarray | None
    degree: int
    band: int | None
    family: object | None = None
    label: str = ""
    notes: tuple = ()

    def __post_init__(self):
        dense = isinstance(self.family, Composition)
        if (self.band is None) != dense or (dense and self.entries is not None):
            raise ConjtoepError("a dense conjugation is a composition family and a degree, with no matrix")
        if dense and self.degree < 0:
            raise ConjtoepError("degree must be nonnegative")
        if not dense:
            object.__setattr__(self, "entries", _checked(np.asarray(self.entries), self.degree, self.band))

    @cached_property
    def coeff(self) -> np.ndarray:
        """The read-only coefficient matrix ``A``; formed on first read when
        the band is 0 (from the diagonal) or ``None`` (by the recurrence)."""
        if self.band is None:
            matrix = composition_matrix(CompositionParams(self.family.alpha), self.degree)
            return _checked(matrix, self.degree, None)
        if self.band != 0:
            return self.entries
        m = np.diag(self.entries)
        m.setflags(write=False)
        return m

    def columns(self, count: int) -> np.ndarray:
        """The leading ``count`` columns of ``A`` (all rows); a band-0
        conjugation builds them from its diagonal without forming ``coeff``."""
        if self.band != 0:
            return self.coeff[:, :count]
        width = min(count, self.degree + 1)
        block = np.zeros((self.degree + 1, width), dtype=np.complex128)
        block[np.arange(width), np.arange(width)] = self.entries[:width]
        return block

    def entry(self, n: int, m: int) -> complex:
        """Coefficient ``c_{n,m} = <C z^n, z^m>`` for ``0 <= n, m <= degree``,
        read from one triangle of ``A`` so that it is exactly symmetric in its
        indices; a band-0 conjugation reads its diagonal."""
        if not (0 <= n <= self.degree and 0 <= m <= self.degree):
            raise ConjtoepError("coefficient index outside 0..degree")
        if self.band == 0:
            return complex(self.entries[n]) if n == m else 0j
        return complex(self.coeff[max(n, m), min(n, m)])


def _checked(m: np.ndarray, degree: int, band: int | None) -> np.ndarray:
    """``m`` made read-only once it passes the checks of a coefficient array:
    a square symmetric matrix, or for band 0 a finite diagonal (a diagonal
    matrix is reduced to it), of size ``degree + 1`` and modulus at most 1."""
    if band != 0:
        m = require_matrix(m, square=True)
        if float(np.max(np.abs(m - m.T))) > 1e-9:
            raise NotConjugationError("coefficient matrix must be symmetric")
    else:
        if m.ndim == 2:
            m = require_matrix(m, square=True)
            if float(np.max(np.abs(m - np.diag(np.diagonal(m))))) > _OFF_BAND:
                raise NotConjugationError("a band-0 coefficient matrix must be diagonal")
            m = np.diagonal(m)
        m = np.array(m, dtype=np.complex128)
        if m.ndim != 1 or not np.all(np.isfinite(m)):
            raise ConjtoepError("a band-0 conjugation needs a finite diagonal")
    m.setflags(write=False)
    if m.shape[0] != degree + 1:
        raise ConjtoepError("coefficient matrix size must be degree + 1")
    if float(np.max(np.abs(m))) > 1.0 + 1e-9:
        raise NotConjugationError("conjugation coefficients must have modulus at most 1")
    return m


@dataclass(frozen=True)
class BasisSpec:
    """Orthonormal columns, the n-th being ``f_n`` in canonical coordinates."""

    columns: np.ndarray
    degree: int

    def __post_init__(self):
        m = require_matrix(self.columns)
        object.__setattr__(self, "columns", m)
        if m.shape[0] != self.degree + 1:
            raise ConjtoepError("basis column length must be degree + 1")
        if m.shape[1] > m.shape[0]:
            raise BasisError("more basis columns than dimensions")

    def orthonormality_defect(self) -> float:
        gram = self.columns.conj().T @ self.columns
        return float(np.linalg.norm(gram - np.eye(self.columns.shape[1])))


@dataclass(frozen=True)
class CanonicalJ:
    pass


@dataclass(frozen=True)
class ThetaXi:
    theta: float
    xi: float


@dataclass(frozen=True)
class AlphaDiagonal:
    alphas: tuple
    period: int | None = None

    def __post_init__(self):
        vals = tuple(complex(a) for a in self.alphas)
        object.__setattr__(self, "alphas", vals)
        if not vals:
            raise ConjtoepError("alpha sequence must be nonempty")
        p = len(vals) if self.period is None else require_integer(self.period, "period")
        if not 1 <= p <= len(vals):
            raise ConjtoepError("period must lie in 1..len(alphas)")
        for a in vals:
            if abs(abs(a) - 1.0) > 1e-9:
                raise ConjtoepError("alpha sequence must be unimodular")

    def value(self, n: int) -> complex:
        if n < len(self.alphas):
            return self.alphas[n]
        p = self.period if self.period is not None else len(self.alphas)
        base = len(self.alphas) - p
        return self.alphas[base + (n - base) % p]


@dataclass(frozen=True)
class Composition:
    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        CompositionParams(self.alpha)  # validates the punctured-disc condition


@dataclass(frozen=True)
class FromBasis:
    basis: BasisSpec


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def family_spec_to_dict(spec) -> dict:
    if isinstance(spec, CanonicalJ):
        return {"family": "canonical_j"}
    if isinstance(spec, ThetaXi):
        return {"family": "theta_xi", "theta": spec.theta, "xi": spec.xi}
    if isinstance(spec, AlphaDiagonal):
        out = {"family": "alpha_diag", "alphas": [_pair(a) for a in spec.alphas]}
        if spec.period is not None:
            out["period"] = spec.period
        return out
    if isinstance(spec, Composition):
        return {"family": "composition", "alpha": _pair(spec.alpha)}
    if isinstance(spec, FromBasis):
        cols = spec.basis.columns
        return {
            "family": "basis",
            "columns": [[_pair(complex(v)) for v in cols[:, j]] for j in range(cols.shape[1])],
        }
    raise ConjtoepError(f"unknown family spec {spec!r}")


def parse_family_spec(data: dict):
    """Parse the JSON object form of a conjugation family."""
    kind = data.get("family")
    if kind == "canonical_j":
        return CanonicalJ()
    if kind == "theta_xi":
        return ThetaXi(require_number(data["theta"], "theta"), require_number(data["xi"], "xi"))
    if kind == "alpha_diag":
        alphas = tuple(require_pair(a, "alphas") for a in data["alphas"])
        return AlphaDiagonal(alphas, data.get("period"))
    if kind == "composition":
        return Composition(require_pair(data["alpha"], "alpha"))
    if kind == "basis":
        cols = data["columns"]
        length = len(cols[0])
        matrix = np.zeros((length, len(cols)), dtype=np.complex128)
        for j, col in enumerate(cols):
            if len(col) != length:
                raise ConjtoepError("basis columns must share one length")
            matrix[:, j] = [require_pair(v, "columns") for v in col]
        return FromBasis(BasisSpec(matrix, length - 1))
    raise ConjtoepError(f"unknown family {kind!r}")


def phase_diagonal(indices: np.ndarray, theta, xi) -> np.ndarray:
    """Diagonal ``exp(i sum xi) exp(-i k.theta)`` for each row ``k`` of the
    integer ``(modes, d)`` array ``indices``: the one-variable and
    multi-variable phase families share it, so their one-variable diagonals
    agree bit for bit.  Non-finite phases are refused."""
    if not all(math.isfinite(v) for v in (*theta, *xi)):
        raise ConjtoepError("phases theta and xi must be finite")
    k_dot_theta = indices[:, 0] * theta[0]
    for axis in range(1, len(theta)):
        k_dot_theta = k_dot_theta + indices[:, axis] * theta[axis]
    xi_sum = sum(xi)
    if not (math.isfinite(xi_sum) and np.all(np.isfinite(k_dot_theta))):
        raise ConjtoepError("phases theta and xi overflow")
    return np.exp(1j * xi_sum) * np.exp(-1j * k_dot_theta)


def materialize(spec, degree: int) -> Conjugation:
    """Materialize a family at a truncation degree.

    CanonicalJ is the identity and the phase families are diagonal (all
    three keep only their diagonal); Composition keeps only its spec, its
    dense matrix being formed when read; FromBasis goes through
    ``conjugation_from_fixed_basis``.
    """
    if degree < 0:
        raise ConjtoepError("degree must be nonnegative")
    n = degree + 1
    if isinstance(spec, CanonicalJ):
        return Conjugation(np.ones(n, dtype=np.complex128), degree, 0, spec, "canonical_j")
    if isinstance(spec, ThetaXi):
        diag = phase_diagonal(np.arange(n)[:, None], (spec.theta,), (spec.xi,))
        label = f"theta_xi(theta={spec.theta:g}, xi={spec.xi:g})"
        return Conjugation(diag, degree, 0, spec, label)
    if isinstance(spec, AlphaDiagonal):
        diag = np.array([spec.value(k) ** 2 for k in range(n)])
        return Conjugation(diag, degree, 0, spec, "alpha_diag")
    if isinstance(spec, Composition):
        return Conjugation(None, degree, None, spec, f"composition(alpha={spec.alpha:g})")
    if isinstance(spec, FromBasis):
        basis = spec.basis
        if degree < basis.degree:
            raise ConjtoepError("degree below basis support")
        if degree > basis.degree:
            padded = np.zeros((n, basis.columns.shape[1]), dtype=np.complex128)
            padded[: basis.degree + 1, :] = basis.columns
            basis = BasisSpec(padded, degree)
        conj = conjugation_from_fixed_basis(basis)
        return Conjugation(conj.coeff, degree, conj.band, spec, "from_basis", conj.notes)
    raise ConjtoepError(f"unknown family spec {spec!r}")


def conjugation_from_fixed_basis(
    basis: BasisSpec, tol: Tolerance = DEFAULT_TOLERANCE
) -> Conjugation:
    """Conjugation fixing the supplied orthonormal columns.

    The coefficients are the bilinear sums ``c_{n,m} = sum_k <f_k, z^n>
    <f_k, z^m>`` over the supplied columns, which makes the matrix symmetric
    by construction; canonical basis vectors beyond the supplied columns are
    completed as fixed points (``C z^n = z^n``), a library decision recorded
    in the result's notes.
    """
    f = basis.columns
    n = basis.degree + 1
    k = f.shape[1]
    defect = basis.orthonormality_defect()
    if defect > tol.threshold(1.0) + 1e-8:
        raise BasisError("basis not orthonormal")
    coeff = f @ f.T
    if k < n:
        coeff = coeff + np.diag(np.r_[np.zeros(k), np.ones(n - k)]).astype(np.complex128)
    ok, residuals = is_conjugation(coeff, n - 1, tol)
    if not ok:
        raise BasisError(
            "identity-fixed completion is not a conjugation "
            f"(symmetry {residuals['symmetry']:.2e}, unitarity {residuals['unitarity']:.2e}); "
            "supplied columns must span the leading coordinates they touch"
        )
    support = np.argwhere(np.abs(coeff) > _OFF_BAND)
    band = int(np.max(np.abs(support[:, 0] - support[:, 1]))) if support.size else 0
    notes = ()
    if k < n:
        notes = (f"identity-fixed completion beyond column {k - 1}",)
    return Conjugation(coeff, basis.degree, band, None, "from_basis", notes)


def is_conjugation(
    a, w: int, tol: Tolerance = DEFAULT_TOLERANCE, slack: float = 0.0
) -> tuple[bool, dict]:
    """Symmetric-unitary test: symmetry over the whole matrix, unitarity on
    the window ``0..w`` up to the ``slack`` of a truncation (:func:`unitarity_slack`).

    Returns ``(verdict, {"symmetry": r1, "unitarity": r2})``; a matrix is a
    conjugation coefficient matrix exactly when it is symmetric and unitary
    (involutivity ``A conj(A) = I`` then follows).
    """
    a = require_matrix(a, square=True)
    _, unit = is_unitary_on_window(a, w, tol)
    sym = float(np.linalg.norm(a - a.T))
    ok = sym <= tol.threshold(1.0) and unit <= tol.threshold(1.0) + slack
    return ok, {"symmetry": sym, "unitarity": unit}


def unitarity_slack(c: Conjugation, w: int) -> float:
    """Frobenius bound ``(w + 1) t^2`` for the unitarity defect a truncation
    inflicts on the window ``0..w``, with ``t`` the certified tail of the
    window's columns below row ``degree``; 0 when banded.  Entry ``(i, j)``
    of the defect is the inner product of the tails of columns ``i`` and
    ``j``, since ``A`` is symmetric, so Cauchy-Schwarz bounds it by ``t^2``."""
    if c.band is not None:
        return 0.0
    tails = column_tails(c.family.alpha, w + 1)
    return (w + 1) * float(tails[min(c.degree, tails.size - 1)]) ** 2


def validate_conjugation(c: Conjugation, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[dict, int, float]:
    """``(residuals, window, slack)`` of :func:`is_conjugation` on ``c``, else
    :class:`NotConjugationError`.  The window is the whole degree when ``c``
    is banded, else ``min(DENSE_WINDOW, degree)`` with the certified slack.
    A band-0 conjugation is decided from its diagonal ``d`` without forming
    ``coeff``: its symmetry residual is 0 and its Gram on the window is
    ``diag(|d|^2)``, so its unitarity residual is ``||d conj(d) - 1||``."""
    w = c.degree if c.band is not None else min(DENSE_WINDOW, c.degree)
    slack = unitarity_slack(c, w)
    if c.band == 0:
        d = c.entries[: w + 1]
        unit = float(np.linalg.norm(d * d.conj() - 1))
        ok, residuals = unit <= tol.threshold(1.0), {"symmetry": 0.0, "unitarity": unit}
    else:
        ok, residuals = is_conjugation(c.coeff, w, tol, slack)
    if not ok:
        raise NotConjugationError("not a conjugation")
    return residuals, w, slack


def canonical_factorization(c: Conjugation, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """The unique unitary ``U`` with ``C = U J``.

    Since ``C e_n = U e_n``, the unitary is the (read-only) coefficient
    matrix itself acting linearly; there is no gauge freedom.  The input is
    validated as a conjugation first (:func:`validate_conjugation`).
    """
    validate_conjugation(c, tol)
    return c.coeff


def intertwine_lambda(c: Conjugation, basis: BasisSpec, tol: Tolerance = DEFAULT_TOLERANCE) -> complex | None:
    """Recover the unimodular factor linking C to the shift of a basis.

    The basis defines a shift ``S f_n = f_{n+1}`` and a unitary
    ``U e_n = f_n``.  When C intertwines the canonical shift with S
    (``C S_can = S C`` on the checked columns), C must be a unimodular
    multiple of ``U J``; the multiple is ``<C e_0, f_0>`` and is returned
    after verifying ``||coeff - lambda U||`` on the window.  Returns None
    when no intertwining holds (a valid outcome, not an error).
    """
    b = basis.columns
    if b.shape[0] != b.shape[1] or basis.degree != c.degree:
        raise BasisError("intertwining test needs a full square basis at the same degree")
    if basis.orthonormality_defect() > tol.threshold(1.0) + 1e-8:
        raise BasisError("basis not orthonormal")
    w = c.degree - 1
    # S = b Z b^H with the canonical shift Z, applied right to left
    coords = b.conj().T @ c.coeff[:, : w + 1]
    shifted = np.zeros_like(coords)
    shifted[1:] = coords[:-1]
    lhs = c.coeff[:, 1 : w + 2]
    rhs = b @ shifted
    threshold = tol.threshold(1.0)
    # at degree 0 there is no shift equation to check
    if float(np.max(np.abs(lhs - rhs), initial=0.0)) > threshold:
        return None
    lam = complex(np.vdot(b[:, 0], c.coeff[:, 0]))
    if abs(abs(lam) - 1.0) > threshold:
        return None
    if float(np.max(np.abs(c.coeff - lam * b))) > threshold:
        return None
    return lam


def working_coefficients(c: Conjugation, cols: int, margin: int, cap: float) -> tuple[np.ndarray, int, float]:
    """``(block, degree, tail)``: the leading ``cols + 1`` columns, all rows,
    at a degree whose tail below row ``degree - margin`` meets ``cap``.

    A banded conjugation is exact at its own degree, with zero tail.  A
    dense (composition) conjugation pads to the first such degree, or to
    ``PAD_LIMIT`` with the honest tail there for the caller's verdict
    logic; it never forms its own ``coeff``.
    """
    if c.band is None:
        params = CompositionParams(c.family.alpha)
        return _working_degree(params, cols=cols, margin=margin, cap=cap, start=c.degree)
    return c.columns(cols + 1), c.degree, 0.0
