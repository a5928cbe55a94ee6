"""Five mutually verifying complex-symmetry criteria for Toeplitz truncations.

For a symbol ``phi`` and a conjugation ``C`` with factorization ``C = U J``
the following are equivalent for the untruncated operators, and each is
implemented here as an independent numerical check:

- ``definition``: the defining identity ``C T* C = T``, evaluated by
  applying the anti-linear composition columnwise (the brute-force oracle);
- ``transpose_basis``: the matrix of T in the basis ``f_n = U z^n`` equals
  the transpose of its canonical Toeplitz matrix;
- ``conjugated_toeplitz``: ``U^H T U`` is again Toeplitz and equals the
  transposed Toeplitz matrix;
- ``coefficient_equations``: the two-sided coefficient identities in the
  conjugation's ``c_{n,m}`` scheme, one equation per pair ``(j, k)``;
- ``xy_system``: the same identities packaged as the linear systems
  ``X(k) Phi+ = Y(k) Phi-``.

A sixth check (``s_toeplitz``) verifies the necessary shift-compression
condition ``S^H T S = T`` with ``S = C M_z C = U Z U^H`` on the diagonal
steps of ``G = U^H T U`` into one index past the window, since
``S^H T S - T = U (Z^H G Z - G) U^H``; it can pass for symbols that are not
symmetric and is never counted toward criterion agreement.

Verdicts are tail-aware.  Banded conjugations give exact finite sums.  Dense
conjugations are re-materialized at an internally padded degree until the
Parseval tail of the dropped columns is negligible at the requested
tolerance; when the padding cap is hit, verdicts inside the remaining
ambiguity band degrade to ``inconclusive`` rather than guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conjugation import Conjugation, family_spec_to_dict, materialize, working_coefficients
from .core import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    ConjtoepError,
    ExactnessError,
    Tolerance,
    DEFAULT_TOLERANCE,
    Window,
    decide,
)
from .composition import DENSE_WINDOW
from .hardy import LaurentSymbol, is_toeplitz, toeplitz_apply, toeplitz_matrix

__all__ = [
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "CheckConfig",
    "CriterionResult",
    "XYSystem",
    "SymmetryReport",
    "CriterionDisagreement",
    "definition_residual",
    "diagonal_definition_defect",
    "transpose_defect",
    "coefficient_defect",
    "check_definition",
    "check_transpose_basis",
    "check_conjugated_toeplitz",
    "check_coefficient_equations",
    "build_xy",
    "check_xy",
    "check_s_toeplitz_necessary",
    "run_all",
]

CRITERIA = (
    "definition",
    "transpose_basis",
    "conjugated_toeplitz",
    "coefficient_equations",
    "xy_system",
)

# Conservative multiplier turning a measured column tail into a bound on the
# truncation error of any of the windowed two-sided products used below.
_TAIL_FACTOR = 6.0


class CriterionDisagreement(ConjtoepError):
    """Two criteria proven equivalent returned opposite decisive verdicts.

    This is always a library defect, never a property of the input; the
    diagnostic dump identifies the instance.
    """

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


@dataclass(frozen=True)
class CheckConfig:
    """Degree, index window, and tolerances for a criterion run.

    ``window`` bounds the one index range ``0..window`` every check reads;
    it defaults to the largest exactness-respecting range (8 for dense
    conjugations).
    """

    degree: int = 32
    window: int | None = None
    tolerance: Tolerance = DEFAULT_TOLERANCE


@dataclass(frozen=True)
class CriterionResult:
    verdict: str
    residual: float
    tail_bound: float = 0.0
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class XYSystem:
    """Truncated matrices and coefficient vectors of one k-indexed system."""

    k: int
    x: np.ndarray
    y: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray


@dataclass(frozen=True)
class SymmetryReport:
    verdicts: dict
    residuals: dict
    window: Window
    tolerance: Tolerance
    tail_bound: float
    degree: int
    work_degree: int
    notes: tuple = ()
    details: dict = field(default_factory=dict)

    def criterion_verdicts(self) -> dict:
        return {k: v for k, v in self.verdicts.items() if k in CRITERIA}

    def overall(self) -> str:
        core = self.criterion_verdicts().values()
        if any(v == FAIL for v in core):
            return FAIL
        if any(v == INCONCLUSIVE for v in core):
            return INCONCLUSIVE
        return PASS

    def to_json_dict(self) -> dict:
        return {
            "verdicts": dict(self.verdicts),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "window": [self.window.max_row, self.window.max_col],
            "tolerance": {
                "absolute": self.tolerance.absolute,
                "relative": self.tolerance.relative,
            },
            "tail_bound": float(self.tail_bound),
            "degree": self.degree,
            "work_degree": self.work_degree,
            "notes": list(self.notes),
            "details": {k: dict(v) for k, v in self.details.items()},
        }


@dataclass(frozen=True)
class _Plan:
    """Shared working data for one (symbol, conjugation) instance.

    ``a_work`` holds the leading ``window + band + 3`` columns of the
    coefficient matrix at ``work_degree`` (all rows) and ``t_head`` the
    Toeplitz truncation on those column indices; products with the whole
    ``T`` go through :func:`conjtoep.hardy.toeplitz_apply`, so every array
    a plan forms has at most that many columns.
    """

    phi: LaurentSymbol
    threshold: float
    window: int
    a_work: np.ndarray
    t_head: np.ndarray
    work_degree: int
    tail_bound: float
    diagonal: np.ndarray | None = None

    @cached_property
    def defect(self) -> np.ndarray:
        """``U^H T U - T^T`` on ``0..window + 1``: two criteria read its
        ``0..window`` block, the S-filter its steps into index ``window + 1``."""
        f = self.a_work[:, : self.window + 2]
        head = self.t_head[: self.window + 2, : self.window + 2]
        return transpose_defect(f, toeplitz_apply(self.phi, f), head)

    @cached_property
    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``X(k)``/``Y(k)`` matrices for ``k = 0..window``, stacked."""
        w = self.window
        return _xy_matrices(self.a_work, range(w + 1), max(self.phi.band, 1), w)


def _make_plan(phi: LaurentSymbol, conj: Conjugation, config: CheckConfig | None) -> _Plan:
    config = config or CheckConfig()
    n = conj.degree
    band = phi.band
    scale = max(1.0, phi.l1_norm())
    threshold = config.tolerance.threshold(scale)

    # Every check reads indices up to window + reach: banded C T* C is exact
    # up to n - (2 band_c + band), and X/Y reads one column beyond the window.
    band_c = conj.band
    reach = max(band, 1) + (0 if band_c is None else 2 * band_c)
    if config.window is not None:
        window = config.window
    elif band_c is not None:
        window = n - reach
    else:
        window = min(DENSE_WINDOW, n - band - 2)
    if window < band or window < 0:
        raise ConjtoepError("degree too small for the requested band")
    cap = threshold / (2.0 * _TAIL_FACTOR * (window + 1) * scale)
    a_work, work_degree, tail = working_coefficients(
        conj, cols=window + band + 2, margin=band + 1, cap=cap
    )
    if window + reach > work_degree:
        raise ExactnessError("exactness window violated")

    return _Plan(
        phi=phi,
        threshold=threshold,
        window=window,
        a_work=a_work,
        t_head=toeplitz_matrix(phi, a_work.shape[1] - 1).matrix,
        work_degree=work_degree,
        tail_bound=_TAIL_FACTOR * scale * tail * (window + 1),
        diagonal=conj.entries if band_c == 0 else None,
    )


def definition_residual(f: np.ndarray, phi: LaurentSymbol, t_block: np.ndarray) -> float:
    """Frobenius norm of ``(C T* C - T)`` on the indices of the columns
    ``f = A[:, idx]``, with ``t_block = T[idx, idx]``.

    ``C T* C`` is assembled columnwise as ``A conj(T^H (A e_p))`` on the
    rows of the set only, in one product; ``T^T conj(A e_p)`` is the
    conjugate of ``T^H (A e_p)``, taken by shifted slices, and the rows
    ``A[idx, :]`` are ``f^T``, since ``A`` is symmetric.
    """
    image = toeplitz_apply(phi, np.conj(f), transpose=True)
    return float(np.linalg.norm(f.T @ image - t_block))


def diagonal_definition_defect(diag: np.ndarray, coefficients: dict, codes: np.ndarray) -> np.ndarray:
    """Entries of ``C T* C - T`` for the diagonal conjugation ``A = diag(d)``
    that can be nonzero, among the modes with additive integer ``codes``.

    Entry ``(k, l)`` is ``d_k (phi(l - k) conj(d_l)) - phi(k - l)``,
    multiplied in the order of the dense product; it vanishes unless
    ``k - l`` or ``l - k`` is in the support.  ``coefficients`` maps codes
    to symbol coefficients, and a difference of two mode codes must
    determine the index difference (as the polydisc's mixed-radix codes
    do).  The entries come offset by offset, each in mode order.  One-variable
    plans with a band-0 conjugation and the polydisc definition check share
    this kernel, so their one-variable specializations agree bit for bit.
    No matrix is formed.
    """
    offsets = sorted(set(coefficients) | {-c for c in coefficients})
    reach = max(map(abs, offsets), default=0)
    low = int(codes.min()) - reach
    slot = np.full(int(codes.max()) + reach - low + 1, -1, dtype=np.intp)
    slot[codes - low] = np.arange(codes.size)
    # row k pairs with the column l whose code is code(k) - c, one offset c per row
    cols = slot[codes - low - np.array(offsets, dtype=np.intp)[:, None]]
    which, rows = np.nonzero(cols >= 0)
    minus = np.array([coefficients.get(-c, 0j) for c in offsets], dtype=np.complex128)
    plus = np.array([coefficients.get(c, 0j) for c in offsets], dtype=np.complex128)
    return diag[rows] * (minus[which] * np.conj(diag[cols[which, rows]])) - plus[which]


def transpose_defect(f: np.ndarray, tf: np.ndarray, t_block: np.ndarray) -> np.ndarray:
    """``f^H (T f) - T[idx, idx]^T`` with ``f = A[:, idx]``, the product
    ``tf = T f`` and ``t_block = T[idx, idx]``: entry ``(p, q)`` compares
    ``<T f_q, f_p>`` in the basis ``f_n = U z^n`` with the transposed
    Toeplitz entry."""
    return f.conj().T @ tf - t_block.T


def _definition(plan: _Plan) -> CriterionResult:
    w = plan.window
    if plan.diagonal is None:
        residual = definition_residual(plan.a_work[:, : w + 1], plan.phi, plan.t_head[: w + 1, : w + 1])
    else:
        idx = np.arange(w + 1)
        defect = diagonal_definition_defect(plan.diagonal[idx], plan.phi.coefficients, idx)
        residual = float(np.linalg.norm(defect))
    verdict = decide(residual, plan.threshold, plan.tail_bound)
    return CriterionResult(verdict, residual, plan.tail_bound)


def check_definition(
    phi: LaurentSymbol, conj: Conjugation, config: CheckConfig | None = None
) -> CriterionResult:
    """Brute-force check of the defining identity ``C T* C = T`` on the window."""
    return _definition(_make_plan(phi, conj, config))


def _transpose_basis(plan: _Plan) -> CriterionResult:
    residual = float(np.linalg.norm(plan.defect[:-1, :-1]))
    verdict = decide(residual, plan.threshold, plan.tail_bound)
    return CriterionResult(verdict, residual, plan.tail_bound)


def check_transpose_basis(
    phi: LaurentSymbol, conj: Conjugation, config: CheckConfig | None = None
) -> CriterionResult:
    """Compare the matrix of T in the basis ``f_n = U z^n`` with the
    transposed canonical Toeplitz matrix, entry by entry on the window."""
    return _transpose_basis(_make_plan(phi, conj, config))


def _conjugated_toeplitz(plan: _Plan) -> CriterionResult:
    # T^T is exactly Toeplitz, so U^H T U is Toeplitz exactly when the defect is
    defect = plan.defect[:-1, :-1]
    _, toep_residual = is_toeplitz(defect, Window.square(plan.window))
    matrix_residual = float(np.linalg.norm(defect))
    residual = max(matrix_residual, toep_residual)
    verdict = decide(residual, plan.threshold, plan.tail_bound)
    toeplitz_flag = decide(toep_residual, plan.threshold, plan.tail_bound) == PASS
    return CriterionResult(
        verdict,
        residual,
        plan.tail_bound,
        {
            "is_toeplitz": toeplitz_flag,
            "toeplitz_residual": toep_residual,
            "matrix_residual": matrix_residual,
        },
    )


def check_conjugated_toeplitz(
    phi: LaurentSymbol, conj: Conjugation, config: CheckConfig | None = None
) -> CriterionResult:
    """Form ``U^H T U``; it must be Toeplitz and equal the transposed matrix."""
    return _conjugated_toeplitz(_make_plan(phi, conj, config))


def coefficient_defect(a: np.ndarray, t: np.ndarray, jk: int, rows: int) -> float:
    """Largest defect of the coefficient identities
    ``sum_n conj(phi_{n-k}) A[n, j] = sum_m A[k, m] conj(phi_{m-j})``, i.e.
    of entry ``(k, j)`` of ``T^H A = A conj(T)``, over ``0 <= j, k <= jk``;
    every sum stops at index ``rows - 1``."""
    t = t[:rows, : jk + 1]
    lhs = t.conj().T @ a[:rows, : jk + 1]
    rhs = a[: jk + 1, :rows] @ np.conj(t)
    return float(np.max(np.abs(lhs - rhs)))


def _coefficient_equations(plan: _Plan) -> CriterionResult:
    w = plan.window
    residual = coefficient_defect(plan.a_work, plan.t_head, w, w + plan.phi.band + 1)
    verdict = decide(residual, plan.threshold, 0.0)
    return CriterionResult(verdict, residual, 0.0)


def check_coefficient_equations(
    phi: LaurentSymbol,
    conj: Conjugation,
    config: CheckConfig | None = None,
) -> CriterionResult:
    """Two-sided coefficient identities over all pairs ``0 <= j, k <= window``.

    Every sum is a complete finite sum for a banded symbol, and the
    conjugation coefficients are exact at any index, so this criterion is
    always decisive.
    """
    return _coefficient_equations(_make_plan(phi, conj, config))


def _xy_matrices(a: np.ndarray, ks: range, trunc: int, rows: int):
    """The :func:`build_xy` matrices with rows ``j = 0..rows`` for every ``k``
    in the contiguous range ``ks``, stacked on a leading axis; column
    ``m - 1`` of all of them is cut from shifted slices of the coefficient
    array ``a``."""
    k0, k1 = ks.start, ks.stop
    x = np.empty((len(ks), rows + 1, trunc), dtype=a.dtype)
    y = np.zeros_like(x)
    for m in range(1, trunc + 1):
        x[:, :, m - 1] = a[k0 + m : k1 + m, : rows + 1] - a[k0:k1, m : m + rows + 1]
        y[:, m:, m - 1] = a[k0:k1, : max(rows + 1 - m, 0)]
        y[max(m - k0, 0) :, :, m - 1] -= a[max(k0 - m, 0) : max(k1 - m, 0), : rows + 1]
    return x, y


def _phi_vectors(phi: LaurentSymbol, trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """``Phi+ = (conj(phi_n))_{n=1..trunc}`` and ``Phi- = (conj(phi_{-n}))_{n=1..trunc}``."""
    plus = np.array([phi.coefficient(n).conjugate() for n in range(1, trunc + 1)])
    minus = np.array([phi.coefficient(-n).conjugate() for n in range(1, trunc + 1)])
    return plus, minus


def build_xy(
    conj: Conjugation,
    k: int,
    trunc: int,
    phi: LaurentSymbol | None = None,
    rows: int | None = None,
) -> XYSystem:
    """Truncated ``X(k)``/``Y(k)`` system.

    Rows are indexed by ``j`` and columns by the coefficient index ``n >= 1``.
    ``X(k)[j, n-1] = c_{n+k, j} - c_{k, n+j}``; ``Y(k)`` has
    ``c_{k, j-m}`` for ``m <= j`` minus ``c_{k-m, j}`` for ``m <= k``, which
    reproduces the lower-triangular pattern whose columns beyond index k
    vanish on the rows ``j <= k``.  The row equation for ``(j, k)`` equals
    minus the equation for ``(k, j)``, so truncations keep rows beyond ``j = k``
    to cover both orderings.
    """
    if k < 0 or trunc < 1:
        raise ConjtoepError("k must be nonnegative and trunc positive")
    n_rows = (trunc + k) if rows is None else rows
    needed = max(trunc + k, k, n_rows, trunc + n_rows)
    if needed > conj.degree:
        raise ExactnessError("exactness window violated")
    x, y = _xy_matrices(conj.coeff, range(k, k + 1), trunc, n_rows)
    plus, minus = _phi_vectors(LaurentSymbol() if phi is None else phi, trunc)
    return XYSystem(k, x[0], y[0], plus, minus)


def _xy(plan: _Plan) -> CriterionResult:
    x, y = plan.xy
    trunc = x.shape[2]
    plus, minus = _phi_vectors(plan.phi, trunc)
    per_k = np.max(np.abs(x @ plus - y @ minus), axis=1)
    residual = float(np.max(per_k))
    verdict = decide(residual, plan.threshold, 0.0)
    return CriterionResult(verdict, residual, 0.0, {"per_k": per_k.tolist(), "trunc": trunc})


def check_xy(
    phi: LaurentSymbol, conj: Conjugation, config: CheckConfig | None = None
) -> CriterionResult:
    """Verify ``X(k) Phi+ = Y(k) Phi-`` with rows ``j = 0..window`` for
    ``k = 0..window``.

    Equivalent, equation by equation, to the coefficient identities; the
    two are cross-asserted as an oracle property in the test suite.
    """
    return _xy(_make_plan(phi, conj, config))


def _s_toeplitz(plan: _Plan) -> CriterionResult:
    # (Z^H G Z - G)[i, j] = G[i+1, j+1] - G[i, j], and T^T's steps vanish
    d = plan.defect
    residual = float(np.linalg.norm(d[1:, 1:] - d[:-1, :-1]))
    verdict = decide(residual, plan.threshold, plan.tail_bound)
    return CriterionResult(verdict, residual, plan.tail_bound)


def check_s_toeplitz_necessary(
    phi: LaurentSymbol, conj: Conjugation, config: CheckConfig | None = None
) -> CriterionResult:
    """Necessary-condition filter ``S^H T S = T`` with ``S = C M_z C``.

    ``S^H T S - T = U (Z^H G Z - G) U^H`` with ``G = U^H T U``, so the
    residual is the Frobenius norm of ``Z^H G Z - G`` on the window, the
    steps ``G[i+1, j+1] - G[i, j]`` for ``i, j <= window``.  For a diagonal
    or window-block ``U`` this is the norm of ``S^H T S - T`` on the window.

    A pass here never certifies symmetry (coordinate multiplication by z is
    the standard counterexample with the canonical conjugation); a decisive
    fail refutes it.  Only ``alpha_diag`` and ``basis`` conjugations can
    fail it: for ``canonical_j`` and ``theta_xi``, ``S = e^{-i theta} M_z``,
    and for ``composition``, ``S = T_b`` with ``b`` inner, where
    ``T_b* T_phi T_b = T_phi`` (Brown and Halmos, 1964), so every symbol
    passes.
    """
    return _s_toeplitz(_make_plan(phi, conj, config))


def run_all(
    phi: LaurentSymbol,
    conj,
    config: CheckConfig | None = None,
) -> SymmetryReport:
    """Run all criteria plus the shift-compression necessity check.

    ``conj`` may be a materialized :class:`Conjugation` or a family spec
    (materialized at ``config.degree``).  A decisive disagreement between
    any two of the five equivalent criteria raises
    :class:`CriterionDisagreement` with a diagnostic dump; inconclusive
    verdicts are compatible with either decisive outcome.
    """
    config = config or CheckConfig()
    if not isinstance(conj, Conjugation):
        conj = materialize(conj, config.degree)
    plan = _make_plan(phi, conj, config)

    results = {
        "definition": _definition(plan),
        "transpose_basis": _transpose_basis(plan),
        "conjugated_toeplitz": _conjugated_toeplitz(plan),
        "coefficient_equations": _coefficient_equations(plan),
        "xy_system": _xy(plan),
    }
    results["s_toeplitz"] = _s_toeplitz(plan)

    core_verdicts = {k: results[k].verdict for k in CRITERIA}
    decisive = set(core_verdicts.values()) - {INCONCLUSIVE}
    if PASS in decisive and FAIL in decisive:
        known = conj.family is not None
        dump = {
            "symbol": json.loads(phi.to_json()),
            "conjugation": family_spec_to_dict(conj.family) if known else conj.label or "custom",
            "degree": conj.degree,
            "work_degree": plan.work_degree,
            "window": plan.window,
            "verdicts": core_verdicts,
            "residuals": {k: results[k].residual for k in CRITERIA},
            "tail_bound": plan.tail_bound,
        }
        if known:
            window = [] if config.window is None else ["--window", str(config.window)]
            dump["replay"] = [
                "check", "--symbol", phi.to_json(), "--conj", json.dumps(dump["conjugation"]),
                "--degree", str(conj.degree), *window,
                "--tol-abs", repr(config.tolerance.absolute), "--tol-rel", repr(config.tolerance.relative),
            ]
        raise CriterionDisagreement(
            "equivalent criteria disagree; this is a library defect: "
            + json.dumps(dump),
            dump,
        )

    notes = tuple(conj.notes)
    if plan.work_degree != conj.degree:
        notes = notes + (f"dense tails tamed at internal degree {plan.work_degree}",)
    details = {
        name: {"tail_bound": res.tail_bound, **res.details} for name, res in results.items()
    }
    return SymmetryReport(
        verdicts={k: r.verdict for k, r in results.items()},
        residuals={k: r.residual for k, r in results.items()},
        window=Window.square(plan.window),
        tolerance=config.tolerance,
        tail_bound=max(r.tail_bound for r in results.values()),
        degree=conj.degree,
        work_degree=plan.work_degree,
        notes=notes,
        details=details,
    )
