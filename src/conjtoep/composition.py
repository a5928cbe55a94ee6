"""Weighted-composition conjugation built from a Blaschke factor.

For a fixed ``alpha`` in the punctured open disc, the unitary weighted
composition operator with weight ``sqrt(1-|alpha|^2)/(1-z*conj(alpha))`` and
symbol ``(conj(alpha)/alpha)(alpha-z)/(1-conj(alpha)z)`` composed with
coordinatewise conjugation is a conjugation whose coefficient matrix is dense
with geometrically decaying entries.  This module provides two independent
routes to those entries:

- ``u_entry``: the closed-form finite sum with exact integer binomials,
- ``composition_matrix``: a stable multiply-by-the-Blaschke-factor column
  recurrence used for bulk materialization (the closed form suffers
  catastrophic cancellation at extreme indices; the recurrence does not).

A third, power-series route serves as the test suite's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import ConjtoepError, Tolerance, DEFAULT_TOLERANCE, decide
from .hardy import LaurentSymbol, toeplitz_apply, toeplitz_matrix

__all__ = [
    "CompositionParams",
    "u_entry",
    "composition_matrix",
    "column_tails",
    "check_w_symmetry_conditions",
    "TrigpolyGrid",
    "ScanReport",
    "scan_trigpoly_theorem",
]

# Beyond this the float image of the exact binomials overflows or the
# alternating closed-form sum cancels catastrophically.
_MAX_INDEX_SUM = 1000


@dataclass(frozen=True)
class CompositionParams:
    """The disc parameter of the weighted-composition conjugation."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        object.__setattr__(self, "alpha", a)
        if a == 0 or abs(a) >= 1:
            raise ConjtoepError("alpha outside punctured disc")

    @property
    def beta(self) -> float:
        return math.sqrt(1.0 - abs(self.alpha) ** 2)


def u_entry(params: CompositionParams, i: int, j: int) -> complex:
    """Closed-form coefficient ``<W z^i, z^j>`` of the composition unitary.

    Evaluates ``sqrt(1-|a|^2) * sum_m (-1)^m a^-m C(i,m) conj(a)^(i+j-m)
    C(i+j-m, i)`` over ``m = 0..min(i,j)`` with exact integer binomials.
    The alternating sum cancels by several orders of magnitude at larger
    indices, so terms are accumulated in extended precision; the result is
    symmetric in (i, j) up to round-off.
    """
    if i < 0 or j < 0:
        raise ConjtoepError("indices must be nonnegative")
    if i + j > _MAX_INDEX_SUM:
        raise ConjtoepError("index out of supported range")
    a = np.clongdouble(params.alpha)
    ac = np.conj(a)
    total = np.clongdouble(0)
    for m in range(min(i, j) + 1):
        term = ((-1) ** m / a**m) * math.comb(i, m) * ac ** (i + j - m) * math.comb(i + j - m, i)
        total += term
    value = complex(params.beta * total)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConjtoepError("index out of supported range")
    return value


def composition_matrix(params: CompositionParams, degree: int, cols: int | None = None) -> np.ndarray:
    """Coefficient matrix of the composition conjugation at a truncation degree.

    Column ``n`` holds the leading power-series coefficients of the image of
    ``z^n``; successive columns are produced by multiplying by the Blaschke
    factor, which is numerically stable (every column of the untruncated
    matrix is a unit vector).  The retained coefficients are exact: the
    recurrence never consumes coefficients beyond the truncation.  With
    ``cols`` the recurrence stops after that many columns, giving the
    ``(degree+1) x cols`` leading block bit for bit, since each column
    depends only on the one before; the default builds all ``degree + 1``.
    """
    if degree < 0:
        raise ConjtoepError("degree must be nonnegative")
    a = params.alpha
    ac = a.conjugate()
    n = degree + 1
    width = n if cols is None else min(cols, n)
    out = np.empty((n, width), dtype=np.complex128)
    col = params.beta * ac ** np.arange(n)
    out[:, 0] = col
    twist = ac / a
    for k in range(1, width):
        g = np.empty(n, dtype=np.complex128)
        acc = 0j
        for r in range(n):
            acc = col[r] + ac * acc
            g[r] = acc
        nxt = a * g
        nxt[1:] -= g[:-1]
        col = twist * nxt
        out[:, k] = col
    return out


# Every squared entry of a column carries round-off, so a column mass near 1
# is uncertain in its last digits and a tail ``sqrt(1 - mass)`` cannot
# honestly resolve below this.
TAIL_RESOLUTION = 3.2e-7


def column_tails(matrix: np.ndarray, level: int, cols: int) -> np.ndarray:
    """Dropped-mass bounds ``sqrt(1 - ||column restricted to 0..level||^2)``.

    Valid whenever the columns of the untruncated matrix are unit vectors,
    which holds for any conjugation coefficient matrix; gives an l2 bound on
    everything a truncation at ``level`` discards.  Masses are accumulated in
    extended precision, where the platform has it, so each comes back
    correctly rounded, and the result is floored at :data:`TAIL_RESOLUTION`
    rather than ever claiming a smaller tail.
    """
    squares = np.abs(matrix[: level + 1, : cols + 1]) ** 2
    mass = np.sum(squares, axis=0, dtype=np.longdouble).astype(np.float64)
    return np.sqrt(np.maximum(1.0 - mass, TAIL_RESOLUTION**2))


# Largest padded degree the tail search tries; past it a dense check keeps
# the tail it measured and may come back inconclusive.
PAD_LIMIT = 4096

# Widest default window of a dense plan.  Its band is at most its window, so
# a default dense plan reads at most ``2 * DENSE_WINDOW + 3`` leading columns,
# the width of every cached block.
DENSE_WINDOW = 8
_CACHED_COLUMNS = 2 * DENSE_WINDOW + 3


@lru_cache(maxsize=64)
def _cached_composition_matrix(alpha: complex, degree: int) -> np.ndarray:
    """Shared read-only leading ``_CACHED_COLUMNS`` columns at a padded degree."""
    matrix = composition_matrix(CompositionParams(alpha), degree, _CACHED_COLUMNS)
    matrix.setflags(write=False)
    return matrix


def _leading_columns(alpha: complex, degree: int, count: int) -> np.ndarray:
    """The leading ``count`` columns at ``degree``: a view of the cached block
    when it is wide enough, else built for this request alone."""
    if count <= _CACHED_COLUMNS:
        return _cached_composition_matrix(alpha, degree)[:, :count]
    return composition_matrix(CompositionParams(alpha), degree, count)


@lru_cache(maxsize=1024)
def _padded_tail(alpha: complex, degree: int, margin: int, cols: int) -> float:
    """Largest of :func:`column_tails` over columns ``0..cols`` at level
    ``degree - margin``; every decision on one conjugation walks the same
    padded degrees, so each tail is measured once."""
    block = _leading_columns(alpha, degree, cols + 1)
    return float(np.max(column_tails(block, degree - margin, cols)))


def _working_degree(params: CompositionParams, cols: int, margin: int, cap: float, start: int):
    """Smallest padded degree whose measured tails meet ``cap`` (or :data:`PAD_LIMIT`),
    with the leading ``cols + 1`` columns there.

    The cap is floored at the tail resolution limit; asking for less would
    spin to the degree cap without gaining certainty.
    """
    target = max(cap, TAIL_RESOLUTION)
    degree = max(start, cols + margin + 8)
    while True:
        tail = _padded_tail(params.alpha, degree, margin, cols)
        if tail <= target or degree >= PAD_LIMIT:
            return _leading_columns(params.alpha, degree, cols + 1), degree, tail
        degree = min(PAD_LIMIT, int(degree * 1.6) + 8)


def check_w_symmetry_conditions(
    phi: LaurentSymbol,
    params: CompositionParams,
    n_max: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[str, float]:
    """Displayed pairing conditions for symmetry with the composition conjugation.

    Evaluates ``phi_n = <T_phi W z^n, W 1>`` and ``phi_{-n} = <T_phi W 1, W z^n>``
    for ``n = 1..n_max`` using the u-entries, padding the internal truncation
    until the measured tail is negligible: the first row and column of the
    transpose-basis defect, read off the padded matrix's leading columns.
    Returns ``(verdict, residual)``.
    """
    from .symmetry import transpose_defect

    if n_max < phi.band:
        raise ConjtoepError("n_max must cover the symbol band")
    scale = max(1.0, phi.l1_norm())
    threshold = tol.threshold(scale)
    cap = threshold / (16.0 * scale * max(1, n_max + 1))
    block, _, tail = _working_degree(
        params, cols=n_max + phi.band + 2, margin=phi.band + 1, cap=cap, start=48
    )
    f = block[:, : n_max + 1]
    defect = transpose_defect(f, toeplitz_apply(phi, f), toeplitz_matrix(phi, n_max).matrix)
    residual = float(np.max(np.abs(np.r_[defect[0, 1:], defect[1:, 0]]), initial=0.0))
    return decide(residual, threshold, 8.0 * scale * tail), residual


@dataclass(frozen=True)
class TrigpolyGrid:
    """Sample values for the three coefficients of a band-1 symbol."""

    minus: tuple = ()
    zero: tuple = ()
    plus: tuple = ()

    @classmethod
    def real_grid(cls, points: int = 21, lo: float = -1.0, hi: float = 1.0) -> "TrigpolyGrid":
        vals = tuple(complex(v) for v in np.linspace(lo, hi, points))
        return cls(vals, vals, vals)

    def size(self) -> int:
        return len(self.minus) * len(self.zero) * len(self.plus)


@dataclass(frozen=True)
class ScanReport:
    alpha: complex
    total_points: int
    passing: tuple
    locus_points: int
    theorem_reproduced: bool
    details: dict = field(default_factory=dict)


def scan_trigpoly_theorem(
    params: CompositionParams,
    grid: TrigpolyGrid,
    tol: Tolerance = DEFAULT_TOLERANCE,
    degree: int = 24,
) -> ScanReport:
    """Sweep band-1 symbols against the full criterion suite.

    Runs the complete check battery on every grid point, augmented with
    samples on the locus ``phi_1 = -(conj(alpha)/alpha) phi_{-1}`` (the locus
    satisfies the center-coefficient pairing equation yet must still fail).
    The theorem is reproduced when the passing set is exactly the grid's
    constants ``phi_1 = phi_{-1} = 0`` (none when no axis value is 0); a grid
    with an empty axis is refused, since it would reproduce it vacuously.
    """
    from .conjugation import Composition, materialize
    from .symmetry import PASS, CheckConfig, run_all

    if not (grid.minus and grid.zero and grid.plus):
        raise ConjtoepError("scan grid has an empty axis")
    conj = materialize(Composition(params.alpha), degree)
    config = CheckConfig(degree=degree, tolerance=tol)
    locus_factor = -params.alpha.conjugate() / params.alpha

    points = []
    for cm in grid.minus:
        for cz in grid.zero:
            for cp in grid.plus:
                points.append((cm, cz, cp))
    locus = []
    for cm in grid.minus:
        if cm == 0:
            continue
        for cz in grid.zero[:: max(1, len(grid.zero) // 3)]:
            locus.append((cm, cz, locus_factor * cm))
    points.extend(locus)

    passing = []
    for cm, cz, cp in points:
        phi = LaurentSymbol({-1: cm, 0: cz, 1: cp})
        report = run_all(phi, conj, config)
        if all(v == PASS for v in report.criterion_verdicts().values()):
            passing.append((cm, cz, cp))

    reproduced = set(passing) == {p for p in points if p[0] == 0 and p[2] == 0}
    return ScanReport(
        alpha=params.alpha,
        total_points=len(points),
        passing=tuple(passing),
        locus_points=len(locus),
        theorem_reproduced=reproduced,
        details={"degree": degree},
    )
