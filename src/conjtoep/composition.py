"""Weighted-composition conjugation built from a Blaschke factor.

For a fixed ``alpha`` in the punctured open disc, the unitary weighted
composition operator with weight ``sqrt(1-|alpha|^2)/(1-z*conj(alpha))`` and
symbol ``(conj(alpha)/alpha)(alpha-z)/(1-conj(alpha)z)`` composed with
coordinatewise conjugation is a conjugation whose coefficient matrix is dense
with geometrically decaying entries.  The library builds it one way, by the
stable column recurrence ``composition_matrix`` with the Blaschke factor.
Each step of the recurrence runs by blocks of rows, one small triangular
product per block and a carry between blocks, so its Python work per column
does not grow with the degree; all its weights have modulus at most 1 and
are rounded once from extended precision, so the blocks are as accurate as
the row-by-row recurrence.  The tests check the matrix against that
recurrence and against the power-series expansion of the entries.  One
tail rule, the FFT-certified ``column_tails``, bounds what a truncation
drops: dense checks read the recurrence at the first degree whose tail is
small, over only the leading columns their criteria read, and a truncated
matrix's unitarity slack comes from the same tails.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ConjtoepError, Tolerance, DEFAULT_TOLERANCE, decide
from .hardy import LaurentSymbol

__all__ = [
    "CompositionParams",
    "composition_matrix",
    "column_tails",
    "check_w_symmetry_conditions",
    "TrigpolyGrid",
    "ScanReport",
    "scan_trigpoly_theorem",
]


@dataclass(frozen=True)
class CompositionParams:
    """The disc parameter of the weighted-composition conjugation."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        object.__setattr__(self, "alpha", a)
        # written so that a NaN modulus is refused too
        if not 0 < abs(a) < 1:
            raise ConjtoepError("alpha outside punctured disc")


# Rows per block of the column kernel (fewer when the matrix has fewer rows).
_BLOCK_ROWS = 32
# Powers of conj(a)^B below this are dropped from the kernel.
_NEGLIGIBLE = 1e-300


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

    One step, dividing by ``1 - conj(a) z`` and multiplying by ``(conj(a)/a)
    (a - z)``, is a first-order linear recurrence down the rows, evaluated by
    blocks (Kogge and Stone, IEEE Trans. Comput. C-22, 1973): the rows are cut
    into blocks of ``B`` (which depends only on the row count), each block is
    one product with a fixed lower-triangular ``B x B`` matrix, and the
    quotient at the end of each block carries into the later ones through the
    powers of ``conj(a)^B``, one rank-one term per block.  Every weight has
    modulus at most 1, so an entry's error stays proportional to the largest
    entry at or above it in its column, as with the row-by-row recurrence.
    """
    if degree < 0:
        raise ConjtoepError("degree must be nonnegative")
    if cols is not None and cols < 1:
        raise ConjtoepError("cols must be positive")
    a = params.alpha
    ac = a.conjugate()
    n = degree + 1
    width = n if cols is None else min(cols, n)
    size = min(n, _BLOCK_ROWS)
    count = -(-n // size)
    # The weights repeat in every block and column, so an error in one would
    # add up coherently: they are formed in extended precision, from beta^2 =
    # 1 - |a|^2 rounded once (an exact ratio of integers), and then rounded
    # once themselves.
    (x, xd), (y, yd) = a.real.as_integer_ratio(), a.imag.as_integer_ratio()
    beta2 = ((xd * yd) ** 2 - (x * yd) ** 2 - (y * xd) ** 2) / (xd * yd) ** 2
    c = np.clongdouble(ac)
    powers = c ** np.arange(size + 1)
    jumps = powers[size] ** np.arange(count)
    # smaller ones only make subnormal weights and entries, which are slow
    jumps[np.abs(jumps) < _NEGLIGIBLE] = 0
    step = (-(c / np.clongdouble(a)) * beta2 * powers[:size]).astype(np.complex128)
    # kernel[i, r]: weight of row i of a block on row r of its image; the last
    # column gives the quotient at the block's last row
    i = np.arange(size)
    kernel = np.empty((size, size + 1), dtype=np.complex128)
    kernel[:, :size] = np.concatenate((np.zeros(size - 1), [ac], step[:-1]))[i - i[:, None] + size - 1]
    kernel[:, size] = powers[size - 1 :: -1]
    # carry[b, e]: weight of block e's end quotient on the quotient entering block b
    b = np.arange(count)
    carry = np.concatenate((np.zeros(count), jumps.astype(np.complex128)))[b[:, None] - b + count - 1]
    # rows past the last are continued, not zero: they reach no retained row
    rows = (np.sqrt(np.longdouble(beta2)) * np.multiply.outer(jumps, powers[:size])).astype(np.complex128)
    out = np.empty((n, width), dtype=np.complex128)
    out[:, 0] = rows.ravel()[:n]
    for k in range(1, width):
        image = rows @ kernel
        rows = image[:, :size] + np.multiply.outer(carry @ image[:, size], step)
        out[:, k] = rows.ravel()[:n]
    return out


# Largest padded degree of a dense plan; past it a check keeps the tail
# there and may come back inconclusive.
PAD_LIMIT = 4096

# Widest default window of a dense plan.  A plan reads ``window + max(band,
# 1) + 1`` leading columns and a default one has band at most its window, so
# it reads at most ``2 * DENSE_WINDOW + 1``, the width of every cached block.
DENSE_WINDOW = 8
_CACHED_COLUMNS = 2 * DENSE_WINDOW + 1

_U, _U_EXT = (float(np.finfo(t).eps) / 2 for t in (np.float64, np.longdouble))
# More samples than this leave the Cauchy terms of the tails unresolved.
_MAX_SAMPLES = 1 << 14
# Samples per batched FFT of ``column_tails``: its two work buffers stay
# under 1 MiB at any column count.
_BATCH_SAMPLES = 1 << 15


@lru_cache(maxsize=16)
def _cached_composition_matrix(alpha: complex, degree: int) -> np.ndarray:
    """Shared read-only leading ``_CACHED_COLUMNS`` columns at a padded degree."""
    matrix = composition_matrix(CompositionParams(alpha), degree, _CACHED_COLUMNS)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=4)
def _wide_composition_matrix(alpha: complex, degree: int, count: int) -> np.ndarray:
    """A read-only block wider than the cached one (a window above :data:`DENSE_WINDOW`)."""
    matrix = composition_matrix(CompositionParams(alpha), degree, count)
    matrix.setflags(write=False)
    return matrix


def _leading_columns(alpha: complex, degree: int, count: int) -> np.ndarray:
    """The leading ``count`` columns at ``degree``."""
    if count <= _CACHED_COLUMNS:
        return _cached_composition_matrix(alpha, degree)[:, :count]
    return _wide_composition_matrix(alpha, degree, count)


@lru_cache(maxsize=None)
def _roots_of_unity(m: int) -> np.ndarray:
    """The ``m``-th roots of unity in extended precision, read-only; ``m`` is
    one of the nine powers of two from 64 to :data:`_MAX_SAMPLES`."""
    z = np.exp(1j * ((8 * np.arctan(np.longdouble(1)) / m) * np.arange(m)))
    z.setflags(write=False)
    return z


@lru_cache(maxsize=64)
def column_tails(alpha: complex, count: int) -> np.ndarray:
    """Certified l2 tails of the leading ``count`` columns: entry ``l`` bounds
    ``sqrt(sum_{j > l} |A[j, k]|^2)`` for every ``k < count`` (the last entry,
    every deeper level too).  Every entry is finite and at most 1, the norm of
    a column of the unitary.  Column ``k`` is the Taylor series of ``psi b^k``,
    at most ``M = beta/(1 - |a|R) ((R - |a|)/(1 - |a|R))^k`` on ``|z| = R =
    |a|^(-1/2)``, so ``|A[j, k]| <= M R^-j``.  The FFT of its samples on ``m``
    roots of unity gives rows ``0..m-1`` up to the aliasing ``sum_p A[j + pm,
    k]`` (Henrici, SIAM Rev. 21, 1979); a tail is their suffix sum plus the
    Cauchy bounds on the aliasing and on the rows past ``m``, which the power
    of two ``m`` brings to the unit round-off, plus round-off.  The samples
    of successive columns are formed one after another in extended
    precision and transformed in batches of at most ``_BATCH_SAMPLES``, one
    in-place FFT along the rows per batch, in two buffers every batch
    reuses, so memory stays O(m) at any ``count``.
    ``count`` must be positive."""
    if count < 1:
        raise ConjtoepError("count must be positive")
    r = abs(alpha)
    root = math.sqrt(r)
    # log M, with (R - |a|)/(1 - |a|R) = (1 + |a|^(1/2) + |a|)/|a|^(1/2)
    log_bound = math.log(math.sqrt(1 - r * r) / (1 - root)) + (count - 1) * math.log((1 + root + r) / root)
    need = (log_bound - math.log(_U * math.sqrt(1 - r))) / -math.log(root)
    m = min(_MAX_SAMPLES, max(64, 1 << math.ceil(math.log2(need))))
    # a Cauchy term above 1 leaves every tail at the cap, so it is not formed
    cauchy = math.exp(min(log_bound + m * math.log(root), 0.0)) * (1 + 1 / (1 - root**m)) / math.sqrt(1 - r)
    # the FFT's error (Higham, Accuracy and Stability, Thm 24.2), and per factor
    # 16 units of arithmetic and 32 of node error over 1 - |a| in the samples
    rounding = _U * (1 + 7 * math.log2(m)) + 48 * count * _U_EXT / (1 - r)
    z = _roots_of_unity(m)
    a = np.clongdouble(alpha)
    d = 1 - a.conjugate() * z
    b, s = (a.conjugate() / a) * (a - z) / d, np.sqrt(1 - np.longdouble(r) ** 2) / d
    # the largest sum of |c|^2 over the rows from j on, in every column read,
    # kept last row first
    sums = np.zeros(m)
    rows = min(count, max(1, _BATCH_SAMPLES // m))
    # every batch reuses one buffer of samples, transformed in place, and one
    # of their squared moduli, so no batch allocates and frees its own arrays
    batch, moduli = np.empty((rows, m), dtype=np.complex128), np.empty((rows, m))
    for first in range(0, count, rows):
        samples, power = batch[: count - first], moduli[: count - first]
        # the extended-precision powers stay sequential, one column at a time
        for row in samples:
            row[:] = s
            s *= b
        np.fft.fft(samples, axis=1, out=samples)
        np.abs(samples[:, ::-1], out=power)
        power **= 2
        np.cumsum(power, axis=1, out=power)
        np.maximum(sums, power.max(axis=0), out=sums)
    # the coefficients are the transform over m, a power of two: exact scaling
    suffix = sums[::-1] / float(m) ** 2
    norm, squares = math.sqrt(suffix[0]), np.append(suffix[1:], 0.0)
    tails = np.minimum(np.sqrt(squares * (1 + m * _U)) + cauchy + norm * rounding, 1.0)
    tails.setflags(write=False)
    return tails


def _working_degree(params: CompositionParams, cols: int, margin: int, cap: float, start: int):
    """The first degree from ``start`` whose tail at level ``degree - margin``
    meets ``cap`` (else :data:`PAD_LIMIT`), bisected since tails never grow,
    with the leading ``cols + 1`` columns there and that tail."""
    tails = column_tails(params.alpha, cols + 1)
    first = max(start, cols + margin) - margin
    last = max(PAD_LIMIT - margin, first)
    met = bisect_left(tails, -cap, key=operator.neg)
    level = min(max(first, met), last) if met < tails.size else last
    degree = level + margin
    return _leading_columns(params.alpha, degree, cols + 1), degree, float(tails[min(level, tails.size - 1)])


def check_w_symmetry_conditions(
    phi: LaurentSymbol, params: CompositionParams, n_max: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[str, float]:
    """Displayed pairing conditions for symmetry with the composition conjugation.

    ``phi_n = <T_phi W z^n, W 1>`` and ``phi_{-n} = <T_phi W 1, W z^n>``,
    ``n = 1..n_max``, are the first row and column of ``U^H T U - T^T`` on the
    plan of window ``n_max``; their largest defect is decided with the plan's
    threshold and tail.  Returns ``(verdict, residual)``.
    """
    from .conjugation import Composition, materialize
    from .symmetry import CheckConfig, _make_plan

    if n_max < phi.band:
        raise ConjtoepError("n_max must cover the symbol band")
    conj = materialize(Composition(params.alpha), n_max)
    plan = _make_plan(phi, conj, CheckConfig(degree=n_max, window=n_max, tolerance=tol))
    d = plan.defect
    residual = float(np.max(np.abs(np.r_[d[0, 1 : n_max + 1], d[1 : n_max + 1, 0]]), initial=0.0))
    return decide(residual, plan.threshold, plan.tail_bound), residual


@dataclass(frozen=True)
class TrigpolyGrid:
    """Sample values for the three coefficients of a band-1 symbol."""

    minus: tuple = ()
    zero: tuple = ()
    plus: tuple = ()

    @classmethod
    def real_grid(cls, points: int = 21, lo: float = -1.0, hi: float = 1.0) -> "TrigpolyGrid":
        if points < 1:
            raise ConjtoepError("scan grid has an empty axis")
        vals = tuple(complex(v) for v in np.linspace(lo, hi, points))
        return cls(vals, vals, vals)


@dataclass(frozen=True)
class ScanReport:
    total_points: int
    passing: tuple
    locus_points: int
    theorem_reproduced: bool


def scan_trigpoly_theorem(
    params: CompositionParams, grid: TrigpolyGrid, tol: Tolerance = DEFAULT_TOLERANCE, degree: int = 24
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
        total_points=len(points),
        passing=tuple(passing),
        locus_points=len(locus),
        theorem_reproduced=reproduced,
    )
