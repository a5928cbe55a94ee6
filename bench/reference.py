"""Reference computations the benchmark checks the library's verdicts against.

Nothing here calls ``conjtoep``: conjugation coefficients are rebuilt from
the family parameters, Toeplitz entries and definition residuals come from
plain loops, the composition conjugation from power-series convolution and
the polydisc Toeplitz matrix from Kronecker products of shift powers.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def phase_diagonal(theta: float, xi: float, n: int) -> list:
    """Diagonal ``d_k = exp(i xi) exp(-i k theta)`` of the phase conjugation."""
    return [cmath.exp(1j * xi) * cmath.exp(-1j * k * theta) for k in range(n)]


def diagonal_residual(d: list, coeffs: dict, window: int) -> float:
    """Frobenius norm over ``i, j <= window`` of ``d_i conj(d_j) phi_{j-i} - phi_{i-j}``.

    For a diagonal conjugation ``C x = D conj(x)`` the entry ``(i, j)`` of
    ``C T* C - T`` is exactly this difference, so the symbol is symmetric
    precisely when every term vanishes.
    """
    total = 0.0
    for i in range(window + 1):
        for j in range(window + 1):
            diff = d[i] * d[j].conjugate() * coeffs.get(j - i, 0j) - coeffs.get(i - j, 0j)
            total += abs(diff) ** 2
    return math.sqrt(total)


def block_conjugation(block: np.ndarray, n: int) -> dict:
    """Nonzero coefficients ``{(row, col): value}`` of the conjugation fixing
    the columns of a unitary ``block`` in the leading coordinates and every
    canonical vector beyond them."""
    k = block.shape[0]
    coeff = {}
    for i in range(k):
        for j in range(k):
            value = 0j
            for m in range(k):
                value += complex(block[i, m]) * complex(block[j, m])
            if abs(value) > 1e-13:
                coeff[(i, j)] = value
    for i in range(k, n):
        coeff[(i, i)] = 1 + 0j
    return coeff


def band_of(coeff: dict) -> int:
    return max(abs(i - j) for i, j in coeff)


def plain_toeplitz(coeffs: dict, n: int) -> list:
    """Rows of the ``n x n`` Toeplitz truncation, entry ``(q, p) = phi_{q-p}``."""
    return [[coeffs.get(q - p, 0j) for p in range(n)] for q in range(n)]


def definition_residual(coeff: dict, n: int, coeffs: dict, window: int) -> float:
    """Frobenius norm of ``C T* C - T`` on ``[0..window]^2`` by plain loops.

    Column ``p`` of ``C T* C`` is ``A conj(T^H a_p)`` with ``a_p`` the
    ``p``-th column of the coefficient matrix ``A``.
    """
    t = plain_toeplitz(coeffs, n)
    by_col = {}
    by_row = {}
    for (i, j), v in coeff.items():
        by_col.setdefault(j, []).append((i, v))
        by_row.setdefault(i, []).append((j, v))
    total = 0.0
    for p in range(window + 1):
        u = []
        for ell in range(n):
            acc = 0j
            for m, v in by_col.get(p, ()):
                acc += t[m][ell].conjugate() * v
            u.append(acc)
        for i in range(window + 1):
            image = 0j
            for ell, v in by_row.get(i, ()):
                image += v * u[ell].conjugate()
            total += abs(image - t[i][p]) ** 2
    return math.sqrt(total)


def composition_columns(alpha: complex, rows: int, cols: int) -> np.ndarray:
    """Leading ``rows x cols`` coefficients of the composition conjugation.

    Column ``k`` is the power series of ``psi * b^k`` with weight
    ``psi = sqrt(1-|a|^2) / (1 - conj(a) z)`` and twisted Blaschke factor
    ``b = (conj(a)/a) (a - z) / (1 - conj(a) z)``, each power formed by one
    more truncated convolution.
    """
    ac = alpha.conjugate()
    geometric = ac ** np.arange(rows)
    blaschke = (ac / alpha) * np.convolve(np.array([alpha, -1.0 + 0j]), geometric)[:rows]
    column = math.sqrt(1.0 - abs(alpha) ** 2) * geometric
    out = np.empty((rows, cols), dtype=np.complex128)
    out[:, 0] = column
    for k in range(1, cols):
        column = np.convolve(column, blaschke)[:rows]
        out[:, k] = column
    return out


def graded_lex(degrees) -> list:
    grid = [()]
    for n in degrees:
        grid = [k + (i,) for k in grid for i in range(n + 1)]
    return sorted(grid, key=lambda k: (sum(k), k))


def kron_poly_toeplitz(coeffs: dict, degrees) -> np.ndarray:
    """Flat polydisc Toeplitz matrix as a sum of Kronecker products.

    Each monomial ``z^k`` is the tensor product of one-variable shift powers
    (adjoint powers for negative exponents) in row-major tensor order, then
    permuted into the graded-lexicographic enumeration.
    """
    size = 1
    for n in degrees:
        size *= n + 1
    total = np.zeros((size, size), dtype=np.complex128)
    for exps, value in coeffs.items():
        block = np.ones((1, 1), dtype=np.complex128)
        for axis, e in enumerate(exps):
            factor = np.eye(degrees[axis] + 1, k=-e, dtype=np.complex128)
            block = np.kron(block, factor)
        total += value * block
    order = graded_lex(degrees)
    row_major = {k: pos for pos, k in enumerate(sorted(order))}
    perm = np.array([row_major[k] for k in order])
    return total[np.ix_(perm, perm)]


def poly_coefficient_residual(coeffs: dict, theta) -> float:
    """``max |exp(i k.theta) phi(k) - phi(-k)|`` over the symmetrised support."""
    support = set(coeffs) | {tuple(-c for c in k) for k in coeffs}
    worst = 0.0
    for k in support:
        phase = cmath.exp(1j * sum(kj * tj for kj, tj in zip(k, theta)))
        minus = tuple(-c for c in k)
        worst = max(worst, abs(phase * coeffs.get(k, 0j) - coeffs.get(minus, 0j)))
    return worst
