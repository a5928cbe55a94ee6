"""Independent brute-force oracles the library is checked against.

Everything here deliberately avoids the code paths under test: plain loops
instead of matrix products, series arithmetic instead of closed forms,
direct formulas instead of coefficient matrices.  ``traced_peak`` is the
suite's one memory probe.
"""

import math
import tracemalloc

import numpy as np


def traced_peak(call):
    """``(call(), peak)``: the result of ``call`` and the tracemalloc peak,
    in bytes, of the allocations made while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_unitary(n, rng):
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution does not favor R's signs
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_symmetric_unitary(n, rng):
    """Random symmetric unitary ``W W^t`` for a random unitary W: the
    coefficient matrix shape a conjugation requires."""
    w = random_unitary(n, rng)
    return w @ w.T


def apply_theta_xi(theta, xi, coeffs):
    """Action of the phase-family conjugation on a coefficient vector."""
    out = np.zeros(len(coeffs), dtype=np.complex128)
    for n, a in enumerate(coeffs):
        out[n] = np.exp(1j * xi) * np.exp(-1j * n * theta) * np.conj(a)
    return out


def apply_alpha_diag(alphas, coeffs):
    out = np.zeros(len(coeffs), dtype=np.complex128)
    for n, a in enumerate(coeffs):
        out[n] = alphas[n] ** 2 * np.conj(a)
    return out


def apply_fixed_basis(columns, coeffs):
    """Action of the conjugation fixing the supplied orthonormal columns.

    Expands the input over the fixed basis (completed by canonical vectors
    beyond the supplied ones), conjugates the expansion coefficients, and
    resums.
    """
    x = np.asarray(coeffs, dtype=np.complex128)
    n = len(x)
    k = columns.shape[1]
    out = np.zeros(n, dtype=np.complex128)
    for idx in range(k):
        f = columns[:, idx]
        out += np.conj(np.vdot(f, x)) * f
    for idx in range(k, n):
        out[idx] += np.conj(x[idx])
    return out


def theta_series(alpha, terms):
    """Power series of the Blaschke factor ((conj(a)/a)(a - z)/(1 - conj(a) z))."""
    ac = np.conj(alpha)
    geo = ac ** np.arange(terms)
    series = np.convolve(np.array([alpha, -1.0 + 0j]), geo)[:terms]
    return (ac / alpha) * series


def psi_series(alpha, terms):
    ac = np.conj(alpha)
    return math.sqrt(1.0 - abs(alpha) ** 2) * ac ** np.arange(terms)


def apply_composition_series(alpha, coeffs, terms=None):
    """Action of the weighted-composition conjugation, computed by series.

    Applies coordinatewise conjugation and then the composition operator as
    ``sum_q conj(a_q) theta^q psi`` with all powers formed by repeated
    truncated convolution; returns the leading ``len(coeffs)`` coefficients.
    """
    x = np.asarray(coeffs, dtype=np.complex128)
    n = len(x)
    if terms is None:
        terms = n + max(64, int(40 / max(1e-6, 1 - abs(alpha))))
    theta = theta_series(alpha, terms)
    current = psi_series(alpha, terms)
    out = np.zeros(terms, dtype=np.complex128)
    for q in range(n):
        out += np.conj(x[q]) * current
        current = np.convolve(current, theta)[:terms]
    return out[:n]


def composition_recurrence(params, degree, cols=None):
    """The composition matrix by its column recurrence, one row at a time:
    each column is divided by ``1 - conj(a) z`` with a running sum, then
    multiplied by ``(conj(a)/a) (a - z)``."""
    a = params.alpha
    ac = a.conjugate()
    n = degree + 1
    width = n if cols is None else min(cols, n)
    out = np.empty((n, width), dtype=np.complex128)
    col = math.sqrt(1.0 - abs(a) ** 2) * ac ** np.arange(n)
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


def column_tails_by_column(alpha, count):
    """The certified column tails of ``conjtoep.composition.column_tails``,
    one FFT, one suffix sum and one running maximum per column, at the same
    sample count and with the same Cauchy and round-off terms."""
    from conjtoep.composition import _MAX_SAMPLES, _U, _U_EXT

    r = abs(alpha)
    root = math.sqrt(r)
    log_bound = math.log(math.sqrt(1 - r * r) / (1 - root)) + (count - 1) * math.log((1 + root + r) / root)
    need = (log_bound - math.log(_U * math.sqrt(1 - r))) / -math.log(root)
    m = min(_MAX_SAMPLES, max(64, 1 << math.ceil(math.log2(need))))
    cauchy = math.exp(min(log_bound + m * math.log(root), 0.0)) * (1 + 1 / (1 - root**m)) / math.sqrt(1 - r)
    rounding = _U * (1 + 7 * math.log2(m)) + 48 * count * _U_EXT / (1 - r)
    z = np.exp(1j * ((8 * np.arctan(np.longdouble(1)) / m) * np.arange(m)))
    a = np.clongdouble(alpha)
    d = 1 - a.conjugate() * z
    b, s = (a.conjugate() / a) * (a - z) / d, np.sqrt(1 - np.longdouble(r) ** 2) / d
    squares, norm = np.zeros(m), 0.0
    for _ in range(count):
        c = np.fft.fft(s.astype(np.complex128)) / m
        suffix = np.cumsum(np.abs(c[::-1]) ** 2)[::-1]
        norm = max(norm, math.sqrt(suffix[0]))
        np.maximum(squares[:-1], suffix[1:], out=squares[:-1])
        s *= b
    return np.minimum(np.sqrt(squares * (1 + m * _U)) + cauchy + norm * rounding, 1.0)


def _truncated_convolve(f, g, terms):
    return np.convolve(f, g)[:terms]


def u_entry_oracle(params, i, j, series_terms=None):
    """Series-expansion route to ``<W z^i, z^j>`` of the composition unitary.

    Expands ``(alpha - z)^i`` and ``(1 - conj(alpha) z)^(-(i+1))`` as power
    series by repeated convolution and reads off coefficient ``j`` of the
    product, scaled by ``(conj(alpha)/alpha)^i * sqrt(1-|alpha|^2)``.  No
    binomial is ever evaluated and no column recurrence is stepped.
    Truncated convolutions are exact for every retained coefficient, so
    ``series_terms`` only needs to exceed ``j``; the default also honours the
    geometric-tail heuristic ``|alpha|^terms < 1e-16``.  The final Cauchy
    sum cancels as strongly as the closed form does, so the series is run in
    extended precision too.
    """
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    a = np.clongdouble(params.alpha)
    ac = np.conj(a)
    if series_terms is None:
        ratio = abs(params.alpha)
        geom_terms = int(math.ceil(-16 * math.log(10) / math.log(ratio))) if ratio < 1 else 64
        series_terms = max(j + 1, i + 1, geom_terms)
    terms = max(series_terms, j + 1)

    geometric = ac ** np.arange(terms)
    denominator = geometric.copy()
    for _ in range(i):
        denominator = _truncated_convolve(denominator, geometric, terms)
    numerator = np.array([1.0], dtype=np.clongdouble)
    for _ in range(i):
        numerator = np.convolve(numerator, np.array([a, np.clongdouble(-1.0)]))
    series = _truncated_convolve(numerator, denominator, terms)
    beta = math.sqrt(1.0 - abs(params.alpha) ** 2)
    return complex(beta * (ac / a) ** i * series[j])


def coefficient_equations_residual(a, phi, jk):
    """Frobenius norm of the defects of the two-sided coefficient identities,
    summed pair by pair.

    For ``0 <= j, k <= jk`` compares ``sum_n conj(phi_{n-k}) a[n, j]`` with
    ``sum_{n>=1} conj(phi_n) a[k, n+j] + sum_{l>=0} conj(phi_{-l}) a[k, j-l]``
    as plain finite sums over the symbol's band.
    """
    band = phi.band
    squares = 0.0
    for k in range(jk + 1):
        for j in range(jk + 1):
            lhs = 0j
            for n in range(max(0, k - band), k + band + 1):
                lhs += phi.coefficient(n - k).conjugate() * a[n, j]
            rhs = 0j
            for n in range(1, band + 1):
                rhs += phi.coefficient(n).conjugate() * a[k, n + j]
            for ell in range(0, min(j, band) + 1):
                rhs += phi.coefficient(-ell).conjugate() * a[k, j - ell]
            squares += abs(lhs - rhs) ** 2
    return math.sqrt(squares)


def xy_residual(a, phi, k, jk, trunc):
    """Euclidean norm of the row defects of ``X(k) Phi+ = Y(k) Phi-`` over
    rows ``j <= jk``, with every matrix entry written out from the
    coefficient array."""
    squares = 0.0
    for j in range(jk + 1):
        lhs = 0j
        rhs = 0j
        for n in range(1, trunc + 1):
            lhs += (a[n + k, j] - a[k, n + j]) * phi.coefficient(n).conjugate()
        for m in range(1, trunc + 1):
            val = 0j
            if m <= j:
                val += a[k, j - m]
            if m <= k:
                val -= a[k - m, j]
            rhs += val * phi.coefficient(-m).conjugate()
        squares += abs(lhs - rhs) ** 2
    return math.sqrt(squares)


def xy_matrices(a, k, trunc, rows):
    """``X(k)`` and ``Y(k)`` with rows ``j = 0..rows`` and columns
    ``m = 1..trunc``, entry by entry: ``X(k)[j, m-1] = c_{m+k, j} - c_{k, m+j}``
    and ``Y(k)[j, m-1] = c_{k, j-m} [m <= j] - c_{k-m, j} [m <= k]``, with
    ``c_{n,m} = a[n, m]``."""
    x = np.zeros((rows + 1, trunc), dtype=np.complex128)
    y = np.zeros((rows + 1, trunc), dtype=np.complex128)
    for j in range(rows + 1):
        for m in range(1, trunc + 1):
            x[j, m - 1] = a[m + k, j] - a[k, m + j]
            if m <= j:
                y[j, m - 1] += a[k, j - m]
            if m <= k:
                y[j, m - 1] -= a[k - m, j]
    return x, y


def gradedlex_box(degrees):
    grid = [()]
    for n in degrees:
        grid = [k + (i,) for k in grid for i in range(n + 1)]
    return sorted(grid, key=lambda k: (sum(k), k))


def kron_poly_toeplitz(coeffs, degrees):
    """Tensor-product route to the flat multi-index Toeplitz matrix.

    Builds each monomial as a Kronecker product of one-variable shift
    powers (adjoint powers for negative exponents) in the row-major tensor
    basis, then permutes into the graded-lexicographic enumeration.
    """
    mats = []
    for exps, value in coeffs.items():
        factors = []
        for axis, e in enumerate(exps):
            size = degrees[axis] + 1
            shift = np.eye(size, k=-1, dtype=np.complex128)
            if e >= 0:
                factors.append(np.linalg.matrix_power(shift, e))
            else:
                factors.append(np.linalg.matrix_power(shift.conj().T, -e))
        block = factors[0]
        for f in factors[1:]:
            block = np.kron(block, f)
        mats.append(value * block)
    total = sum(mats) if mats else np.zeros((np.prod([n + 1 for n in degrees]),) * 2)

    order = gradedlex_box(degrees)
    tensor_index = {}
    for pos, k in enumerate(sorted(order)):  # plain lex = row-major kron order
        tensor_index[k] = pos
    perm = [tensor_index[k] for k in order]
    p = np.array(perm)
    return total[np.ix_(p, p)]


def finite_asymmetry_residual(t, a):
    """Frobenius norm of the asymmetry of ``conj(T)^T A``: the finite
    coefficient identities as the symmetry of one product."""
    lhs = np.conj(t).T @ a
    return float(np.linalg.norm(lhs - lhs.T))


def general_symmetry_residual(t, u):
    """Frobenius norm of ``T^T - U^H T U``, the product order of the earlier
    exact finite check."""
    return float(np.linalg.norm(t.T - u.conj().T @ t @ u))


def tilde_mismatch(a, t, positions):
    """``max |<T f_q, f_p> - phi(q - p)|`` over window positions with
    ``f = A[:, positions]``, as the polydisc definition check once inlined it."""
    f = a[:, positions]
    gram = f.conj().T @ (t @ f)
    return float(np.max(np.abs(gram - t[np.ix_(positions, positions)].T)))


def dense_definition_residual(a, t, rows, cols):
    """Frobenius norm of ``C T* C - T`` on an index set from the whole
    matrices: ``A[rows] T^T conj(A[:, cols])``, the way the definition
    criterion was computed before it read only leading columns."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    image = t.T @ np.conj(a[:, cols])
    return float(np.linalg.norm(a[rows] @ image - t[np.ix_(rows, cols)]))


def s_toeplitz_filter(a, t, window):
    """Frobenius norm of ``S^H T S - T`` on ``0..window`` with the columns of
    ``S = C M_z C`` built in the canonical basis (apply C, shift by one
    coefficient, apply C again), the way the filter was once computed."""
    shifted = np.zeros((a.shape[0], window + 1), dtype=np.complex128)
    shifted[1:] = a[:-1, : window + 1]
    s = a @ np.conj(shifted)
    return float(np.linalg.norm(s.conj().T @ t @ s - t[: window + 1, : window + 1]))


def doubly_commuting_dense(a, degrees):
    """Commutator, star-commutator and wandering-space diagnostics of
    ``S_i = C M_{z_i} C`` from dense n x n matrices, as the polydisc check
    once computed them: each ``S_i = A conj(P_i A)`` with the coordinate
    shift ``P_i`` built entry by entry on the graded-lexicographic box,
    commutators restricted to the window ``n_i - 1`` per axis, and the
    wandering dimension from an SVD of the stacked windowed adjoints."""
    order = gradedlex_box(degrees)
    flat = {k: pos for pos, k in enumerate(order)}
    n = len(order)
    shifts = []
    for axis in range(len(degrees)):
        p = np.zeros((n, n), dtype=np.complex128)
        for k, pos in flat.items():
            up = k[:axis] + (k[axis] + 1,) + k[axis + 1 :]
            if up in flat:
                p[flat[up], pos] = 1.0
        shifts.append(a @ np.conj(p @ a))
    window = [pos for k, pos in flat.items() if all(c <= max(0, m - 1) for c, m in zip(k, degrees))]
    grid = np.ix_(sorted(window), sorted(window))
    commute = star = 0.0
    for i in range(len(shifts)):
        for j in range(i + 1, len(shifts)):
            si, sj = shifts[i], shifts[j]
            commute = max(commute, float(np.linalg.norm((si @ sj - sj @ si)[grid])))
            star = max(star, float(np.linalg.norm((si.conj().T @ sj - sj @ si.conj().T)[grid])))
    stacked = np.vstack([s.conj().T[grid] for s in shifts])
    singular = np.linalg.svd(stacked, compute_uv=False)
    cutoff = 1e-8 * max(1.0, float(singular[0]))
    wandering = len(window) - int(np.sum(singular > cutoff))
    return {"commute": commute, "star_commute": star, "wandering_dim": wandering}


def difference_gather(coefficients, codes):
    """Toeplitz gather through the full matrix of code differences, the way
    ``toeplitz_gather`` once indexed its table in one step."""
    span = int(np.ptp(codes))
    table = np.zeros(2 * span + 1, dtype=np.complex128)
    for c, v in coefficients.items():
        if -span <= c <= span:
            table[c + span] = v
    return table[codes[:, None] - codes[None, :] + span]
