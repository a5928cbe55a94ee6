import cmath

import numpy as np
import pytest

from conjtoep.core import ExactnessError
from conjtoep.conjugation import (
    AlphaDiagonal,
    BasisSpec,
    CanonicalJ,
    FromBasis,
    ThetaXi,
    materialize,
)
from conjtoep.hardy import (
    LaurentSymbol,
    is_toeplitz,
    toeplitz_matrix,
)
from conjtoep.polydisc import BoxTruncation, PolySymbol, poly_toeplitz
from conjtoep.symmetry import CheckConfig, check_s_toeplitz_necessary

from oracles import difference_gather, random_unitary, traced_peak


def test_constant_symbol_gives_identity():
    t = toeplitz_matrix(LaurentSymbol({0: 1}), 2)
    np.testing.assert_array_equal(t.matrix, np.eye(3))


def test_coordinate_symbol_gives_subdiagonal():
    t = toeplitz_matrix(LaurentSymbol({1: 1}), 2)
    np.testing.assert_array_equal(t.matrix, np.eye(3, k=-1))


def test_banded_symbol_layout():
    # band-3 symbol: first column carries the nonnegative coefficients top
    # down, first row the nonpositive ones left to right
    coeffs = {n: complex(10 + n, n) for n in range(0, 4)}
    coeffs.update({-n: complex(20 + n, -n) for n in range(1, 4)})
    phi = LaurentSymbol(coeffs)
    t = toeplitz_matrix(phi, 5).matrix
    for q in range(6):
        for p in range(6):
            assert t[q, p] == phi.coefficient(q - p)
    np.testing.assert_array_equal(t[:4, 0], [phi.coefficient(k) for k in range(4)])
    np.testing.assert_array_equal(t[0, :4], [phi.coefficient(-k) for k in range(4)])


def test_truncation_restriction_consistency():
    phi = LaurentSymbol({-2: 1j, 0: 2, 3: -1})
    big = toeplitz_matrix(phi, 9).matrix
    small = toeplitz_matrix(phi, 4).matrix
    np.testing.assert_array_equal(big[:5, :5], small)


def test_is_toeplitz_accepts_construction():
    t = toeplitz_matrix(LaurentSymbol({-1: 2j, 0: 1, 2: 3}), 6)
    ok, residual = is_toeplitz(t.matrix, 5)
    assert ok and residual == 0.0


def test_is_toeplitz_rejects_varying_diagonal():
    ok, residual = is_toeplitz(np.diag([1.0, 2.0, 3.0]).astype(complex), 2)
    assert not ok and residual >= 1.0


def test_is_toeplitz_after_unitary_conjugation_with_symmetric_symbol():
    theta = 0.7
    phi = LaurentSymbol({1: 1.5, -1: 1.5 * np.exp(1j * theta), 0: 0.3})
    conj = materialize(ThetaXi(theta, 0.4), 12)
    t = toeplitz_matrix(phi, 12).matrix
    u = conj.coeff
    product = u.conj().T @ t @ u
    ok, residual = is_toeplitz(product, 10)
    assert ok and residual < 1e-12


def test_s_toeplitz_zero_for_canonical_shift():
    phi = LaurentSymbol({-2: 1, 0: 2, 1: 1j})
    result = check_s_toeplitz_necessary(phi, materialize(CanonicalJ(), 10), CheckConfig(degree=10, window=7))
    assert result.residual < 1e-14


def test_s_toeplitz_window_guard():
    phi = LaurentSymbol({1: 1})
    with pytest.raises(ExactnessError, match="exactness window violated"):
        check_s_toeplitz_necessary(phi, materialize(CanonicalJ(), 5), CheckConfig(degree=5, window=5))


def test_s_toeplitz_guard_is_exact_at_its_boundary():
    # the S-filter on the default window n - (2 b + band) of a conjugation of
    # band b equals the one at 15 more degrees, and one index more is refused
    rng = np.random.default_rng(41)
    for trial in range(60):
        n = int(rng.integers(12, 30))
        kind = trial % 3
        if kind == 0:
            family = ThetaXi(*rng.uniform(0, 2 * np.pi, 2))
        elif kind == 1:
            family = AlphaDiagonal(tuple(cmath.exp(1j * t) for t in rng.uniform(0, 2 * np.pi, rng.integers(1, 5))))
        else:
            size = int(rng.integers(2, 5))
            columns = np.zeros((n + 1, size), dtype=complex)
            columns[:size] = random_unitary(size, rng)
            family = FromBasis(BasisSpec(columns, n))
        phi = LaurentSymbol({m: complex(*rng.standard_normal(2)) for m in range(-2, 3)})
        conj = materialize(family, n)
        w = n - (2 * conj.band + 2)
        residual = check_s_toeplitz_necessary(phi, conj, CheckConfig(degree=n, window=w)).residual
        big = CheckConfig(degree=n + 15, window=w)
        reference = check_s_toeplitz_necessary(phi, materialize(family, n + 15), big).residual
        assert residual == check_s_toeplitz_necessary(phi, conj).residual
        assert residual == pytest.approx(reference, abs=1e-12 * phi.l1_norm())
        with pytest.raises(ExactnessError):
            check_s_toeplitz_necessary(phi, conj, CheckConfig(degree=n, window=w + 1))


def test_symbol_json_round_trip():
    phi = LaurentSymbol({-1: complex(0.5, -2), 0: 1, 2: 3j})
    again = LaurentSymbol.from_json(phi.to_json())
    assert again.coefficients == phi.coefficients
    assert again.band == 2


def test_symbol_drops_zeros_and_validates():
    phi = LaurentSymbol({5: 0.0, 1: 2})
    assert phi.band == 1
    assert 5 not in phi.coefficients


def test_degenerate_degree_zero():
    t = toeplitz_matrix(LaurentSymbol({0: 4 + 1j}), 0)
    assert t.matrix.shape == (1, 1)
    ok, _ = is_toeplitz(t.matrix, 0)
    assert ok


def test_blocked_gather_matches_the_full_difference_gather():
    # sizes past one block of rows, for one-variable and mixed-radix codes
    rng = np.random.default_rng(17)
    phi = LaurentSymbol({n: complex(*rng.standard_normal(2)) for n in range(-3, 4)})
    t = toeplitz_matrix(phi, 700).matrix
    assert np.array_equal(t, difference_gather(phi.coefficients, np.arange(701)))
    box = BoxTruncation((9, 9, 9))
    coeffs = {tuple(int(c) for c in rng.integers(-2, 3, 3)): complex(*rng.standard_normal(2)) for _ in range(6)}
    coded = {int(np.dot(k, box._places)): v for k, v in coeffs.items()}
    t = poly_toeplitz(PolySymbol(3, coeffs), box).matrix
    assert np.array_equal(t, difference_gather(coded, box._codes))


def test_gather_needs_no_matrix_sized_index_array():
    phi = LaurentSymbol({1: 0.3 + 0.1j, -2: 0.5, 0: 1.0})
    t, peak = traced_peak(lambda: toeplitz_matrix(phi, 1912))
    assert peak <= 1.15 * t.matrix.nbytes
