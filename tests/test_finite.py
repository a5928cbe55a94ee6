import numpy as np
import pytest

from conjtoep.conjugation import Composition, Conjugation, materialize, CanonicalJ, is_conjugation
from conjtoep.core import ConjtoepError, Window, random_symmetric_unitary
from conjtoep.finite import (
    FiniteToeplitz,
    finite_symmetry_criterion,
    general_symmetry,
    toeplitz_conjugation,
)


def random_finite_toeplitz(rng, n):
    return FiniteToeplitz(
        n, {k: complex(*rng.standard_normal(2)) for k in range(-n, n + 1)}
    )


def test_toeplitz_conjugation_small_matrices():
    np.testing.assert_array_equal(toeplitz_conjugation(1).coeff, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(toeplitz_conjugation(0).coeff, [[1]])
    c = toeplitz_conjugation(4)
    for m in range(5):
        for n in range(5):
            assert c.coeff[m, n] == (1 if m + n == 4 else 0)
    ok, _ = is_conjugation(c.coeff, Window.full(5))
    assert ok


def test_every_toeplitz_matrix_symmetric_under_flip_conjugation():
    rng = np.random.default_rng(42)
    for n in range(1, 7):
        t = random_finite_toeplitz(rng, n)
        ok, residual = finite_symmetry_criterion(t, toeplitz_conjugation(n))
        assert ok and residual < 1e-12


def test_canonical_conjugation_requires_reflection_symmetric_diagonals():
    sym = FiniteToeplitz(2, {1: 2 - 1j, -1: 2 - 1j, 0: 5})
    asym = FiniteToeplitz(2, {1: 1, -1: 0})
    j = materialize(CanonicalJ(), 2)
    ok, _ = finite_symmetry_criterion(sym, j)
    assert ok
    ok, residual = finite_symmetry_criterion(asym, j)
    assert not ok and residual > 0.5


def test_general_symmetry_diagonal_with_canonical():
    t = np.diag([1.0, 1j, -2.0]).astype(complex)
    ok, residual = general_symmetry(t, materialize(CanonicalJ(), 2))
    assert ok and residual < 1e-14


def test_general_symmetry_nilpotent_with_flip():
    t = np.array([[0, 1], [0, 0]], dtype=complex)
    ok, residual = general_symmetry(t, toeplitz_conjugation(1))
    assert ok and residual < 1e-14


def test_general_symmetry_detects_plain_asymmetry():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ok, residual = general_symmetry(t, materialize(CanonicalJ(), 3))
    assert not ok
    assert residual == pytest.approx(float(np.linalg.norm(t - t.T)), abs=1e-12)


def test_criteria_agree_on_random_pairs():
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        t = random_finite_toeplitz(rng, n)
        pick = rng.integers(0, 3)
        if pick == 0:
            conj = materialize(CanonicalJ(), n)
        elif pick == 1:
            conj = toeplitz_conjugation(n)
        else:
            conj = Conjugation(random_symmetric_unitary(n + 1, rng), n, n)
        ok_coeff, _ = finite_symmetry_criterion(t, conj)
        ok_general, _ = general_symmetry(t.matrix(), conj)
        assert ok_coeff == ok_general


def test_general_matches_anti_linear_definition_residual():
    # || T^t - U^H T U || equals || C T* C - T || by unitary invariance
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        t = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        conj = Conjugation(random_symmetric_unitary(n + 1, rng), n, n)
        _, residual = general_symmetry(t, conj)
        a = conj.coeff
        direct = float(np.linalg.norm(a @ t.T @ np.conj(a) - t))
        assert residual == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_shift_by_scalar_multiple_of_identity_is_irrelevant():
    rng = np.random.default_rng(23)
    n = 5
    t = random_finite_toeplitz(rng, n)
    conj = toeplitz_conjugation(n)
    mu = complex(*rng.standard_normal(2))
    shifted = FiniteToeplitz(n, {**t.a, 0: t.value(0) + mu})
    ok_a, _ = finite_symmetry_criterion(t, conj)
    ok_b, _ = finite_symmetry_criterion(shifted, conj)
    assert ok_a == ok_b
    ok_a2, _ = general_symmetry(t.matrix(), conj)
    ok_b2, _ = general_symmetry(t.matrix() + mu * np.eye(n + 1), conj)
    assert ok_a2 == ok_b2
    # and for a non-symmetric instance under the canonical conjugation
    asym = FiniteToeplitz(n, {1: 1})
    j = materialize(CanonicalJ(), n)
    ok_c, _ = finite_symmetry_criterion(asym, j)
    ok_d, _ = finite_symmetry_criterion(FiniteToeplitz(n, {1: 1, 0: mu}), j)
    assert ok_c == ok_d is False


def test_size_mismatch_raises():
    t = FiniteToeplitz(3, {0: 1})
    with pytest.raises(ConjtoepError):
        finite_symmetry_criterion(t, toeplitz_conjugation(2))
    with pytest.raises(ConjtoepError):
        general_symmetry(np.eye(3, dtype=complex), toeplitz_conjugation(3))


def test_truncated_dense_conjugation_is_refused():
    # the truncated composition matrix is not unitary, so the identity
    # would measure the truncation, not an asymmetry
    conj = materialize(Composition(0.5), 2)
    with pytest.raises(ConjtoepError, match="truncated dense conjugation"):
        finite_symmetry_criterion(FiniteToeplitz(2, {0: 1}), conj)
    with pytest.raises(ConjtoepError, match="truncated dense conjugation"):
        general_symmetry(np.eye(3, dtype=complex), conj)


def test_finite_json_round_trip():
    t = FiniteToeplitz(3, {-2: 1 + 1j, 0: 2, 1: -3j})
    again = FiniteToeplitz.from_json(t.to_json())
    assert again.a == t.a
    assert again.size_minus_one == 3
    np.testing.assert_array_equal(again.matrix(), t.matrix())


def test_finite_json_refuses_a_size_that_is_not_an_integer():
    # a float, boolean or string N was once truncated or coerced silently
    for size in (2.7, 2.0, True, "3", None):
        with pytest.raises(ConjtoepError, match="N must be an integer"):
            FiniteToeplitz.from_json_dict({"N": size, "a": {"1": [1, 0]}})
    assert FiniteToeplitz.from_json_dict({"N": 2, "a": {"1": [1, 0]}}).size_minus_one == 2


def test_diagonal_index_validation():
    with pytest.raises(ConjtoepError):
        FiniteToeplitz(2, {5: 1})
