import numpy as np
import pytest

from conjtoep.core import ConjtoepError, Window
from conjtoep.composition import TAIL_RESOLUTION, CompositionParams, composition_matrix
from conjtoep.conjugation import (
    AlphaDiagonal,
    BasisError,
    BasisSpec,
    CanonicalJ,
    Composition,
    FromBasis,
    NotConjugationError,
    ThetaXi,
    apply_conjugation,
    canonical_factorization,
    conjugation_from_fixed_basis,
    family_spec_to_dict,
    intertwine_lambda,
    is_conjugation,
    materialize,
    parse_family_spec,
    shift_from_conjugation,
    working_coefficients,
)

from oracles import apply_alpha_diag, apply_composition_series, apply_fixed_basis, apply_theta_xi


def _swap_block_basis(degree):
    """Fixed basis {1, (z+z^2)/sqrt2, i(z-z^2)/sqrt2, z^3, ...} of the
    coefficient-swapping conjugation."""
    n = degree + 1
    cols = np.zeros((n, 3), dtype=complex)
    cols[0, 0] = 1
    cols[1, 1] = cols[2, 1] = 1 / np.sqrt(2)
    cols[1, 2] = 1j / np.sqrt(2)
    cols[2, 2] = -1j / np.sqrt(2)
    return BasisSpec(cols, degree)


def test_theta_xi_zero_is_canonical():
    c = materialize(ThetaXi(0.0, 0.0), 3)
    np.testing.assert_array_equal(c.coeff, np.eye(4))


def test_theta_xi_pi_alternates():
    c = materialize(ThetaXi(np.pi, 0.0), 2)
    np.testing.assert_allclose(c.coeff, np.diag([1, -1, 1]).astype(complex), atol=1e-15)
    # involution: applying twice is the identity
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    np.testing.assert_allclose(apply_conjugation(c, apply_conjugation(c, x)), x, atol=1e-14)


def test_alpha_diagonal_powers_of_i():
    alphas = tuple(1j**n for n in range(4))
    c = materialize(AlphaDiagonal(alphas, period=4), 2)
    np.testing.assert_allclose(c.coeff, np.diag([1, -1, 1]).astype(complex), atol=1e-15)


def test_alpha_diagonal_periodic_extension():
    spec = AlphaDiagonal((1, -1, 1j), period=2)
    assert spec.value(3) == -1  # cycles over the final two entries
    assert spec.value(4) == 1j
    assert spec.value(5) == -1


def test_alpha_diagonal_requires_unimodular():
    with pytest.raises(ConjtoepError, match="unimodular"):
        AlphaDiagonal((0.5,))


def test_composition_requires_punctured_disc():
    with pytest.raises(ConjtoepError, match="punctured disc"):
        materialize(Composition(0.0), 4)
    with pytest.raises(ConjtoepError, match="punctured disc"):
        materialize(Composition(1.2), 4)


def test_family_actions_match_direct_formulas():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)

    c = materialize(ThetaXi(0.9, -0.4), 8)
    np.testing.assert_allclose(apply_conjugation(c, x), apply_theta_xi(0.9, -0.4, x), atol=1e-14)

    alphas = tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, 9)))
    c = materialize(AlphaDiagonal(alphas), 8)
    np.testing.assert_allclose(apply_conjugation(c, x), apply_alpha_diag(alphas, x), atol=1e-14)

    c = materialize(Composition(0.4 + 0.2j), 8)
    np.testing.assert_allclose(
        apply_conjugation(c, x), apply_composition_series(0.4 + 0.2j, x), atol=1e-12
    )


def test_fixed_basis_canonical_columns_give_identity():
    basis = BasisSpec(np.eye(5, dtype=complex), 4)
    c = conjugation_from_fixed_basis(basis)
    np.testing.assert_allclose(c.coeff, np.eye(5), atol=1e-14)


def test_fixed_basis_phase_columns_recover_diagonal_family():
    theta, xi = 1.3, 0.7
    n = 6
    cols = np.diag([np.exp(1j * xi / 2) * np.exp(-1j * k * theta / 2) for k in range(n)])
    c = conjugation_from_fixed_basis(BasisSpec(cols, n - 1))
    expected = np.diag([np.exp(1j * xi) * np.exp(-1j * k * theta) for k in range(n)])
    np.testing.assert_allclose(c.coeff, expected, atol=1e-13)


def test_fixed_basis_swap_block():
    degree = 5
    basis = _swap_block_basis(degree)
    c = conjugation_from_fixed_basis(basis)
    expected = np.eye(degree + 1, dtype=complex)
    expected[1:3, 1:3] = [[0, 1], [1, 0]]
    np.testing.assert_allclose(c.coeff, expected, atol=1e-13)
    assert c.notes  # completion beyond the supplied columns is flagged
    # every supplied column is fixed by the materialized map
    for j in range(basis.columns.shape[1]):
        f = basis.columns[:, j]
        np.testing.assert_allclose(apply_conjugation(c, f), f, atol=1e-13)
    # independent application oracle agrees
    rng = np.random.default_rng(2)
    x = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    np.testing.assert_allclose(
        apply_conjugation(c, x), apply_fixed_basis(basis.columns, x), atol=1e-13
    )


def test_fixed_basis_real_block_gives_canonical_conjugation():
    # with the untwisted column (z - z^2)/sqrt2 the coefficient sums collapse
    # to the identity, i.e. the canonical conjugation also fixes this basis
    degree = 5
    cols = np.zeros((degree + 1, 3), dtype=complex)
    cols[0, 0] = 1
    cols[1, 1] = cols[2, 1] = 1 / np.sqrt(2)
    cols[1, 2] = 1 / np.sqrt(2)
    cols[2, 2] = -1 / np.sqrt(2)
    c = conjugation_from_fixed_basis(BasisSpec(cols, degree))
    np.testing.assert_allclose(c.coeff, np.eye(degree + 1), atol=1e-13)
    for j in range(3):
        np.testing.assert_allclose(apply_conjugation(c, cols[:, j]), cols[:, j], atol=1e-13)


def test_fixed_basis_rejects_non_orthonormal():
    cols = np.ones((4, 2), dtype=complex)
    with pytest.raises(BasisError, match="basis not orthonormal"):
        conjugation_from_fixed_basis(BasisSpec(cols, 3))


def test_fixed_basis_rejects_leaky_completion():
    # a single column straddling coordinates 0..2 cannot be completed by
    # identity-fixing the rest
    cols = np.zeros((4, 1), dtype=complex)
    cols[0, 0] = cols[2, 0] = 1 / np.sqrt(2)
    with pytest.raises(BasisError, match="not a conjugation"):
        conjugation_from_fixed_basis(BasisSpec(cols, 3))


def test_is_conjugation_examples():
    ok, _ = is_conjugation(np.eye(3, dtype=complex), Window.full(3))
    assert ok
    ok, _ = is_conjugation(np.array([[0, 1], [1, 0]], dtype=complex), Window.full(2))
    assert ok
    ok, residuals = is_conjugation(np.array([[0, 1], [-1, 0]], dtype=complex), Window.full(2))
    assert not ok and residuals["symmetry"] > 1


def test_factorization_of_canonical_is_identity():
    u = canonical_factorization(materialize(CanonicalJ(), 5))
    np.testing.assert_array_equal(u, np.eye(6))


def test_factorization_of_phase_family():
    theta, xi = 2.1, -0.3
    c = materialize(ThetaXi(theta, xi), 7)
    u = canonical_factorization(c)
    expected = np.diag([np.exp(1j * xi) * np.exp(-1j * k * theta) for k in range(8)])
    np.testing.assert_allclose(u, expected, atol=1e-13)
    # recomposing with coordinatewise conjugation reproduces the map exactly
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    np.testing.assert_array_equal(u @ np.conj(x), apply_conjugation(c, x))


def test_factorization_of_block_basis():
    c = conjugation_from_fixed_basis(_swap_block_basis(6))
    u = canonical_factorization(c)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(7), atol=1e-12)
    np.testing.assert_array_equal(u, c.coeff)


def test_factorization_rejects_non_conjugation():
    bad = materialize(CanonicalJ(), 3)
    broken = bad.coeff.copy()
    broken[0, 0] = 0.2
    from conjtoep.conjugation import Conjugation

    with pytest.raises(NotConjugationError, match="not a conjugation"):
        canonical_factorization(Conjugation(broken, 3, 0))


def test_shift_from_canonical_is_coordinate_multiplication():
    s = shift_from_conjugation(materialize(CanonicalJ(), 6))
    np.testing.assert_array_equal(s.matrix, np.eye(7, k=-1))


def test_shift_from_phase_family_is_twisted_multiplication():
    theta = 1.1
    s = shift_from_conjugation(materialize(ThetaXi(theta, 0.6), 6))
    np.testing.assert_allclose(s.matrix, np.exp(-1j * theta) * np.eye(7, k=-1), atol=1e-14)


def test_shift_from_composition_is_truncated_isometry():
    c = materialize(Composition(0.5), 64)
    s = shift_from_conjugation(c)
    block = s.matrix[:, :9]
    # QR-rank oracle: nine leading columns are orthonormal
    singular = np.linalg.svd(block, compute_uv=False)
    assert np.max(np.abs(singular - 1)) < 1e-7
    # adjoint kernel on the window is one-dimensional up to the geometric
    # leakage of the kernel vector's tail (|alpha|^window)
    window = s.matrix[:10, :10]
    sv = np.linalg.svd(window.conj().T, compute_uv=False)
    assert int(np.sum(sv < 1e-2)) == 1
    assert sv[-2] > 0.9  # the rest of the spectrum stays isometric


def test_intertwine_recovers_trivial_lambda():
    c = materialize(CanonicalJ(), 5)
    basis = BasisSpec(np.eye(6, dtype=complex), 5)
    lam = intertwine_lambda(c, basis)
    assert lam == pytest.approx(1.0)


def test_intertwine_recovers_scalar_phase():
    from conjtoep.conjugation import Conjugation

    lam_true = np.exp(1j * np.pi / 3)
    c = Conjugation(lam_true * np.eye(6, dtype=complex), 5, 0)
    basis = BasisSpec(np.eye(6, dtype=complex), 5)
    lam = intertwine_lambda(c, basis)
    assert lam is not None
    assert abs(lam - lam_true) < 1e-12
    assert abs(abs(lam) - 1) < 1e-12


def test_intertwine_absent_for_noncommuting_phase_family():
    c = materialize(ThetaXi(1.0, 0.0), 6)
    basis = BasisSpec(np.eye(7, dtype=complex), 6)
    assert intertwine_lambda(c, basis) is None


def test_involution_property_across_families():
    rng = np.random.default_rng(4)
    degree = 20
    specs = [
        CanonicalJ(),
        ThetaXi(0.8, 1.9),
        AlphaDiagonal(tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, 5)).tolist()), period=5),
        FromBasis(_swap_block_basis(degree)),
    ]
    for spec in specs:
        c = materialize(spec, degree)
        for _ in range(10):
            x = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            np.testing.assert_allclose(
                apply_conjugation(c, apply_conjugation(c, x)), x, atol=1e-12
            )
    # dense family: involution holds on the window up to the measured tail
    c = materialize(Composition(0.35), 48)
    tails = c.tails(48, 8)
    for _ in range(10):
        x = np.zeros(49, dtype=complex)
        x[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        twice = apply_conjugation(c, apply_conjugation(c, x))
        assert np.max(np.abs((twice - x)[:9])) < 1e-10 + 3 * np.max(tails) * np.linalg.norm(x)


def test_coefficient_scheme_symmetry_and_bound():
    rng = np.random.default_rng(6)
    for spec in [ThetaXi(0.3, 0.2), Composition(0.45 + 0.1j), FromBasis(_swap_block_basis(10))]:
        c = materialize(spec, 10)
        assert np.max(np.abs(c.coeff - c.coeff.T)) < 1e-12
        assert np.max(np.abs(c.coeff)) <= 1 + 1e-10
        n, m = rng.integers(0, 10, 2)
        assert c.entry(int(n), int(m)) == c.entry(int(m), int(n))


def test_working_coefficients_padding():
    c = materialize(Composition(0.5), 16)
    matrix, degree, tail = working_coefficients(c, cols=10, margin=2, cap=1e-9)
    assert degree > 16
    assert tail <= max(1e-9, TAIL_RESOLUTION)
    # the block is the padded matrix's leading columns, which extend c
    padded = composition_matrix(CompositionParams(0.5), degree)
    np.testing.assert_array_equal(matrix, padded[:, :11])
    np.testing.assert_allclose(padded[:17, :17], c.coeff, atol=1e-13)
    # banded families come back untouched
    cb = materialize(ThetaXi(0.2, 0.1), 16)
    matrix, degree, tail = working_coefficients(cb, cols=10, margin=2, cap=1e-9)
    assert degree == 16 and tail == 0.0


def test_family_spec_json_round_trip():
    specs = [
        CanonicalJ(),
        ThetaXi(3.14159, 0.0),
        AlphaDiagonal((1, 1j, -1), period=3),
        Composition(0.3 - 0.2j),
        FromBasis(BasisSpec(np.eye(3, dtype=complex), 2)),
    ]
    for spec in specs:
        again = parse_family_spec(family_spec_to_dict(spec))
        c1 = materialize(spec, 4)
        c2 = materialize(again, 4)
        np.testing.assert_allclose(c1.coeff, c2.coeff, atol=1e-14)


def test_materialized_composition_decay_descriptor():
    c = materialize(Composition(0.6), 12)
    assert c.band is None
