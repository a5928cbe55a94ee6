import numpy as np
import pytest

from conjtoep.conjugation import ThetaXi, materialize
from conjtoep.core import ConjtoepError, Window
from conjtoep.hardy import LaurentSymbol, toeplitz_matrix
from conjtoep.polydisc import (
    BoxTruncation,
    PolySymbol,
    check_poly_criterion,
    doubly_commuting_residual,
    poly_check_definition,
    poly_conjugation,
    poly_toeplitz,
)
from conjtoep.symmetry import FAIL, PASS, check_definition

from oracles import kron_poly_toeplitz


def test_flat_enumeration_round_trip():
    box = BoxTruncation((3, 2, 1))
    assert box.size == 4 * 3 * 2
    seen = set()
    for position in range(box.size):
        k = box.unflat(position)
        assert box.flat(k) == position
        seen.add(k)
    assert len(seen) == box.size
    # graded order: total degree never decreases
    degrees = [sum(k) for k in box.indices]
    assert degrees == sorted(degrees)


def test_constant_symbol_gives_identity():
    box = BoxTruncation((2, 2))
    t = poly_toeplitz(PolySymbol(2, {(0, 0): 1}), box)
    np.testing.assert_array_equal(t.matrix, np.eye(9))


def test_single_coordinate_is_flat_shift():
    box = BoxTruncation((1, 1))
    t = poly_toeplitz(PolySymbol(2, {(1, 0): 1}), box)
    for col, l in enumerate(box.indices):
        up = (l[0] + 1, l[1])
        expected = np.zeros(box.size)
        if up[0] <= 1:
            expected[box.flat(up)] = 1
        np.testing.assert_array_equal(t.matrix[:, col], expected)


def test_mixed_symbol_matches_kronecker_oracle():
    box = BoxTruncation((3, 3))
    coeffs = {(1, -1): 1.0 + 0j, (-1, 1): 1.0 + 0j}
    t = poly_toeplitz(PolySymbol(2, coeffs), box)
    oracle = kron_poly_toeplitz(coeffs, (3, 3))
    np.testing.assert_allclose(t.matrix, oracle, atol=1e-14)


def test_random_symbols_match_kronecker_oracle():
    rng = np.random.default_rng(14)
    for degrees in [(2, 3), (2, 3, 2)]:
        box = BoxTruncation(degrees)
        for _ in range(5):
            coeffs = {
                tuple(int(rng.integers(-2, 3)) for _ in degrees): complex(*rng.standard_normal(2))
                for _ in range(4)
            }
            t = poly_toeplitz(PolySymbol(len(degrees), coeffs), box)
            np.testing.assert_allclose(t.matrix, kron_poly_toeplitz(coeffs, degrees), atol=1e-13)


def test_zero_phases_give_identity_conjugation():
    box = BoxTruncation((2, 2))
    c = poly_conjugation((0.0, 0.0), (0.0, 0.0), box)
    np.testing.assert_array_equal(c.coeff, np.eye(9))


def test_pi_phase_alternates_in_first_axis():
    box = BoxTruncation((2, 2))
    c = poly_conjugation((np.pi, 0.0), (0.0, 0.0), box)
    diag = np.diag(c.coeff)
    for position, k in enumerate(box.indices):
        assert diag[position] == pytest.approx((-1.0) ** k[0], abs=1e-14)
    # involution
    rng = np.random.default_rng(2)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    np.testing.assert_allclose(c.coeff @ np.conj(c.coeff @ np.conj(x)), x, atol=1e-13)


def test_poly_criterion_pairs():
    theta = (np.pi, np.pi)
    fails = PolySymbol(2, {(1, 1): 1, (-1, -1): -1})
    passes = PolySymbol(2, {(1, 1): 1, (-1, -1): 1})
    assert check_poly_criterion(fails, theta)[0] == FAIL
    assert check_poly_criterion(passes, theta)[0] == PASS

    theta = (np.pi, 0.0)
    fails = PolySymbol(2, {(1, 0): 1, (-1, 0): 1})
    passes = PolySymbol(2, {(1, 0): 1, (-1, 0): -1})
    assert check_poly_criterion(fails, theta)[0] == FAIL
    assert check_poly_criterion(passes, theta)[0] == PASS


def test_constants_pass_for_any_phases():
    phi = PolySymbol(2, {(0, 0): 3 - 2j})
    for theta in [(0.0, 0.0), (1.3, -0.4), (np.pi, np.pi / 2)]:
        assert check_poly_criterion(phi, theta)[0] == PASS
        res = poly_check_definition(phi, theta, (0.5, 1.0), BoxTruncation((4, 4)))
        assert res.verdict == PASS and res.residual < 1e-12


def test_definition_oracle_agrees_with_coefficient_criterion():
    rng = np.random.default_rng(21)
    box = BoxTruncation((5, 5))
    for _ in range(12):
        theta = tuple(rng.uniform(0, 2 * np.pi, 2))
        xi = tuple(rng.uniform(0, 2 * np.pi, 2))
        coeffs = {}
        for _ in range(3):
            k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            coeffs[k] = complex(*rng.standard_normal(2))
        phi = PolySymbol(2, coeffs)
        verdict, _ = check_poly_criterion(phi, theta)
        res = poly_check_definition(phi, theta, xi, box)
        assert res.verdict == verdict
        # the transpose-basis style mismatch agrees with the verdict too
        assert (res.tilde_mismatch < 1e-10) == (verdict == PASS)


def test_definition_independent_of_global_phase_vector():
    rng = np.random.default_rng(3)
    phi = PolySymbol(2, {(1, 0): 1, (-1, 0): -1})
    theta = (np.pi, 0.0)
    box = BoxTruncation((5, 5))
    for _ in range(4):
        xi = tuple(rng.uniform(0, 2 * np.pi, 2))
        res = poly_check_definition(phi, theta, xi, box)
        assert res.verdict == PASS and res.residual < 1e-12


def test_purely_analytic_coordinate_fails_for_all_phases():
    phi = PolySymbol(2, {(1, 0): 1})
    box = BoxTruncation((4, 4))
    for theta in [(0.0, 0.0), (np.pi, 0.3), (1.0, 2.0)]:
        assert check_poly_criterion(phi, theta)[0] == FAIL
        assert poly_check_definition(phi, theta, (0.0, 0.0), box).verdict == FAIL


def test_doubly_commuting_shift_tuple():
    box = BoxTruncation((3, 3))
    for theta, xi in [((0.0, 0.0), (0.0, 0.0)), ((np.pi, np.pi / 2), (0.0, 0.0))]:
        c = poly_conjugation(theta, xi, box)
        res = doubly_commuting_residual(c, box)
        assert res["commute"] < 1e-12
        assert res["star_commute"] < 1e-12
        assert res["wandering_dim"] == 1


def test_doubly_commuting_random_phases():
    rng = np.random.default_rng(8)
    box = BoxTruncation((2, 2, 2))
    theta = tuple(rng.uniform(0, 2 * np.pi, 3))
    xi = tuple(rng.uniform(0, 2 * np.pi, 3))
    res = doubly_commuting_residual(poly_conjugation(theta, xi, box), box)
    assert res["commute"] < 1e-12 and res["star_commute"] < 1e-12
    assert res["wandering_dim"] == 1


def test_one_variable_specialization_is_bit_identical():
    rng = np.random.default_rng(30)
    for _ in range(6):
        degree = 16
        theta = float(rng.uniform(0, 2 * np.pi))
        xi = float(rng.uniform(0, 2 * np.pi))
        coeffs = {int(n): complex(*rng.standard_normal(2)) for n in rng.integers(-2, 3, 3)}
        phi1 = LaurentSymbol(coeffs)
        phid = PolySymbol(1, {(n,): v for n, v in coeffs.items()})
        box = BoxTruncation((degree,))

        t1 = toeplitz_matrix(phi1, degree).matrix
        td = poly_toeplitz(phid, box).matrix
        assert np.array_equal(t1, td)

        c1 = materialize(ThetaXi(theta, xi), degree)
        cd = poly_conjugation((theta,), (xi,), box)
        assert np.array_equal(c1.coeff, cd.coeff)

        one_var = check_definition(phi1, c1)
        multi = poly_check_definition(phid, (theta,), (xi,), box)
        assert one_var.residual == multi.residual
        assert one_var.verdict == multi.verdict


def test_symbol_json_round_trip():
    phi = PolySymbol(2, {(1, -1): 1 + 2j, (0, 3): -1.5})
    again = PolySymbol.from_json(phi.to_json())
    assert again.coefficients == phi.coefficients
    assert again.band == (1, 3)


def test_dimension_validation():
    with pytest.raises(ConjtoepError):
        PolySymbol(2, {(1,): 1})
    with pytest.raises(ConjtoepError):
        poly_toeplitz(PolySymbol(1, {(1,): 1}), BoxTruncation((2, 2)))
    with pytest.raises(ConjtoepError):
        poly_conjugation((0.1,), (0.0, 0.0), BoxTruncation((2, 2)))


def test_window_positions_are_leading_for_one_variable():
    box = BoxTruncation((6,))
    np.testing.assert_array_equal(box.window_positions((3,)), np.arange(4))
