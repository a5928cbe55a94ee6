import math
import tracemalloc

import numpy as np
import pytest

import conjtoep.conjugation as conjugation
import conjtoep.polydisc as polydisc
from conjtoep.conjugation import AlphaDiagonal, BasisSpec, Conjugation, FromBasis, ThetaXi, materialize
from conjtoep.core import DEFAULT_TOLERANCE, ConjtoepError, Window, random_unitary
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
from conjtoep.symmetry import FAIL, PASS, CheckConfig, _definition, _make_plan, check_definition

from oracles import dense_definition_residual, doubly_commuting_dense, kron_poly_toeplitz, tilde_mismatch


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


def _random_poly_symbol(rng, d, theta, symmetric):
    coeffs = {}
    for _ in range(3):
        k = tuple(int(c) for c in rng.integers(-2, 3, d))
        coeffs[k] = complex(*rng.standard_normal(2))
        if symmetric:
            coeffs[tuple(-c for c in k)] = np.exp(1j * float(np.dot(k, theta))) * coeffs[k]
    return PolySymbol(d, coeffs)


def test_structured_polydisc_checks_match_dense_oracles():
    rng = np.random.default_rng(91)
    verdicts = set()
    for degrees in [(11,), (5, 4), (6, 6), (3, 4, 3), (4, 4, 4)]:
        box = BoxTruncation(degrees)
        d = box.d
        for trial in range(6):
            theta = tuple(rng.uniform(0, 2 * np.pi, d))
            xi = tuple(rng.uniform(0, 2 * np.pi, d))
            phi = _random_poly_symbol(rng, d, theta, trial % 2 == 1)
            res = poly_check_definition(phi, theta, xi, box)
            a = poly_conjugation(theta, xi, box).coeff
            t = poly_toeplitz(phi, box).matrix
            positions = box.window_positions(res.window)
            scale = max(1.0, phi.l1_norm())
            want = dense_definition_residual(a, t, positions, positions)
            assert abs(res.residual - want) <= 1e-13 * scale
            assert abs(res.tilde_mismatch - tilde_mismatch(a, t, positions)) <= 1e-13 * scale
            threshold = DEFAULT_TOLERANCE.threshold(scale)
            assert res.verdict == (PASS if want <= threshold else FAIL)
            verdicts.add(res.verdict)
        conj = poly_conjugation(rng.uniform(0, 2 * np.pi, d), rng.uniform(0, 2 * np.pi, d), box)
        got = doubly_commuting_residual(conj, box)
        want = doubly_commuting_dense(conj.coeff, degrees)
        assert got["wandering_dim"] == want["wandering_dim"] == 1
        for key in ("commute", "star_commute"):
            assert got[key] < 1e-13 and want[key] < 1e-13
    assert verdicts == {PASS, FAIL}


def test_one_variable_diagonal_definition_matches_dense_product():
    rng = np.random.default_rng(92)
    verdicts = set()
    for trial in range(40):
        degree = int(rng.integers(8, 30))
        if trial % 2:
            theta = float(rng.uniform(0, 2 * np.pi))
            spec = ThetaXi(theta, float(rng.uniform(0, 2 * np.pi)))
            coeffs = {n: complex(*rng.standard_normal(2)) for n in range(0, int(rng.integers(0, 4)))}
            if trial % 4 == 1:
                coeffs.update({-n: np.exp(1j * n * theta) * v for n, v in coeffs.items()})
        else:
            period = int(rng.integers(1, 4))
            spec = AlphaDiagonal(tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, period))), period)
            coeffs = {n: complex(*rng.standard_normal(2)) for n in range(-2, 3) if rng.uniform() < 0.6}
        phi = LaurentSymbol(coeffs)
        plan = _make_plan(phi, materialize(spec, degree), CheckConfig(degree=degree))
        idx = np.arange(plan.window + 1)
        a = materialize(spec, plan.work_degree).coeff
        t = toeplitz_matrix(phi, plan.work_degree).matrix
        want = dense_definition_residual(a, t, idx, idx)
        got = _definition(plan)
        assert abs(got.residual - want) <= 1e-13 * max(1.0, phi.l1_norm())
        assert got.verdict == (PASS if want <= plan.threshold else FAIL)
        verdicts.add(got.verdict)
    assert verdicts == {PASS, FAIL}


def test_zero_weights_widen_the_wandering_space():
    # a vanishing diagonal entry kills the weights into and out of its mode
    box = BoxTruncation((3, 3))
    diag = np.ones(box.size, dtype=complex)
    diag[box.flat((1, 1))] = 0.0
    diag[box.flat((0, 2))] = 0.5j
    conj = Conjugation(diag, box.size - 1, 0)
    got = doubly_commuting_residual(conj, box)
    want = doubly_commuting_dense(conj.coeff, box.degrees)
    assert got["wandering_dim"] == want["wandering_dim"] > 1
    for key in ("commute", "star_commute"):
        assert got[key] == pytest.approx(want[key], abs=1e-14)
    assert got["commute"] > 0.1


def test_doubly_commuting_refuses_a_banded_conjugation():
    box = BoxTruncation((2, 2))
    columns = np.zeros((box.size, 2), dtype=complex)
    columns[:2, :] = random_unitary(2, np.random.default_rng(5))
    conj = materialize(FromBasis(BasisSpec(columns, box.size - 1)), box.size - 1)
    assert conj.band == 1
    with pytest.raises(ConjtoepError, match="band-0"):
        doubly_commuting_residual(conj, box)


def test_polydisc_checks_form_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a polydisc check formed a dense matrix")

    monkeypatch.setattr(polydisc, "poly_toeplitz", refuse)
    monkeypatch.setattr(conjugation, "shift_columns", refuse)
    box = BoxTruncation((4, 3, 2))
    theta, xi = (0.4, 1.3, 2.2), (0.1, 0.2, 0.3)
    phi = PolySymbol(3, {(1, 0, -1): 1.0, (0, 0, 0): 0.5j})
    assert poly_check_definition(phi, theta, xi, box).verdict == FAIL
    conj = poly_conjugation(theta, xi, box)
    assert doubly_commuting_residual(conj, box)["wandering_dim"] == 1
    assert "coeff" not in vars(conj)


def test_large_box_runs_in_bounded_memory():
    box = BoxTruncation((16, 16, 16))
    theta, xi = (0.3, 1.1, 2.0), (0.1, 0.2, 0.3)
    phi = PolySymbol(3, {(1, 0, -1): 0.5, (0, 0, 0): 1.0, (-2, 1, 0): 0.3j})
    tracemalloc.start()
    try:
        conj = poly_conjugation(theta, xi, box)
        res = poly_check_definition(phi, theta, xi, box)
        dc = doubly_commuting_residual(conj, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box.size == 4913
    assert peak < 64 * 2**20
    assert res.verdict == FAIL and res.window == (14, 15, 15)
    assert dc["wandering_dim"] == 1 and dc["commute"] < 1e-12


@pytest.mark.parametrize("theta, xi", [((1.0, math.nan), (0.0, 0.0)), ((math.inf, 0.0), (0.0, 0.0)),
                                       ((0.0, 0.0), (-math.inf, 0.0)), ((0.0, 0.0), (1e308, 1e308))])
def test_non_finite_phases_are_refused(theta, xi):
    box = BoxTruncation((2, 2))
    phi = PolySymbol(2, {(1, 0): 1.0, (-1, 0): -1.0})
    with pytest.raises(ConjtoepError):
        poly_conjugation(theta, xi, box)
    with pytest.raises(ConjtoepError):
        poly_check_definition(phi, theta, xi, box)
    if not all(map(math.isfinite, theta)):
        with pytest.raises(ConjtoepError):
            check_poly_criterion(phi, theta)
    with pytest.raises(ConjtoepError):
        materialize(ThetaXi(theta[0] + theta[1], xi[0] + xi[1]), 4)


def test_overflowing_criterion_phase_gets_no_verdict():
    # k.theta overflows to inf, so exp(i k.theta) is NaN
    phi = PolySymbol(2, {(1, 1): 1.0, (-1, -1): 1.0})
    with np.errstate(invalid="ignore"), pytest.raises(ConjtoepError):
        check_poly_criterion(phi, (1e308, 1e308))
