import math

import numpy as np
import pytest

import conjtoep.composition as composition
from conjtoep.composition import (
    TAIL_RESOLUTION,
    CompositionParams,
    TrigpolyGrid,
    check_w_symmetry_conditions,
    column_tails,
    composition_matrix,
    scan_trigpoly_theorem,
    u_entry,
)
from conjtoep.conjugation import Composition, is_conjugation, materialize, working_coefficients
from conjtoep.core import ConjtoepError, Tolerance, Window
from conjtoep.hardy import LaurentSymbol
from conjtoep.symmetry import PASS, run_all

from oracles import column_tails_fsum, u_entry_oracle


ALPHAS = [0.3, 0.5 * np.exp(1j * np.pi / 4), 0.7j]


def test_params_validation():
    with pytest.raises(ConjtoepError, match="punctured disc"):
        CompositionParams(0)
    with pytest.raises(ConjtoepError, match="punctured disc"):
        CompositionParams(1.0)


def test_first_row_is_scaled_kernel_coefficients():
    for alpha in ALPHAS:
        p = CompositionParams(alpha)
        for j in range(10):
            expected = math.sqrt(1 - abs(alpha) ** 2) * np.conj(alpha) ** j
            assert u_entry(p, 0, j) == pytest.approx(expected, abs=1e-14)


def test_u11_half_alpha():
    p = CompositionParams(0.5)
    assert u_entry(p, 1, 1) == pytest.approx(-math.sqrt(3) / 4, abs=1e-14)


def test_entry_symmetry_sampled():
    rng = np.random.default_rng(12)
    for _ in range(20):
        alpha = (0.1 + 0.7 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = CompositionParams(complex(alpha))
        i, j = rng.integers(0, 12, 2)
        assert abs(u_entry(p, int(i), int(j)) - u_entry(p, int(j), int(i))) < 1e-12
    p = CompositionParams(0.4 - 0.3j)
    assert abs(u_entry(p, 2, 1) - u_entry(p, 1, 2)) < 1e-14


def test_closed_form_matches_series_oracle():
    for alpha in ALPHAS:
        p = CompositionParams(alpha)
        for i in range(13):
            for j in range(13):
                got = u_entry(p, i, j)
                want = u_entry_oracle(p, i, j)
                assert abs(got - want) < 1e-12


def test_matrix_recurrence_matches_closed_form():
    for alpha in [0.3, 0.55 * np.exp(0.9j)]:
        p = CompositionParams(alpha)
        m = composition_matrix(p, 14)
        for i in range(15):
            for j in range(15):
                assert abs(m[j, i] - u_entry(p, i, j)) < 1e-12


def test_small_alpha_limit_is_alternating_diagonal():
    # as real alpha -> 0 the Blaschke factor tends to -z, so the conjugation
    # tends to the sign-alternating diagonal family; deviations are O(alpha)
    for alpha, tol in [(0.01, 3 * 0.01), (1e-4, 1e-3)]:
        p = CompositionParams(alpha)
        for i in range(4):
            for j in range(4):
                target = (-1.0) ** i if i == j else 0.0
                assert abs(u_entry(p, i, j) - target) < tol


def test_index_range_guard():
    p = CompositionParams(0.5)
    with pytest.raises(ConjtoepError, match="index out of supported range"):
        u_entry(p, 600, 500)


def test_narrow_blocks_are_the_full_matrix_columns():
    # the recurrence stopped after a few columns gives those columns bit for
    # bit, on the cached path (19 columns) and on the wide path
    for alpha in (0.3, 0.6 * np.exp(2j), -0.85 + 0.1j, 0.97j):
        for degree in (0, 7, 40, 300):
            full = composition_matrix(CompositionParams(alpha), degree)
            for cols in (1, 6, 19, 26, degree + 4):
                block = composition_matrix(CompositionParams(alpha), degree, cols)
                assert np.array_equal(block, full[:, :cols])
            cached = composition._cached_composition_matrix(complex(alpha), degree)
            assert cached.shape == (degree + 1, min(19, degree + 1)) and not cached.flags.writeable
            assert np.array_equal(cached, full[:, :19])
            assert np.array_equal(composition._leading_columns(complex(alpha), degree, 24), full[:, :24])
    assert composition._cached_composition_matrix.cache_info().maxsize == 64


def test_padded_tails_are_measured_once_per_degree(monkeypatch):
    # a second decision on the same conjugation walks the same padded
    # degrees from memoised tails and ends on the same block and tail
    composition._padded_tail.cache_clear()
    conj = materialize(Composition(0.83 - 0.2j), 24)
    calls = []
    real = composition.column_tails
    monkeypatch.setattr(composition, "column_tails", lambda *args: calls.append(args[1:]) or real(*args))
    first = working_coefficients(conj, cols=11, margin=2, cap=1e-12)
    measured = len(calls)
    again = working_coefficients(conj, cols=11, margin=2, cap=1e-12)
    assert measured >= 2 and len(calls) == measured
    assert again[1:] == first[1:] and np.array_equal(again[0], first[0])


def test_row_mass_converges_to_one_with_geometric_remainder():
    p = CompositionParams(0.45)
    m = composition_matrix(p, 96)
    for i in range(6):
        mass = float(np.sum(np.abs(m[:, i]) ** 2))
        assert mass <= 1 + 1e-12
        tail = column_tails(m, 96, i)[i]
        assert abs(1 - mass) <= tail**2 + 1e-12


def test_column_tails_match_fsum_oracle_and_choose_the_same_padding():
    rng = np.random.default_rng(2026)
    for _ in range(40):
        alpha = rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        degree = int(rng.integers(16, 40))
        band = int(rng.integers(0, 3))
        cols, margin = min(8, degree - band - 2) + band + 2, band + 1
        conj = materialize(Composition(alpha), degree)
        matrix, work_degree, _ = working_coefficients(conj, cols=cols, margin=margin, cap=0.0)
        # the growth sequence of the padding search; smaller truncations are
        # leading blocks of the padded matrix
        d = max(degree, cols + margin + 8)
        while True:
            oracle = column_tails_fsum(matrix, d - margin, cols, TAIL_RESOLUTION)
            np.testing.assert_allclose(column_tails(matrix, d - margin, cols), oracle, rtol=0, atol=1e-9)
            if np.max(oracle) <= TAIL_RESOLUTION:
                break
            d = int(d * 1.6) + 8
        assert work_degree == d


def test_materialized_composition_is_conjugation_on_tail_window():
    conj = materialize(Composition(0.4), 48)
    tails = conj.tails(48, 6)
    ok, residuals = is_conjugation(
        conj.coeff, Window.square(6), Tolerance(absolute=float(np.sum(tails**2)) + 1e-12, relative=1e-10)
    )
    assert ok
    assert residuals["symmetry"] < 1e-12


def test_pairing_conditions_constant_passes():
    verdict, residual = check_w_symmetry_conditions(LaurentSymbol({0: 2 - 1j}), CompositionParams(0.5), 3)
    assert verdict == PASS and residual < 1e-10


def test_pairing_conditions_reject_nonconstant_band_one():
    rng = np.random.default_rng(5)
    for alpha in [0.5, 0.3j, 0.6 * np.exp(1j * np.pi / 5)]:
        p = CompositionParams(alpha)
        for _ in range(5):
            coeffs = {
                -1: complex(*rng.uniform(-1, 1, 2)),
                0: complex(*rng.uniform(-1, 1, 2)),
                1: complex(*rng.uniform(-1, 1, 2)),
            }
            phi = LaurentSymbol(coeffs)
            if phi.band == 0:
                continue
            verdict, _ = check_w_symmetry_conditions(phi, p, 2)
            assert verdict == "fail"


def test_pairing_conditions_fail_on_center_locus():
    # phi_1 = -(conj(a)/a) phi_{-1} satisfies the center-coefficient pairing
    # equation yet the displayed conditions still reject it
    alpha = 0.5 * np.exp(0.4j)
    p = CompositionParams(alpha)
    minus = 0.8 - 0.3j
    phi = LaurentSymbol({-1: minus, 0: 1.0, 1: -np.conj(alpha) / alpha * minus})
    verdict, residual = check_w_symmetry_conditions(phi, p, 2)
    assert verdict == "fail" and residual > 1e-3


def test_pairing_conditions_match_full_suite_on_band_one():
    rng = np.random.default_rng(9)
    p = CompositionParams(0.45 * np.exp(0.7j))
    conj = materialize(Composition(p.alpha), 24)
    for _ in range(8):
        if rng.random() < 0.4:
            phi = LaurentSymbol({0: complex(*rng.uniform(-1, 1, 2))})
        else:
            phi = LaurentSymbol({k: complex(*rng.uniform(-1, 1, 2)) for k in (-1, 0, 1)})
        verdict, _ = check_w_symmetry_conditions(phi, p, 2)
        report = run_all(phi, conj)
        expected = PASS if all(v == PASS for v in report.criterion_verdicts().values()) else "fail"
        assert verdict == expected


def test_scan_small_grid_reproduces_constants_only():
    grid = TrigpolyGrid.real_grid(points=5)
    report = scan_trigpoly_theorem(CompositionParams(0.5), grid, degree=20)
    assert report.theorem_reproduced
    assert len(report.passing) == 5  # one per constant value
    assert all(cm == 0 and cp == 0 for cm, _, cp in report.passing)
    assert report.locus_points > 0


def test_scan_without_constants_reproduces_when_nothing_passes():
    # an even grid has no 0, so it holds no constant symbol to pass
    report = scan_trigpoly_theorem(CompositionParams(0.5), TrigpolyGrid.real_grid(points=4), degree=12)
    assert report.passing == ()
    assert report.theorem_reproduced


def test_scan_degenerate_grid_passes():
    grid = TrigpolyGrid((0j,), (0j,), (0j,))
    report = scan_trigpoly_theorem(CompositionParams(0.3), grid, degree=16)
    assert report.theorem_reproduced
    assert report.passing == ((0j, 0j, 0j),)
