import math
import sys

import numpy as np
import pytest

import conjtoep.composition as composition
from conjtoep.composition import (
    CompositionParams,
    TrigpolyGrid,
    check_w_symmetry_conditions,
    column_tails,
    composition_matrix,
    scan_trigpoly_theorem,
)
from conjtoep.conjugation import Composition, is_conjugation, materialize, unitarity_slack, working_coefficients
from conjtoep.core import ConjtoepError, Tolerance
from conjtoep.hardy import LaurentSymbol
from conjtoep.symmetry import PASS, CheckConfig, run_all

from oracles import column_tails_by_column, composition_recurrence, traced_peak, u_entry_oracle


ALPHAS = [0.3, 0.5 * np.exp(1j * np.pi / 4), 0.7j]


def test_params_validation():
    with pytest.raises(ConjtoepError, match="punctured disc"):
        CompositionParams(0)
    with pytest.raises(ConjtoepError, match="punctured disc"):
        CompositionParams(1.0)
    for value in (complex(math.nan, 0), complex(0.5, math.nan), complex(math.inf, 0)):
        with pytest.raises(ConjtoepError, match="punctured disc"):
            CompositionParams(value)


def test_first_row_is_scaled_kernel_coefficients():
    for alpha in ALPHAS:
        m = composition_matrix(CompositionParams(alpha), 9)
        for j in range(10):
            expected = math.sqrt(1 - abs(alpha) ** 2) * np.conj(alpha) ** j
            assert m[0, j] == pytest.approx(expected, abs=1e-14)


def test_u11_half_alpha():
    m = composition_matrix(CompositionParams(0.5), 1)
    assert m[1, 1] == pytest.approx(-math.sqrt(3) / 4, abs=1e-14)


def test_entry_symmetry_sampled():
    rng = np.random.default_rng(12)
    for _ in range(20):
        alpha = (0.1 + 0.7 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        m = composition_matrix(CompositionParams(complex(alpha)), 11)
        i, j = rng.integers(0, 12, 2)
        assert abs(m[i, j] - m[j, i]) < 1e-12
    m = composition_matrix(CompositionParams(0.4 - 0.3j), 2)
    assert abs(m[2, 1] - m[1, 2]) < 1e-14


def test_matrix_matches_series_oracle():
    for alpha in [*ALPHAS, 0.55 * np.exp(0.9j)]:
        p = CompositionParams(alpha)
        m = composition_matrix(p, 14)
        for i in range(15):
            for j in range(15):
                assert abs(m[j, i] - u_entry_oracle(p, i, j)) < 1e-12


def test_small_alpha_limit_is_alternating_diagonal():
    # as real alpha -> 0 the Blaschke factor tends to -z, so the conjugation
    # tends to the sign-alternating diagonal family; deviations are O(alpha)
    for alpha, tol in [(0.01, 3 * 0.01), (1e-4, 1e-3)]:
        m = composition_matrix(CompositionParams(alpha), 3)
        for i in range(4):
            for j in range(4):
                target = (-1.0) ** i if i == j else 0.0
                assert abs(m[j, i] - target) < tol


def test_narrow_blocks_are_the_full_matrix_columns():
    # the recurrence stopped after a few columns gives those columns bit for
    # bit, on the cached path (17 columns, at least the 11 the benchmark
    # samples) and on the wide path, on both sides of a block edge of the kernel
    edge = composition._BLOCK_ROWS
    for alpha in (0.3, 0.6 * np.exp(2j), -0.85 + 0.1j, 0.97j):
        for degree in (0, 7, edge - 2, edge - 1, edge, 40, 2 * edge - 1, 2 * edge, 300):
            full = composition_matrix(CompositionParams(alpha), degree)
            for cols in (1, 6, 19, 26, degree + 4):
                block = composition_matrix(CompositionParams(alpha), degree, cols)
                assert np.array_equal(block, full[:, :cols])
            cached = composition._cached_composition_matrix(complex(alpha), degree)
            assert cached.shape == (degree + 1, min(17, degree + 1)) and not cached.flags.writeable
            assert np.array_equal(cached, full[:, :17])
            assert np.array_equal(composition._leading_columns(complex(alpha), degree, 24), full[:, :24])
    assert composition._cached_composition_matrix.cache_info().maxsize == 16
    assert composition._CACHED_COLUMNS >= 11


def test_blocked_kernel_matches_the_row_by_row_recurrence():
    # each entry within 1e-12 of the largest magnitude at or above it in its
    # column, full width while the row loop is cheap and narrow to degree 3067
    edge = composition._BLOCK_ROWS
    for alpha in (0.05, 0.3, 0.5j, 0.81, 0.97):
        p = CompositionParams(alpha)
        for degree in (0, 1, edge - 1, edge, edge + 1, 2 * edge, 2048, 3067):
            for cols in ((None, 19, 21) if degree <= 2 * edge else (19, 21)):
                got = composition_matrix(p, degree, cols)
                want = composition_recurrence(p, degree, cols)
                envelope = np.maximum.accumulate(np.abs(want), axis=0)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-12 * envelope + 1e-15), (alpha, degree, cols)


def _line_events(call):
    # Python line events executed anywhere during ``call()``
    events = 0

    def trace(frame, event, arg):
        nonlocal events
        events += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return events


def test_composition_matrix_has_no_per_row_python_loop():
    # the interpreter's work per column must not grow with the degree beyond
    # one step per extra block; the row-by-row oracle fails this guard
    p = CompositionParams(0.9 * np.exp(0.4j))
    extra_blocks = -(-4097 // composition._BLOCK_ROWS) - -(-257 // composition._BLOCK_ROWS)
    small = _line_events(lambda: composition_matrix(p, 256, 19))
    large = _line_events(lambda: composition_matrix(p, 4096, 19))
    assert large <= small + extra_blocks
    looped = _line_events(lambda: composition_recurrence(p, 4096, 19))
    assert looped > _line_events(lambda: composition_recurrence(p, 256, 19)) + extra_blocks


def test_composition_matrix_refuses_empty_widths_before_allocating():
    # at a degree whose matrix could never be allocated: the refusal comes first
    for cols in (0, -2):
        with pytest.raises(ConjtoepError, match="cols must be positive"):
            composition_matrix(CompositionParams(0.5), 10**12, cols)


def test_column_tails_refuse_an_empty_count():
    for count in (0, -3):
        with pytest.raises(ConjtoepError, match="count must be positive"):
            column_tails(0.5, count)


def test_batched_tails_match_the_column_by_column_loop():
    # one FFT per batch of columns gives the tails of one FFT per column,
    # within the round-off of the transform
    rng = np.random.default_rng(17)
    for r in (0.05, 0.3, 0.5, 0.7, 0.81, 0.88, 0.92, 0.95, 0.97):
        alpha = complex(r * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for count in range(1, 21):
            got, want = column_tails(alpha, count), column_tails_by_column(alpha, count)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * want), (alpha, count)


def test_tails_of_many_columns_stay_small_in_memory():
    # the 900 columns factor's unitarity slack can ask for at |alpha| = 0.97,
    # on the largest sample count, are measured a batch at a time
    composition.column_tails.cache_clear()
    tails, peak = traced_peak(lambda: column_tails(0.97, 900))
    assert tails.size == composition._MAX_SAMPLES and peak < 8 * 2**20


def test_padded_tails_are_measured_once_per_degree(monkeypatch):
    # the tails of one (alpha, column count) are measured once, one batched
    # FFT over the 12 columns, for every degree; a second decision ends on
    # the same block, degree and tail
    composition.column_tails.cache_clear()
    conj = materialize(Composition(0.83 - 0.2j), 24)
    calls = []
    real = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    first = working_coefficients(conj, cols=11, margin=2, cap=1e-12)
    assert len(calls) == 1
    again = working_coefficients(conj, cols=11, margin=2, cap=1e-12)
    looser = working_coefficients(conj, cols=11, margin=3, cap=1e-9)
    assert len(calls) == 1 and composition.column_tails.cache_info().misses == 1
    assert again[1:] == first[1:] and np.shares_memory(again[0], first[0])
    assert looser[1] < first[1]


def test_row_mass_converges_to_one_with_geometric_remainder():
    p = CompositionParams(0.45)
    m = composition_matrix(p, 96)
    tail = column_tails(p.alpha, 6)[96]
    for i in range(6):
        mass = float(np.sum(np.abs(m[:, i]) ** 2))
        assert mass <= 1 + 1e-12
        assert abs(1 - mass) <= tail**2 + 1e-12


def test_padding_stops_at_the_first_level_whose_tail_meets_the_cap():
    rng = np.random.default_rng(2026)
    for _ in range(40):
        alpha = rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        degree = int(rng.integers(16, 40))
        band = int(rng.integers(0, 3))
        cols, margin = min(8, degree - band - 2) + band + 2, band + 1
        cap = 10.0 ** rng.uniform(-13, -8)
        conj = materialize(Composition(alpha), degree)
        _, work_degree, tail = working_coefficients(conj, cols=cols, margin=margin, cap=cap)
        # the degree is the first level whose tail meets the cap
        tails = column_tails(complex(alpha), cols + 1)
        level = work_degree - margin
        assert tail == tails[level] <= cap
        assert level == max(degree, cols + margin) - margin or tails[level - 1] > cap


def test_tails_bound_the_recurrence_rows_within_round_off():
    # below the chosen level and deeper, the FFT tails bound the direct sums
    # over the recurrence's rows 200 degrees further, within 1e-13
    for alpha in (0.05j, 0.3, 0.5 * np.exp(1j), -0.81, 0.92j, 0.97 * np.exp(2.5j)):
        for count in (4, 12, 19):
            _, work_degree, _ = composition._working_degree(CompositionParams(alpha), count - 1, 2, 9e-13, 24)
            matrix = composition_matrix(CompositionParams(alpha), work_degree + 200, count)
            tails = column_tails(complex(alpha), count)
            for level in (work_degree // 2, work_degree - 2, work_degree + 40):
                direct = max(math.sqrt(math.fsum(abs(v) ** 2 for v in matrix[level + 1 :, k])) for k in range(count))
                bound = tails[min(level, tails.size - 1)]
                assert direct <= bound <= direct + 1e-13, (alpha, count, level)


def test_tails_are_finite_and_at_most_one():
    # at |alpha| = 0.97 the Cauchy bound of 900 columns overflows a double;
    # a tail never exceeds 1, the norm of a column of the unitary
    tails = column_tails(0.97, 900)
    assert np.all(np.isfinite(tails)) and np.max(tails) <= 1
    assert unitarity_slack(materialize(Composition(0.97), 1000), 899) <= 900


def test_degree_and_tail_of_the_default_dense_plans():
    # every default-window dense plan up to |alpha| = 0.97 certifies its
    # tail below the threshold
    rng = np.random.default_rng(31)
    for r in (0.05, 0.3, 0.5, 0.7, 0.81, 0.88, 0.92, 0.95, 0.97):
        conj = materialize(Composition(r * np.exp(1j * rng.uniform(0, 2 * np.pi))), int(rng.integers(12, 40)))
        for coeffs in ({0: 1.5}, {-1: 0.2, 0: 1.0, 1: 0.3j}, {-3: 1.0, 2: 2.0}):
            report = run_all(LaurentSymbol(coeffs), conj)
            assert report.tail_bound <= report.tolerance.threshold(max(1.0, LaurentSymbol(coeffs).l1_norm()))
            assert report.work_degree < composition.PAD_LIMIT


def test_small_perturbations_of_a_constant_fail_decisively():
    # 1 + eps z is not symmetric for any eps != 0; with certified tails every
    # criterion and the pairing conditions say so
    conj = materialize(Composition(0.5), 32)
    for eps in (1e-6, 1e-8, 1e-9):
        phi = LaurentSymbol({0: 1.0, 1: eps})
        assert set(run_all(phi, conj).criterion_verdicts().values()) == {"fail"}
        assert check_w_symmetry_conditions(phi, CompositionParams(0.5), 2)[0] == "fail"


def test_band_zero_and_band_one_decisions_share_one_block():
    composition._cached_composition_matrix.cache_clear()
    conj = materialize(Composition(0.9 * np.exp(0.3j)), 32)
    run_all(LaurentSymbol({0: 1.2}), conj)
    run_all(LaurentSymbol({-1: 0.3, 0: 1.0, 1: 0.1}), conj)
    info = composition._cached_composition_matrix.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_wide_blocks_are_built_once(monkeypatch):
    conj = materialize(Composition(0.97), 32)
    config = CheckConfig(degree=32, window=17)
    phi = LaurentSymbol({-1: 0.5, 0: 1.0, 1: 0.25})
    first = run_all(phi, conj, config)
    calls = []
    real = composition.composition_matrix
    monkeypatch.setattr(composition, "composition_matrix", lambda *args: calls.append(args) or real(*args))
    again = run_all(phi, conj, config)
    assert calls == [] and again.residuals == first.residuals


def test_materialized_composition_is_conjugation_on_tail_window():
    conj = materialize(Composition(0.4), 48)
    ok, residuals = is_conjugation(
        conj.coeff, 6, Tolerance(absolute=unitarity_slack(conj, 6) + 1e-12, relative=1e-10)
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
