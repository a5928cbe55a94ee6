import cmath
import json
import tracemalloc

import numpy as np
import pytest

import conjtoep.composition as composition
import conjtoep.conjugation as conjugation
import conjtoep.hardy as hardy
import conjtoep.symmetry as symmetry
from conjtoep.composition import CompositionParams, composition_matrix
from conjtoep.conjugation import (
    AlphaDiagonal,
    BasisSpec,
    CanonicalJ,
    Composition,
    Conjugation,
    FromBasis,
    ThetaXi,
    materialize,
)
from conjtoep.core import DEFAULT_TOLERANCE, Window, decide, random_symmetric_unitary, random_unitary
from conjtoep.finite import (
    _ROUNDOFF_REL,
    FiniteToeplitz,
    finite_symmetry_criterion,
    general_symmetry,
    toeplitz_conjugation,
)
from conjtoep.hardy import LaurentSymbol, ShiftOperator, s_toeplitz_residual, toeplitz_matrix
from conjtoep.polydisc import BoxTruncation, PolySymbol, poly_check_definition, poly_conjugation, poly_toeplitz
from conjtoep.symmetry import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckConfig,
    _coefficient_equations,
    _make_plan,
    _xy,
    build_xy,
    check_coefficient_equations,
    check_conjugated_toeplitz,
    check_definition,
    check_s_toeplitz_necessary,
    check_transpose_basis,
    check_xy,
    run_all,
)

from oracles import (
    coefficient_equations_residual,
    dense_definition_residual,
    finite_asymmetry_residual,
    general_symmetry_residual,
    s_toeplitz_filter,
    tilde_mismatch,
    xy_residual,
)


def sym_z_minus_zbar():
    return LaurentSymbol({1: 1, -1: -1})


def sym_z_plus_zbar():
    return LaurentSymbol({1: 1, -1: 1})


def block_basis_columns(degree):
    n = degree + 1
    cols = np.eye(n, dtype=complex)
    cols[1:3, 1] = 1 / np.sqrt(2)
    cols[1, 2] = 1 / np.sqrt(2)
    cols[2, 2] = -1 / np.sqrt(2)
    return cols


# --- definition -------------------------------------------------------------


def test_definition_constant_passes_for_any_conjugation():
    phi = LaurentSymbol({0: 7 + 2j})
    for spec in [CanonicalJ(), ThetaXi(1.2, 0.4), Composition(0.5)]:
        res = check_definition(phi, materialize(spec, 24))
        assert res.verdict == PASS
        assert res.residual < 1e-9


def test_definition_real_symmetric_symbol_with_canonical():
    res = check_definition(sym_z_plus_zbar(), materialize(CanonicalJ(), 24))
    assert res.verdict == PASS and res.residual < 1e-13


def test_definition_coordinate_symbol_fails_decisively():
    res = check_definition(LaurentSymbol({1: 1}), materialize(CanonicalJ(), 24))
    assert res.verdict == FAIL
    assert res.residual >= 1 - 1e-12


# --- transpose basis ----------------------------------------------------------


def test_transpose_basis_twisted_pass():
    res = check_transpose_basis(sym_z_minus_zbar(), materialize(ThetaXi(np.pi, 0.0), 24))
    assert res.verdict == PASS and res.residual < 1e-12


def test_transpose_basis_twisted_fail_has_unit_entry_gap():
    res = check_transpose_basis(sym_z_plus_zbar(), materialize(ThetaXi(np.pi, 0.7), 24))
    assert res.verdict == FAIL
    assert res.residual >= 2 - 1e-10  # |phi_1 - phi_{-1} e^{-i pi}| at one entry


def test_transpose_basis_canonical_pass():
    res = check_transpose_basis(sym_z_plus_zbar(), materialize(CanonicalJ(), 24))
    assert res.verdict == PASS


# --- conjugated Toeplitz ------------------------------------------------------


def test_conjugated_toeplitz_alternating_diagonal():
    alphas = tuple(1j**n for n in range(4))
    conj = materialize(AlphaDiagonal(alphas, period=4), 24)
    res = check_conjugated_toeplitz(sym_z_minus_zbar(), conj)
    assert res.verdict == PASS
    assert res.details["is_toeplitz"]


def test_conjugated_toeplitz_even_symbol_with_canonical():
    phi = LaurentSymbol({0: 1, 2: 1, -2: 1})
    res = check_conjugated_toeplitz(phi, materialize(CanonicalJ(), 24))
    assert res.verdict == PASS


def test_conjugated_toeplitz_composition_rejects_nonconstant():
    phi = LaurentSymbol({-1: 1, 1: -1})
    res = check_conjugated_toeplitz(phi, materialize(Composition(0.5), 24))
    assert res.verdict == FAIL


# --- coefficient equations ----------------------------------------------------


def test_coefficient_equations_constant():
    res = check_coefficient_equations(LaurentSymbol({0: 3 - 1j}), materialize(ThetaXi(0.9, 0.1), 24))
    assert res.verdict == PASS and res.residual < 1e-13


def test_coefficient_equations_detects_phase_mismatch():
    res = check_coefficient_equations(sym_z_plus_zbar(), materialize(ThetaXi(2 * np.pi / 3, 0.0), 24))
    assert res.verdict == FAIL
    # definition oracle agrees
    assert check_definition(sym_z_plus_zbar(), materialize(ThetaXi(2 * np.pi / 3, 0.0), 24)).verdict == FAIL


def test_coefficient_equations_twisted_pass():
    res = check_coefficient_equations(sym_z_minus_zbar(), materialize(ThetaXi(np.pi, 1.3), 24))
    assert res.verdict == PASS and res.residual < 1e-13


# --- X(k)/Y(k) ---------------------------------------------------------------


def test_xy_canonical_encodes_coefficient_reflection():
    conj = materialize(CanonicalJ(), 24)
    assert check_xy(sym_z_plus_zbar(), conj).verdict == PASS
    assert check_xy(sym_z_minus_zbar(), conj).verdict == FAIL


def test_xy_constant_passes_every_k():
    res = check_xy(LaurentSymbol({0: 9}), materialize(ThetaXi(0.4, 0.2), 24))
    assert res.verdict == PASS
    assert all(r == 0 for r in res.details["per_k"])


def test_xy_fail_at_k_zero_with_unit_two_residual():
    res = check_xy(sym_z_plus_zbar(), materialize(ThetaXi(np.pi, 0.0), 24))
    assert res.verdict == FAIL
    assert res.details["per_k"][0] == pytest.approx(2.0, abs=1e-12)


def test_xy_matches_coefficient_equations_verdicts():
    rng = np.random.default_rng(8)
    conj_specs = [CanonicalJ(), ThetaXi(1.7, 0.3), AlphaDiagonal((1, 1j, -1, -1j))]
    for _ in range(12):
        coeffs = {int(k): complex(*rng.standard_normal(2)) for k in rng.integers(-3, 4, 4)}
        phi = LaurentSymbol(coeffs)
        spec = conj_specs[int(rng.integers(0, len(conj_specs)))]
        conj = materialize(spec, 24)
        a = check_coefficient_equations(phi, conj)
        b = check_xy(phi, conj)
        assert a.verdict == b.verdict
        assert a.residual == pytest.approx(b.residual, rel=1e-9, abs=1e-12)


def test_build_xy_shapes_and_zero_columns():
    conj = materialize(ThetaXi(0.9, 0.0), 24)
    phi = LaurentSymbol({1: 2, -1: 3})
    k = 3
    system = build_xy(conj, k, trunc=6, phi=phi, rows=k)
    assert system.x.shape == (k + 1, 6)
    assert system.y.shape == (k + 1, 6)
    # the displayed rows j <= k have zero columns beyond index k
    assert np.all(system.y[:, k:] == 0)
    np.testing.assert_array_equal(system.phi_plus, [2, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(system.phi_minus, [3, 0, 0, 0, 0, 0])


def test_build_xy_antisymmetric_pairing():
    # the (j, k) equation is minus the (k, j) equation, so extended rows are
    # consistent with the k-indexed family
    conj = materialize(AlphaDiagonal((1, np.exp(0.5j), np.exp(1.1j))), 30)
    phi = LaurentSymbol({2: 1 + 1j, -2: 0.5, 1: -2})
    a = conj.coeff

    def equation(k, j):
        lhs = sum(
            phi.coefficient(n - k).conjugate() * a[n, j] for n in range(max(0, k - 2), k + 3)
        )
        rhs = sum(phi.coefficient(n).conjugate() * a[k, n + j] for n in range(1, 3))
        rhs += sum(phi.coefficient(-l).conjugate() * a[k, j - l] for l in range(0, min(j, 2) + 1))
        return lhs - rhs

    for k, j in [(0, 1), (2, 5), (4, 3), (1, 1)]:
        assert equation(k, j) == pytest.approx(-equation(j, k), abs=1e-12)


# --- S-Toeplitz necessity ------------------------------------------------------


def test_necessity_passes_on_symmetric_pair():
    res = check_s_toeplitz_necessary(sym_z_minus_zbar(), materialize(ThetaXi(np.pi, 0.0), 24))
    assert res.verdict == PASS and res.residual < 1e-12


def test_necessity_passes_despite_asymmetry():
    res = check_s_toeplitz_necessary(LaurentSymbol({1: 1}), materialize(CanonicalJ(), 24))
    assert res.verdict == PASS and res.residual < 1e-13


def filter_instance(rng, kind):
    """A symbol of band 0-4 with a planted ``alpha_diag`` conjugation (phases
    symmetric for ``theta_xi`` up to a factor ``e^{i gamma}`` from index
    ``p`` on), a 2-4-column ``basis`` one or a ``composition`` one with
    ``|alpha| <= 0.8``, and a window: ``None`` for the default one, or
    ``p - 1``.  The break ``p`` lies inside the default window, one index past
    it, or one index past a user window ``p - 1``; the last item says which
    of the last two."""
    band = int(rng.integers(0, 5))
    n = int(rng.integers(16, 40))
    coeffs = {m: complex(*rng.standard_normal(2)) for m in range(-band, band + 1)}
    window, past = None, False
    if kind == "alpha_diag":
        theta, xi, gamma = rng.uniform(0, 2 * np.pi, 3)
        where = int(rng.integers(0, 3))
        if where == 0:
            p = int(rng.integers(1, n - band + 1))
        elif where == 1:
            p, past = n - max(band, 1) + 1, True
        else:
            p = int(rng.integers(band + 1, n - band + 1))
            window, past = p - 1, True
        for m in range(1, band + 1):
            coeffs[m] = coeffs[-m] * cmath.exp(-1j * m * theta)
        alphas = tuple(cmath.exp(1j * (xi - k * theta) / 2 + 1j * gamma * (k >= p)) for k in range(n + 1))
        family = AlphaDiagonal(alphas)
    elif kind == "basis":
        size = int(rng.integers(2, 5))
        columns = np.zeros((n + 1, size), dtype=complex)
        columns[:size] = random_unitary(size, rng)
        family = FromBasis(BasisSpec(columns, n))
    else:
        family = Composition(rng.uniform(0.05, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * np.pi)))
    return LaurentSymbol(coeffs), materialize(family, n), window, past


def test_filter_reads_the_canonical_basis_verdict():
    # S^H T S - T = U (Z^H G Z - G) U^H: the steps of G = U^H T U into index
    # window + 1 decide as the canonical-basis product of S = C M_z C does,
    # with a phase break just past the window too; for a diagonal U, or one
    # whose block lies in the window, the two residuals are equal
    rng = np.random.default_rng(2024)
    verdicts, past_verdicts = set(), set()
    for trial in range(90):
        kind = ("alpha_diag", "basis", "composition")[trial % 3]
        phi, conj, window, past = filter_instance(rng, kind)
        config = CheckConfig(degree=conj.degree, window=window)
        plan = _make_plan(phi, conj, config)
        if kind == "composition":
            a = composition_matrix(CompositionParams(conj.family.alpha), plan.work_degree)
        else:
            a = conj.coeff
        oracle = s_toeplitz_filter(a, toeplitz_matrix(phi, plan.work_degree).matrix, plan.window)
        result = check_s_toeplitz_necessary(phi, conj, config)
        assert result.verdict == decide(oracle, plan.threshold, plan.tail_bound), (phi, conj.label, window)
        if kind != "composition":
            assert abs(result.residual - oracle) <= 1e-12 * max(1.0, phi.l1_norm())
        verdicts.add(result.verdict)
        if past:
            past_verdicts.add(result.verdict)
    assert verdicts == {PASS, FAIL}
    assert FAIL in past_verdicts


def test_no_plan_builds_the_shift(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a plan formed C M_z C")

    monkeypatch.setattr(conjugation, "shift_columns", refuse)
    monkeypatch.setattr(symmetry, "shift_columns", refuse, raising=False)
    rng = np.random.default_rng(7)
    for kind in ("composition", "basis"):
        phi, conj, _, _ = filter_instance(rng, kind)
        assert "s_toeplitz" in run_all(phi, conj).verdicts


def test_wide_user_window_matches_the_dense_oracle():
    # a user window past the cached 19 columns builds its own block; the
    # verdicts are those of the products with the whole padded matrices
    rng = np.random.default_rng(12)
    verdicts = set()
    for trial in range(8):
        band = int(rng.integers(0, 4))
        window = int(rng.integers(17, 20))
        alpha = complex(rng.uniform(0.2, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * np.pi)))
        if trial % 2:
            phi = LaurentSymbol({0: complex(*rng.standard_normal(2))})
        else:
            phi = LaurentSymbol({m: complex(*rng.standard_normal(2)) for m in range(-band, band + 1)})
        conj = materialize(Composition(alpha), 40)
        config = CheckConfig(degree=40, window=window)
        plan = _make_plan(phi, conj, config)
        assert plan.a_work.shape[1] == window + phi.band + 3 > 19
        a = composition_matrix(CompositionParams(alpha), plan.work_degree)
        t = toeplitz_matrix(phi, plan.work_degree).matrix
        idx = np.arange(window + 1)
        f = a[:, idx]
        want = {
            "definition": dense_definition_residual(a, t, idx, idx),
            "transpose_basis": float(np.linalg.norm(f.conj().T @ t @ f - t[np.ix_(idx, idx)].T)),
        }
        report = run_all(phi, conj, config)
        scale = max(1.0, phi.l1_norm())
        for name, residual in want.items():
            assert abs(report.residuals[name] - residual) <= 1e-12 * scale
            assert report.verdicts[name] == decide(residual, plan.threshold, plan.tail_bound)
            verdicts.add(report.verdicts[name])
    assert verdicts == {PASS, FAIL}


def test_dense_plan_memory_stays_narrow():
    # at |alpha| = 0.97 the plan pads to degree 1912, where one square
    # complex array takes 58 MB
    composition._cached_composition_matrix.cache_clear()
    composition._padded_tail.cache_clear()
    conj = materialize(Composition(0.97), 32)
    phi = LaurentSymbol({-1: 0.3, 0: 1.0, 1: 0.2j})
    tracemalloc.start()
    try:
        report = run_all(phi, conj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.work_degree == 1912
    assert peak < 8 * 2**20


def test_plans_gather_only_the_toeplitz_head(monkeypatch):
    # T is gathered on the leading window + band + 3 indices only, and no
    # plan asks for the whole padded composition matrix
    gather, build = hardy.toeplitz_gather, composition.composition_matrix
    limit = {}

    def narrow_gather(coefficients, codes):
        assert codes.size <= limit["modes"], codes.size
        return gather(coefficients, codes)

    def narrow_build(params, degree, cols=None):
        assert cols is not None
        return build(params, degree, cols)

    composition._cached_composition_matrix.cache_clear()
    composition._padded_tail.cache_clear()
    rng = np.random.default_rng(5)
    columns = np.zeros((41, 3), dtype=complex)
    columns[:3] = random_unitary(3, rng)
    cases = [
        (Composition(0.97), None, {-1: 0.5, 0: 1.0, 1: 0.25}),
        (Composition(0.6j), 16, {-3: 1.0, 2: 0.5j}),
        (FromBasis(BasisSpec(columns, 40)), 12, {-2: 1.0, 0: 0.3, 1: 1j}),
        (ThetaXi(0.4, 1.1), 10, {-1: 1.0, 1: 1.0}),
    ]
    for spec, window, coeffs in cases:
        phi = LaurentSymbol(coeffs)
        conj = materialize(spec, 40)
        limit["modes"] = min(8 if window is None else window, 40 - phi.band - 2) + phi.band + 3 + 2
        with monkeypatch.context() as patch:
            patch.setattr(hardy, "toeplitz_gather", narrow_gather)
            patch.setattr(composition, "composition_matrix", narrow_build)
            report = run_all(phi, conj, CheckConfig(degree=40, window=window))
        assert set(report.criterion_verdicts().values()) <= {PASS, FAIL}
        if conj.band == 0:
            assert "coeff" not in conj.__dict__


def test_compression_fails_for_generic_basis_shift():
    degree = 16
    b = block_basis_columns(degree)
    s = ShiftOperator(b @ np.eye(degree + 1, k=-1) @ b.conj().T, degree, band=3)
    t = toeplitz_matrix(LaurentSymbol({1: 1}), degree)
    residual = s_toeplitz_residual(t, s, Window.square(degree - 1 - 4))
    assert residual > 0.1


# --- run_all -------------------------------------------------------------------


def test_run_all_symmetric_instance_all_pass():
    report = run_all(sym_z_minus_zbar(), materialize(ThetaXi(np.pi, 0.0), 32))
    assert set(report.criterion_verdicts().values()) == {PASS}
    assert report.verdicts["s_toeplitz"] == PASS


def test_run_all_counterexample_fails_everywhere_but_compression():
    report = run_all(LaurentSymbol({1: 1}), materialize(CanonicalJ(), 32))
    assert set(report.criterion_verdicts().values()) == {FAIL}
    assert report.verdicts["s_toeplitz"] == PASS
    assert all(report.residuals[k] >= 1 - 1e-12 for k in report.criterion_verdicts())


def test_run_all_constant_with_dense_family():
    report = run_all(LaurentSymbol({0: 5}), materialize(Composition(0.3), 32))
    assert set(report.criterion_verdicts().values()) == {PASS}
    assert report.verdicts["s_toeplitz"] == PASS


def test_run_all_flags_basis_completion_in_report():
    cols = np.zeros((25, 2), dtype=complex)
    cols[0, 0] = 1
    cols[1, 1] = 1j
    report = run_all(sym_z_plus_zbar(), materialize(FromBasis(BasisSpec(cols, 24)), 24))
    assert any("completion" in note for note in report.notes)


def test_run_all_accepts_family_spec_and_reports_config():
    report = run_all(sym_z_plus_zbar(), CanonicalJ(), CheckConfig(degree=24))
    assert report.degree == 24
    payload = report.to_json_dict()
    again = json.loads(json.dumps(payload))
    assert again["verdicts"] == payload["verdicts"]
    assert set(again) >= {"verdicts", "residuals", "window", "tail_bound"}


def test_run_all_inconclusive_when_padding_is_capped(monkeypatch):
    monkeypatch.setattr(composition, "PAD_LIMIT", 48)
    report = run_all(LaurentSymbol({0: 5}), materialize(Composition(0.6), 32), CheckConfig(degree=32))
    verdicts = report.criterion_verdicts()
    # exact criteria stay decisive; the windowed products cannot certify
    assert verdicts["coefficient_equations"] == PASS
    assert verdicts["xy_system"] == PASS
    assert verdicts["definition"] == INCONCLUSIVE
    assert report.tail_bound > report.tolerance.threshold(5.0)


# --- cross-criterion properties --------------------------------------------------


def _random_family(rng, degree):
    kind = rng.integers(0, 5)
    if kind == 0:
        return materialize(CanonicalJ(), degree)
    if kind == 1:
        return materialize(ThetaXi(float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, 2 * np.pi))), degree)
    if kind == 2:
        alphas = tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, 6)).tolist())
        return materialize(AlphaDiagonal(alphas, period=6), degree)
    if kind == 3:
        size = int(rng.integers(2, 5))
        cols = np.zeros((degree + 1, size), dtype=complex)
        w, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        cols[:size, :] = w
        return materialize(FromBasis(BasisSpec(cols, degree)), degree)
    alpha = (0.15 + 0.45 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return materialize(Composition(complex(alpha)), degree)


def _random_symbol(rng, band=4):
    support = rng.integers(-band, band + 1, size=rng.integers(1, 6))
    mags = rng.uniform(0.25, 1.0, size=len(support))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(support)))
    return LaurentSymbol({int(n): complex(m * p) for n, m, p in zip(support, mags, phases)})


def test_criteria_agree_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(30):
        conj = _random_family(rng, 28)
        phi = _random_symbol(rng)
        report = run_all(phi, conj, CheckConfig(degree=28))
        assert len(set(report.criterion_verdicts().values())) == 1
        # both criteria read the plan's one U^H T U - T^T
        assert report.residuals["transpose_basis"] == report.details["conjugated_toeplitz"]["matrix_residual"]


def test_pass_implies_compression_pass():
    rng = np.random.default_rng(23)
    for _ in range(10):
        theta = float(rng.uniform(0, 2 * np.pi))
        minus = {-n: complex(*rng.standard_normal(2)) for n in range(1, 4)}
        coeffs = dict(minus)
        coeffs[0] = complex(*rng.standard_normal(2))
        for n in range(1, 4):
            coeffs[n] = minus[-n] * np.exp(-1j * n * theta)
        phi = LaurentSymbol(coeffs)
        report = run_all(phi, materialize(ThetaXi(theta, float(rng.uniform(0, 6))), 32))
        assert set(report.criterion_verdicts().values()) == {PASS}
        assert report.verdicts["s_toeplitz"] == PASS
        assert report.residuals["s_toeplitz"] < 1e-10


def test_symmetric_symbols_form_a_linear_space():
    rng = np.random.default_rng(31)
    theta = 2.2
    conj = materialize(ThetaXi(theta, 0.5), 32)

    def symmetric_symbol():
        minus = {-n: complex(*rng.standard_normal(2)) for n in range(1, 4)}
        coeffs = dict(minus)
        coeffs[0] = complex(*rng.standard_normal(2))
        for n in range(1, 4):
            coeffs[n] = minus[-n] * np.exp(-1j * n * theta)
        return LaurentSymbol(coeffs)

    for _ in range(5):
        phi, psi = symmetric_symbol(), symmetric_symbol()
        a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        combo = phi.scaled(a).plus(psi.scaled(b))
        report = run_all(combo, conj)
        assert set(report.criterion_verdicts().values()) == {PASS}


def test_verdicts_stable_under_degree_doubling():
    rng = np.random.default_rng(37)
    for _ in range(6):
        phi = _random_symbol(rng, band=3)
        spec = ThetaXi(float(rng.uniform(0, 2 * np.pi)), 0.0)
        small = run_all(phi, materialize(spec, 24))
        large = run_all(phi, materialize(spec, 48))
        assert small.criterion_verdicts() == large.criterion_verdicts()


def test_contractions_match_loop_oracles():
    # banded families at the requested degree and composition conjugations
    # at a padded work degree, against the plain-loop sums
    rng = np.random.default_rng(41)
    padded = 0
    verdicts = set()
    for trial in range(24):
        if trial % 3 == 2:
            alpha = (0.2 + 0.6 * rng.random()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            conj = materialize(Composition(complex(alpha)), 24)
        else:
            conj = _random_family(rng, 28)
        phi = _random_symbol(rng, band=int(rng.integers(0, 5)))
        plan = _make_plan(phi, conj, CheckConfig(degree=conj.degree))
        padded += plan.work_degree > conj.degree
        jk = plan.window
        trunc = max(phi.band, 1)

        coeff = _coefficient_equations(plan)
        want = coefficient_equations_residual(plan.a_work, phi, jk)
        assert abs(coeff.residual - want) <= 1e-12
        assert coeff.verdict == (PASS if want <= plan.threshold else FAIL)

        xy = _xy(plan)
        want_per_k = [xy_residual(plan.a_work, phi, k, jk, trunc) for k in range(jk + 1)]
        np.testing.assert_allclose(xy.details["per_k"], want_per_k, rtol=0, atol=1e-12)
        assert abs(xy.residual - max(want_per_k)) <= 1e-12
        assert xy.verdict == (PASS if max(want_per_k) <= plan.threshold else FAIL)
        verdicts |= {coeff.verdict, xy.verdict}
    assert padded >= 8
    assert verdicts == {PASS, FAIL}


def test_shared_kernels_match_parent_formulas():
    # the finite and polydisc checks evaluate the coefficient and transpose
    # identities through the one-variable kernels; their earlier inline
    # formulas are the oracles
    rng = np.random.default_rng(43)
    finite_verdicts = set()
    for trial in range(60):
        n = int(rng.integers(1, 9))
        t = FiniteToeplitz(n, {k: complex(*rng.standard_normal(2)) for k in range(-n, n + 1)})
        pick = trial % 3
        if pick == 0:
            conj = materialize(CanonicalJ(), n)
        elif pick == 1:
            conj = toeplitz_conjugation(n)
        else:
            conj = Conjugation(random_symmetric_unitary(n + 1, rng), n, n)
        m = t.matrix()

        ok, residual = finite_symmetry_criterion(t, conj)
        want = finite_asymmetry_residual(m, conj.coeff)
        assert abs(residual - want) <= 1e-12
        assert ok == (want <= _ROUNDOFF_REL * max(1.0, t.l1_norm()) * (n + 1))

        ok_general, residual = general_symmetry(m, conj)
        want = general_symmetry_residual(m, conj.coeff)
        assert abs(residual - want) <= 1e-12
        assert ok_general == (want <= _ROUNDOFF_REL * max(1.0, float(np.linalg.norm(m))) * (n + 1))
        finite_verdicts |= {ok, ok_general}
    assert finite_verdicts == {True, False}

    poly_verdicts = set()
    for degrees in [(9,), (4, 5), (2, 3, 2)]:
        box = BoxTruncation(degrees)
        d = box.d
        for trial in range(8):
            theta = tuple(rng.uniform(0, 2 * np.pi, d))
            xi = tuple(rng.uniform(0, 2 * np.pi, d))
            coeffs = {}
            for _ in range(3):
                k = tuple(int(c) for c in rng.integers(-1, 2, d))
                coeffs[k] = complex(*rng.standard_normal(2))
                if trial % 2:
                    kt = float(np.dot(k, theta))
                    coeffs[tuple(-c for c in k)] = np.exp(1j * kt) * coeffs[k]
            phi = PolySymbol(d, coeffs)
            res = poly_check_definition(phi, theta, xi, box)
            positions = box.window_positions(res.window)
            t = poly_toeplitz(phi, box).matrix
            want = tilde_mismatch(poly_conjugation(theta, xi, box).coeff, t, positions)
            assert abs(res.tilde_mismatch - want) <= 1e-12
            threshold = DEFAULT_TOLERANCE.threshold(max(1.0, phi.l1_norm()))
            assert (res.tilde_mismatch <= threshold) == (want <= threshold)
            poly_verdicts.add(want <= threshold)
    assert poly_verdicts == {True, False}
