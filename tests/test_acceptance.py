"""Acceptance suite: one test per acceptance criterion, at desk scale.

Each test prints a single [PASS]/[FAIL] line; tolerances are pinned here and
nowhere else.
"""

import time

import numpy as np
import pytest

from conjtoep.composition import CompositionParams, TrigpolyGrid, composition_matrix, scan_trigpoly_theorem
from conjtoep.conjugation import (
    AlphaDiagonal,
    BasisSpec,
    CanonicalJ,
    Composition,
    Conjugation,
    FromBasis,
    ThetaXi,
    canonical_factorization,
    intertwine_lambda,
    materialize,
    unitarity_slack,
)
from conjtoep.finite import FiniteToeplitz, finite_symmetry_criterion, toeplitz_conjugation
from conjtoep.hardy import LaurentSymbol
from conjtoep.polydisc import BoxTruncation, PolySymbol, check_poly_criterion, poly_check_definition
from conjtoep.symmetry import FAIL, PASS, CheckConfig, check_definition, run_all

from oracles import random_unitary, u_entry_oracle

CRITERIA = ("definition", "transpose_basis", "conjugated_toeplitz", "coefficient_equations", "xy_system")


def _report_line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion failed: {name} {detail}"


def _random_phase(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi))


def _random_symbol(rng, band):
    count = int(rng.integers(1, 2 * band + 2))
    support = rng.integers(-band, band + 1, size=count)
    return LaurentSymbol(
        {int(n): complex(rng.uniform(0.25, 1.0) * _random_phase(rng)) for n in support}
    )


def _forced_phase_symbol(rng, theta, band):
    coeffs = {0: complex(rng.uniform(0.2, 1.0) * _random_phase(rng))}
    for n in range(1, band + 1):
        minus = complex(rng.uniform(0.2, 1.0) * _random_phase(rng))
        coeffs[-n] = minus
        coeffs[n] = minus * np.exp(-1j * n * theta)
    return LaurentSymbol(coeffs)


def _block_basis_conjugation(rng, degree):
    size = int(rng.integers(2, 5))
    cols = np.zeros((degree + 1, size), dtype=complex)
    cols[:size, :] = random_unitary(size, rng)
    return materialize(FromBasis(BasisSpec(cols, degree)), degree)


def test_criterion_equivalence_suite():
    """1: five criteria agree on 200 randomized (symbol, conjugation) pairs."""
    rng = np.random.default_rng(2024)
    degree = 32
    start = time.perf_counter()
    disagreements = 0
    for trial in range(200):
        family = trial % 5
        want_pass = trial % 2 == 0
        if family == 0:
            conj = materialize(CanonicalJ(), degree)
            phi = _forced_phase_symbol(rng, 0.0, 4) if want_pass else _random_symbol(rng, 4)
        elif family == 1:
            theta = float(rng.uniform(0, 2 * np.pi))
            conj = materialize(ThetaXi(theta, float(rng.uniform(0, 2 * np.pi))), degree)
            phi = _forced_phase_symbol(rng, theta, 4) if want_pass else _random_symbol(rng, 4)
        elif family == 2:
            alphas = tuple(_random_phase(rng) for _ in range(8))
            conj = materialize(AlphaDiagonal(alphas, period=8), degree)
            phi = (
                LaurentSymbol({0: complex(rng.uniform(0.2, 1.0) * _random_phase(rng))})
                if want_pass
                else _random_symbol(rng, 4)
            )
        elif family == 3:
            conj = _block_basis_conjugation(rng, degree)
            phi = (
                LaurentSymbol({0: complex(rng.uniform(0.2, 1.0) * _random_phase(rng))})
                if want_pass
                else _random_symbol(rng, 4)
            )
        else:
            alpha = complex((0.1 + 0.5 * rng.random()) * _random_phase(rng))
            conj = materialize(Composition(alpha), degree)
            phi = (
                LaurentSymbol({0: complex(rng.uniform(0.2, 1.0) * _random_phase(rng))})
                if want_pass
                else _random_symbol(rng, 4)
            )
        report = run_all(phi, conj, CheckConfig(degree=degree))
        verdicts = set(report.criterion_verdicts().values())
        if len(verdicts) != 1:
            disagreements += 1
    elapsed = time.perf_counter() - start
    _report_line(
        "criterion equivalence (200 pairs, N=32)",
        disagreements == 0 and elapsed <= 60.0,
        f"disagreements={disagreements}, {elapsed:.1f}s",
    )


def _perturbation_protocol(rng, make_conjugation, force_symbol, name):
    degree = 32
    worst_pass = 0.0
    worst_flip = np.inf
    for _ in range(50):
        theta = float(rng.uniform(0, 2 * np.pi))
        conj = make_conjugation(theta)
        phi = force_symbol(theta)
        report = run_all(phi, conj, CheckConfig(degree=degree))
        ok = set(report.criterion_verdicts().values()) == {PASS}
        residual = max(report.residuals[c] for c in CRITERIA + ("s_toeplitz",))
        worst_pass = max(worst_pass, residual)
        if not ok or residual >= 1e-10:
            _report_line(name, False, f"forced instance residual {residual:.2e}")

        n = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        bumped = dict(phi.coefficients)
        bumped[n] = bumped.get(n, 0j) + 1e-3
        perturbed = run_all(LaurentSymbol(bumped), conj, CheckConfig(degree=degree))
        if set(perturbed.criterion_verdicts().values()) != {FAIL}:
            _report_line(name, False, "perturbation did not flip the verdict")
        worst_flip = min(worst_flip, min(perturbed.residuals[c] for c in CRITERIA))
    _report_line(
        name,
        worst_pass < 1e-10 and worst_flip >= 1e-4,
        f"max pass residual {worst_pass:.1e}, min flip residual {worst_flip:.1e}",
    )


def test_phase_family_reproduction():
    """2: twisted-reflection condition passes; 1e-3 perturbations flip it."""
    rng = np.random.default_rng(7)
    _perturbation_protocol(
        rng,
        lambda theta: materialize(ThetaXi(theta, float(rng.uniform(0, 2 * np.pi))), 32),
        lambda theta: _forced_phase_symbol(rng, theta, 3),
        "twisted reflection condition (50 pairs)",
    )


def test_diagonal_alpha_reproduction():
    """3: same protocol through the squared-diagonal family."""
    rng = np.random.default_rng(13)

    def make(theta):
        xi = float(rng.uniform(0, 2 * np.pi))
        signs = rng.choice([-1.0, 1.0], size=33)
        alphas = tuple(
            complex(s * np.exp(1j * (xi - n * theta) / 2)) for n, s in enumerate(signs)
        )
        return materialize(AlphaDiagonal(alphas), 32)

    _perturbation_protocol(
        rng,
        make,
        lambda theta: _forced_phase_symbol(rng, theta, 3),
        "squared-diagonal condition (50 pairs)",
    )


def test_finite_exhaustive():
    """4: 1000 random finite Toeplitz matrices under the flip conjugation."""
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        t = FiniteToeplitz(
            n, {k: complex(*rng.standard_normal(2)) for k in range(-n, n + 1)}
        )
        ok, residual = finite_symmetry_criterion(t, toeplitz_conjugation(n))
        worst = max(worst, residual)
        if not ok or residual >= 1e-12:
            _report_line("finite exhaustive", False, f"residual {residual:.2e}")
    elapsed = time.perf_counter() - start
    _report_line(
        "finite exhaustive (1000 matrices, N<=8)",
        worst < 1e-12 and elapsed <= 5.0,
        f"max residual {worst:.1e}, {elapsed:.2f}s",
    )


def test_composition_closed_form():
    """5: composition entries vs the series oracle and entry symmetry, i+j <= 24."""
    rng = np.random.default_rng(55)
    worst_oracle = 0.0
    worst_sym = 0.0
    for _ in range(20):
        alpha = complex((0.05 + 0.65 * rng.random()) * _random_phase(rng))
        p = CompositionParams(alpha)
        m = composition_matrix(p, 24)
        for i in range(25):
            for j in range(25 - i):
                got = m[j, i]
                worst_oracle = max(worst_oracle, abs(got - u_entry_oracle(p, i, j, series_terms=26)))
                worst_sym = max(worst_sym, abs(got - m[i, j]))
    _report_line(
        "composition entries (20 alphas, i+j<=24)",
        worst_oracle < 1e-12 and worst_sym < 1e-12,
        f"oracle gap {worst_oracle:.1e}, symmetry gap {worst_sym:.1e}",
    )


@pytest.mark.parametrize("alpha", [0.5, 0.3j, 0.6 * np.exp(1j * np.pi / 5)])
def test_constant_only_theorem(alpha):
    """6: 21^3 grid scans find exactly the constants passing."""
    start = time.perf_counter()
    report = scan_trigpoly_theorem(
        CompositionParams(complex(alpha)), TrigpolyGrid.real_grid(points=21), degree=24
    )
    elapsed = time.perf_counter() - start
    constants = sum(1 for cm, _, cp in report.passing if cm == 0 and cp == 0)
    _report_line(
        f"constant-only theorem (alpha={alpha})",
        report.theorem_reproduced and constants == 21 and len(report.passing) == 21 and elapsed <= 120.0,
        f"passing={len(report.passing)}, {elapsed:.1f}s",
    )


def test_compression_necessary_not_sufficient():
    """7: symmetric instances are shift-compression invariant; the coordinate
    symbol with the canonical conjugation passes compression yet fails all
    symmetry criteria."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        theta = float(rng.uniform(0, 2 * np.pi))
        phi = _forced_phase_symbol(rng, theta, 3)
        report = run_all(phi, materialize(ThetaXi(theta, 0.0), 32))
        worst = max(worst, report.residuals["s_toeplitz"])
    counter = run_all(LaurentSymbol({1: 1}), materialize(CanonicalJ(), 32))
    necessary_ok = worst < 1e-10
    counter_ok = (
        counter.verdicts["s_toeplitz"] == PASS
        and counter.residuals["s_toeplitz"] < 1e-12
        and set(counter.criterion_verdicts().values()) == {FAIL}
        and all(counter.residuals[c] >= 1 - 1e-12 for c in CRITERIA)
    )
    _report_line(
        "compression necessary, not sufficient",
        necessary_ok and counter_ok,
        f"max symmetric compression residual {worst:.1e}",
    )


def test_polydisc_criterion():
    """8: coefficient criterion vs definition oracle on an 8x8 box, plus
    bit-identical one-variable specialization."""
    rng = np.random.default_rng(44)
    box = BoxTruncation((8, 8))
    agreements = 0
    for trial in range(100):
        theta = tuple(rng.uniform(0, 2 * np.pi, 2))
        xi = tuple(rng.uniform(0, 2 * np.pi, 2))
        coeffs = {}
        for _ in range(int(rng.integers(1, 4))):
            k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            value = complex(rng.uniform(0.2, 1.0) * _random_phase(rng))
            if trial % 2 == 0:
                phase = np.exp(1j * (k[0] * theta[0] + k[1] * theta[1]))
                coeffs[k] = value
                coeffs[(-k[0], -k[1])] = phase * value
            else:
                coeffs[k] = value
        phi = PolySymbol(2, coeffs)
        verdict, _ = check_poly_criterion(phi, theta)
        res = poly_check_definition(phi, theta, xi, box)
        if verdict == res.verdict:
            agreements += 1

    bitwise = 0
    for _ in range(20):
        degree = 16
        theta = float(rng.uniform(0, 2 * np.pi))
        xi = float(rng.uniform(0, 2 * np.pi))
        coeffs = {int(n): complex(*rng.standard_normal(2)) for n in rng.integers(-3, 4, 3)}
        one = check_definition(
            LaurentSymbol(coeffs), materialize(ThetaXi(theta, xi), degree)
        )
        multi = poly_check_definition(
            PolySymbol(1, {(n,): v for n, v in coeffs.items()}),
            (theta,),
            (xi,),
            BoxTruncation((degree,)),
        )
        if one.residual == multi.residual and one.verdict == multi.verdict:
            bitwise += 1
    _report_line(
        "polydisc criterion agreement",
        agreements == 100 and bitwise == 20,
        f"agreements={agreements}/100, bitwise={bitwise}/20",
    )


def test_factorization_round_trip():
    """9: unique unitary factor is symmetric, unitary up to tail, and
    recomposes to the conjugation's action."""
    rng = np.random.default_rng(66)
    degree = 24
    block = np.zeros((degree + 1, 3), dtype=complex)
    block[:3, :] = random_unitary(3, rng)
    families = [
        ("canonical", materialize(CanonicalJ(), degree)),
        ("theta_xi", materialize(ThetaXi(1.9, 0.8), degree)),
        (
            "alpha_diag",
            materialize(AlphaDiagonal(tuple(_random_phase(rng) for _ in range(25))), degree),
        ),
        ("from_basis", materialize(FromBasis(BasisSpec(block, degree)), degree)),
        ("composition", materialize(Composition(0.5), degree)),
    ]
    ok = True
    details = []
    for name, conj in families:
        u = canonical_factorization(conj)
        symmetry = float(np.max(np.abs(u - u.T)))
        tail = unitarity_slack(conj, degree)
        gram = u @ u.conj().T
        unitarity = float(np.linalg.norm(gram - np.eye(degree + 1)))
        sample = rng.standard_normal((degree + 1, 100)) + 1j * rng.standard_normal((degree + 1, 100))
        recomposed = u @ np.conj(sample)
        direct = conj.coeff @ np.conj(sample)
        action = float(np.max(np.abs(recomposed - direct)))
        good = symmetry < 1e-12 and unitarity < 1e-10 + tail and action < 1e-10
        ok = ok and good
        details.append(f"{name}: sym {symmetry:.0e} unit {unitarity:.1e} tail {tail:.1e}")
    _report_line("factorization round trip (N=24)", ok, "; ".join(details))


def test_intertwiner_recovery():
    """10: the unimodular factor is recovered exactly when the conjugation
    intertwines the basis shift, and reported absent otherwise."""
    rng = np.random.default_rng(31)
    degree = 16
    recovered = 0
    absent = 0
    for _ in range(20):
        w = random_unitary(degree + 1, rng)
        u = w @ w.T
        lam = complex(_random_phase(rng))
        conj = Conjugation(lam * u, degree, degree)
        got = intertwine_lambda(conj, BasisSpec(u, degree))
        if got is not None and abs(got - lam) < 1e-10:
            recovered += 1

        other = random_unitary(degree + 1, rng)
        mismatched = intertwine_lambda(conj, BasisSpec(other, degree))
        if mismatched is None:
            absent += 1
    _report_line(
        "intertwiner factor recovery",
        recovered == 20 and absent == 20,
        f"recovered={recovered}/20, absent={absent}/20",
    )
