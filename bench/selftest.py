"""Show that the benchmark's checks catch wrong answers.

Each case takes a real library result that passes its check, then a copy
with one verdict flipped or one residual pushed across the threshold, and
requires the check to reject the copy.  The rejected copies are then fed
through the run's accounting, which must count every one as a failed
decision and mark the run incorrect.  Run with
``python3 bench/run.py --self-test``.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

import conjtoep.composition as composition
import conjtoep.polydisc as polydisc
import conjtoep.symmetry as symmetry
from conjtoep.composition import CompositionParams
from conjtoep.conjugation import Composition
from conjtoep.hardy import LaurentSymbol
from conjtoep.polydisc import BoxTruncation, PolySymbol
from conjtoep.symmetry import FAIL, PASS, CheckConfig

import reference
import workloads as w


def _flip(report, criterion):
    verdicts = dict(report.verdicts)
    verdicts[criterion] = FAIL if verdicts[criterion] == PASS else PASS
    return dataclasses.replace(report, verdicts=verdicts)


def cases():
    """(name, check on the real result, check on the doctored result)."""
    rng = np.random.default_rng(0)
    config = CheckConfig(degree=w.BANDED_DEGREE)

    families, finite_inputs = w.BandedEquivalence().inputs(rng, 0)
    spec, pairs = families[1]
    pair = pairs[0]
    report = symmetry.run_all(pair.phi, spec, config)
    yield "banded flipped verdict", w.BandedEquivalence.pair_ok(pair, report.verdicts, report.residuals), w.BandedEquivalence.pair_ok(
        pair, _flip(report, "definition").verdicts, report.residuals
    )
    pushed = copy.copy(pair)
    pushed.residual, pushed.symmetric = 10 * pair.threshold, False
    yield "banded residual across threshold", True, w.BandedEquivalence.pair_ok(pushed, report.verdicts, report.residuals)

    out = w._finite_check(*finite_inputs[0])
    (coeff_ok, _), general = out
    yield "finite residual across threshold", w._finite_ok(out), w._finite_ok(((coeff_ok, 1.0), general))

    constant = symmetry.run_all(LaurentSymbol({0: 0.7}), Composition(0.4), config)
    yield "dense flipped verdict", w._all(constant.verdicts, PASS), w._all(_flip(constant, "xy_system").verdicts, PASS)

    phi = LaurentSymbol({-1: 0.5, 0: 1.0, 1: 0.3})
    scan = symmetry.run_all(phi, Composition(0.3 + 0.2j), CheckConfig(degree=w.SCAN_DEGREE))
    yield "scan flipped verdict", w._all(scan.verdicts, FAIL), w._all(_flip(scan, "coefficient_equations").verdicts, FAIL)

    eps = symmetry.run_all(LaurentSymbol({0: 1.0, 1: 1e-6}), Composition(w.EPS_ALPHA), config)
    ok, known = w.eps_judgement(eps)
    yield "known fault stays known", ok or known, w.eps_judgement(_flip(eps, "definition"))[1]

    theta, xi, degrees = (0.7, 2.1), (0.3, 1.2), (4, 4)
    coeffs = w._poly_symbol(rng, 2, theta, True)
    phi2 = PolySymbol(2, coeffs)
    out = w._poly_check(phi2, theta, xi, BoxTruncation(degrees))
    (coeff, definition) = out
    yield "polydisc flipped verdict", w._poly_ok(out, phi2, True), w._poly_ok(
        (coeff, dataclasses.replace(definition, verdict=FAIL)), phi2, True
    )
    yield "polydisc residual across threshold", True, w._poly_ok((coeff, dataclasses.replace(definition, tilde_mismatch=1.0)), phi2, True)

    lib = polydisc.poly_toeplitz(phi2, BoxTruncation(degrees)).matrix
    bumped = dict(coeffs)
    bumped[(0, 0)] += 1e-3
    yield "kron reference bites", np.array_equal(lib, reference.kron_poly_toeplitz(coeffs, degrees)), np.array_equal(
        lib, reference.kron_poly_toeplitz(bumped, degrees)
    )

    alpha = 0.5 + 0.3j
    matrix = composition.composition_matrix(CompositionParams(alpha), 60)
    series = reference.composition_columns(alpha, 61, 11)
    worse = matrix.copy()
    worse[40, 10] += 1e-9
    yield "series reference bites", np.max(np.abs(matrix[:, :11] - series)) <= 1e-11, np.max(np.abs(worse[:, :11] - series)) <= 1e-11


def main() -> int:
    run = w.Run()
    bad = []
    count = 0
    for name, real_ok, doctored_ok in cases():
        count += 1
        if not real_ok:
            bad.append(f"{name}: the real result does not pass its check")
        if doctored_ok:
            bad.append(f"{name}: the doctored result passes its check")
        else:
            run.judge(False, name)
    if run.failed != count or run.attempted != count or not run.unexpected:
        bad.append("doctored decisions were not all counted as failed")
    for line in bad:
        print(f"self-test: {line}")
    print(f"self-test: {count} doctored results, {run.failed} counted failed, correct={not run.unexpected}")
    return 1 if bad else 0
