"""The four benchmark workloads: seeded inputs, timed decisions, checks.

A decision is one verdict a user asks for: one ``run_all`` report (called
directly, through ``scan_trigpoly_theorem`` or through ``cli.main``), one
finite check, or one polydisc check.  Each workload is a sequence of
identical rounds; round ``r`` draws its inputs from ``(seed, workload, r)``
so a run's inputs do not depend on how fast it goes.  The library is
called through module attributes so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from time import perf_counter

import numpy as np

import conjtoep.cli as cli
import conjtoep.composition as composition
import conjtoep.conjugation as conjugation
import conjtoep.finite as finite
import conjtoep.polydisc as polydisc
import conjtoep.symmetry as symmetry
from conjtoep.composition import CompositionParams, TrigpolyGrid
from conjtoep.core import DEFAULT_TOLERANCE
from conjtoep.conjugation import AlphaDiagonal, BasisSpec, CanonicalJ, Composition, FromBasis, ThetaXi
from conjtoep.finite import FiniteToeplitz
from conjtoep.hardy import LaurentSymbol
from conjtoep.polydisc import BoxTruncation, PolySymbol
from conjtoep.symmetry import CRITERIA, FAIL, INCONCLUSIVE, PASS, CheckConfig

import reference

TAU = 2 * math.pi


def _threshold(l1: float) -> float:
    """The library's default decision threshold for a symbol of this l1 norm."""
    return 1e-12 + 1e-10 * max(1.0, l1)


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0, TAU)))


def _coeff(rng, lo=0.25, hi=1.0) -> complex:
    return complex(rng.uniform(lo, hi) * _phase(rng))


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _symbol_json(coeffs: dict) -> str:
    return json.dumps({"coeffs": {str(n): _pair(v) for n, v in sorted(coeffs.items())}})


class Run:
    """Round bookkeeping shared by the workloads: timing, verdict tally and
    the optional tracer.  Checks run with the tracer suspended."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.latencies = []
        self.cold = []
        self.round_wall = 0.0

    # A failure the benchmark expects is one the program is known to have;
    # anything else means a wrong answer and makes the run incorrect.
    def judge(self, ok: bool, label: str, known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(label)

    def mismatch(self, label: str) -> None:
        """A check outside any decision (a reference or invariant) failed."""
        self.unexpected.append(label)

    def timed(self, fn, *args):
        """Call the library; the time counts toward the round, not a decision."""
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.round_wall += perf_counter() - start

    def decide(self, fn, *args, cold: bool = False):
        """Time one decision.  Returns its output, or None if it raised."""
        if self.tracer is not None:
            self.tracer.decision += 1
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a raising decision is a failed one; keep running
            self.round_wall += perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = perf_counter() - start
        self.round_wall += elapsed
        self.latencies.append(elapsed)
        if cold:
            self.cold.append(elapsed)
        return out

    @contextlib.contextmanager
    def checking(self):
        if self.tracer is not None and self.tracer.active:
            self.tracer.uninstall()
            try:
                yield
            finally:
                self.tracer.install()
        else:
            yield


def _all(verdicts: dict, expected: str) -> bool:
    return all(verdicts[c] == expected for c in CRITERIA)


# ---------------------------------------------------------------- scan-theorem

SCAN_DEGREE = 24
# |alpha| strata whose padded degree at truncation 24 is stable across the
# stratum (46, 81 and 137); one alpha from each per round.
SCAN_STRATA = ((0.27, 0.05), (0.46, 0.06), (0.65, 0.04))
SCAN_POINTS = 5


class ScanTheorem:
    """The constant-only theorem scan: band-1 real grids plus locus points."""

    name = "scan-theorem"

    def __init__(self):
        self._calls = []
        self._run = None
        original = symmetry.run_all

        # Decisions happen inside scan_trigpoly_theorem, which looks run_all
        # up on the symmetry module; this shim times each one.
        def timed_run_all(phi, conj, config=None):
            run = self._run
            if run is not None and run.tracer is not None:
                run.tracer.decision += 1
            start = perf_counter()
            report = original(phi, conj, config)
            self._calls.append((phi, report, start, perf_counter()))
            return report

        symmetry.run_all = timed_run_all

    def inputs(self, rng, index):
        rounds = []
        for centre, half in SCAN_STRATA:
            alpha = complex((centre + rng.uniform(-half, half)) * _phase(rng))
            axes = []
            for _ in range(3):
                vals = [0.0] + [float(rng.choice([-1, 1]) * rng.uniform(0.2, 1.0)) for _ in range(SCAN_POINTS - 1)]
                axes.append(tuple(complex(v) for v in vals))
            rounds.append((alpha, TrigpolyGrid(*axes)))
        return rounds

    def round(self, run: Run, rng, index: int) -> None:
        self._run = run
        for alpha, grid in self.inputs(rng, index):
            self._calls = []
            start = perf_counter()
            try:
                report = run.timed(composition.scan_trigpoly_theorem, CompositionParams(alpha), grid, DEFAULT_TOLERANCE, SCAN_DEGREE)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                report = None
            calls, self._calls = self._calls, []
            if calls:
                run.cold.append(calls[0][3] - start)
            for phi, rep, t0, t1 in calls:
                run.latencies.append(t1 - t0)
                constant = phi.band == 0
                verdicts = rep.criterion_verdicts()
                run.judge(_all(verdicts, PASS if constant else FAIL), f"scan alpha={alpha:.4f} {phi.to_json()}")
            constants = {(0j, cz, 0j) for cz in grid.zero}
            if report is None or not report.theorem_reproduced or set(report.passing) != constants:
                run.mismatch(f"scan alpha={alpha:.4f}: passing set is not exactly the constants")
            expected = len(grid.minus) * len(grid.zero) * len(grid.plus) + report.locus_points if report else -1
            if report is None or len(calls) != expected:
                run.mismatch(f"scan alpha={alpha:.4f}: {len(calls)} decisions, expected {expected}")
        self._run = None

    def cli_argv(self, rng) -> list:
        alpha = complex(0.46 * _phase(rng))
        return ["scan-trigpoly", f"--alpha={alpha.real!r},{alpha.imag!r}", "--grid-points", "3", "--degree", str(SCAN_DEGREE)]

    @staticmethod
    def cli_ok(code: int, payload: dict) -> bool:
        return code == 0 and payload.get("theorem_reproduced") is True


# --------------------------------------------------------- banded-equivalence

BANDED_DEGREE = 32
BANDED_FAMILIES = ("canonical_j", "theta_xi", "alpha_diag", "basis")
# Positions (of eight symbols per family) submitted as JSON through cli.main.
CLI_SLOTS = (2, 5)
FINITE_SIZES = (3, 5, 7, 8)


class BandedPair:
    """A symbol and a banded conjugation, with the reference residual on the
    exactness window ``degree - (2 * conjugation band + symbol band)``."""

    def __init__(self, coeffs, spec_json, residual_fn, conj_band):
        self.coeffs = coeffs
        self.phi = LaurentSymbol(coeffs)
        self.spec_json = spec_json
        band = max((abs(n) for n in coeffs), default=0)
        self.window = BANDED_DEGREE - (2 * conj_band + band)
        self.threshold = _threshold(sum(abs(v) for v in coeffs.values()))
        self.residual = residual_fn(coeffs, self.window)
        self.symmetric = self.residual <= self.threshold


def _banded_family(rng, family):
    """(library spec, JSON spec, reference residual function, conjugation
    band, theta of the phase diagonal or None for the block family)."""
    n = BANDED_DEGREE + 1
    theta = float(rng.uniform(0, TAU)) if family != "canonical_j" else 0.0
    xi = float(rng.uniform(0, TAU)) if family != "canonical_j" else 0.0
    if family in ("canonical_j", "theta_xi", "alpha_diag"):
        d = reference.phase_diagonal(theta, xi, n)
        if family == "canonical_j":
            spec, js = CanonicalJ(), {"family": "canonical_j"}
        elif family == "theta_xi":
            spec, js = ThetaXi(theta, xi), {"family": "theta_xi", "theta": theta, "xi": xi}
        else:
            # Square roots of the phase diagonal with random signs.
            alphas = tuple(complex(s * np.exp(1j * (xi - k * theta) / 2)) for k, s in enumerate(rng.choice([-1.0, 1.0], size=n)))
            spec = AlphaDiagonal(alphas)
            js = {"family": "alpha_diag", "alphas": [_pair(a) for a in alphas]}
        return spec, js, (lambda coeffs, window: reference.diagonal_residual(d, coeffs, window)), 0, theta
    size = int(rng.integers(2, 5))
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(z)
    block = q * (np.diag(r) / np.abs(np.diag(r)))
    cols = np.zeros((n, size), dtype=np.complex128)
    cols[:size, :] = block
    spec = FromBasis(BasisSpec(cols, BANDED_DEGREE))
    js = {"family": "basis", "columns": [[_pair(complex(v)) for v in block[:, j]] for j in range(size)]}
    coeff = reference.block_conjugation(block, n)
    return spec, js, (lambda coeffs, window: reference.definition_residual(coeff, n, coeffs, window)), reference.band_of(coeff), None


def _forced_symbol(rng, theta, band) -> dict:
    """Symbol symmetric for a phase diagonal ``exp(i xi) exp(-i k theta)``."""
    coeffs = {0: _coeff(rng, 0.2)}
    for m in range(1, band + 1):
        c = _coeff(rng, 0.2)
        coeffs[-m] = c
        coeffs[m] = c * complex(np.exp(-1j * m * theta))
    return coeffs


def _random_symbol(rng, band) -> dict:
    coeffs = {int(rng.choice([-band, band])): _coeff(rng)}
    for n in rng.integers(-band, band + 1, size=int(rng.integers(0, 2 * band + 1))):
        coeffs[int(n)] = _coeff(rng)
    return coeffs


class BandedEquivalence:
    """Randomised pairs from the banded families; the exact path."""

    name = "banded-equivalence"

    def inputs(self, rng, index):
        families = []
        for family in BANDED_FAMILIES:
            spec, js, ref, band_c, theta = _banded_family(rng, family)
            pairs = []
            for band in range(1, 5):
                for forced in (True, False):
                    while True:
                        if forced:
                            coeffs = _forced_symbol(rng, theta, band) if theta is not None else {0: _coeff(rng, 0.2)}
                        else:
                            coeffs = _random_symbol(rng, band)
                        pair = BandedPair(coeffs, js, ref, band_c)
                        # Keep every pair well clear of the decision threshold.
                        if pair.residual <= pair.threshold / 100 or pair.residual >= 1e-3:
                            break
                    if forced and not pair.symmetric:
                        raise RuntimeError("forced-symmetric construction is not symmetric")
                    pairs.append(pair)
            families.append((spec, pairs))
        finite_inputs = []
        for size in FINITE_SIZES:
            finite_inputs.append((size, {k: complex(*rng.standard_normal(2)) for k in range(-size, size + 1)}))
        return families, finite_inputs

    @staticmethod
    def pair_ok(pair: BandedPair, verdicts: dict, residuals: dict) -> bool:
        expected = PASS if pair.symmetric else FAIL
        if not _all(verdicts, expected):
            return False
        if pair.symmetric and verdicts["s_toeplitz"] != PASS:
            return False
        return abs(residuals["definition"] - pair.residual) <= 1e-9 * max(1.0, pair.residual)

    def round(self, run: Run, rng, index: int) -> None:
        families, finite_inputs = self.inputs(rng, index)
        config = CheckConfig(degree=BANDED_DEGREE)
        for spec, pairs in families:
            conj = None
            for slot, pair in enumerate(pairs):
                label = f"banded {pair.spec_json['family']} {_symbol_json(pair.coeffs)}"
                if slot in CLI_SLOTS:
                    out = run.decide(_cli_check, pair.coeffs, pair.spec_json)
                    with run.checking():
                        ok = out is not None and out[0] == (0 if pair.symmetric else 1)
                        ok = ok and self.pair_ok(pair, out[1]["verdicts"], out[1]["residuals"])
                    run.judge(ok, label + " (cli)")
                    continue
                if conj is None:
                    out = run.decide(_materialize_and_decide, pair.phi, spec, config, cold=True)
                    conj, report = out if out is not None else (None, None)
                else:
                    report = run.decide(symmetry.run_all, pair.phi, conj, config)
                with run.checking():
                    ok = report is not None and self.pair_ok(pair, report.verdicts, report.residuals)
                    if ok and slot == 0:
                        ok = _toeplitz_matches(pair)
                run.judge(ok, label)
        for size, coeffs in finite_inputs:
            out = run.decide(_finite_check, size, coeffs)
            run.judge(out is not None and _finite_ok(out), f"finite flip N={size}")

    def cli_argv(self, rng) -> list:
        theta, xi = float(rng.uniform(0, TAU)), float(rng.uniform(0, TAU))
        coeffs = _forced_symbol(rng, theta, 2)
        conj = {"family": "theta_xi", "theta": theta, "xi": xi}
        return ["check", "--symbol", _symbol_json(coeffs), "--conj", json.dumps(conj), "--degree", str(BANDED_DEGREE)]

    @staticmethod
    def cli_ok(code: int, payload: dict) -> bool:
        return code == 0 and _all(payload.get("verdicts", {}), PASS)


def _materialize_and_decide(phi, spec, config):
    conj = conjugation.materialize(spec, config.degree)
    return conj, symmetry.run_all(phi, conj, config)


def _cli_check(coeffs, spec_json):
    argv = ["check", "--symbol", _symbol_json(coeffs), "--conj", json.dumps(spec_json), "--degree", str(BANDED_DEGREE)]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, json.loads(buffer.getvalue())


def _finite_check(size, coeffs):
    t = FiniteToeplitz(size, coeffs)
    flip = finite.toeplitz_conjugation(size)
    return finite.finite_symmetry_criterion(t, flip), finite.general_symmetry(t.matrix(), flip)


def _finite_ok(out) -> bool:
    """The flip conjugation makes every Toeplitz matrix symmetric."""
    (coeff_ok, coeff_residual), (general_ok, general_residual) = out
    return coeff_ok and general_ok and max(coeff_residual, general_residual) < 1e-10


def _toeplitz_matches(pair: BandedPair) -> bool:
    """The library's Toeplitz truncation against the plain-loop one."""
    lib = symmetry.toeplitz_matrix(pair.phi, BANDED_DEGREE).matrix
    ref = np.array(reference.plain_toeplitz(pair.coeffs, BANDED_DEGREE + 1))
    return bool(np.array_equal(lib, ref))


# -------------------------------------------------------------- dense-padding

DENSE_DEGREE = 32
# |alpha| strata inside which the padded degree (102 ... 1912) does not
# change, so every round costs about the same; the phase is free.  The
# middle stratum is drawn three times so that the median cold decision sits
# inside it.
DENSE_STRATA = (
    (0.37, 0.06),
    (0.555, 0.06),
    (0.71, 0.04),
    (0.81, 0.025),
    (0.81, 0.025),
    (0.81, 0.025),
    (0.88, 0.015),
    (0.92, 0.008),
    (0.97, 0.003),
)
# Seed-independent small perturbations of a constant: not symmetric, but the
# dense tail floor (~1.7e-5 at any alpha) leaves three criteria inconclusive.
EPS_ALPHA = 0.5
EPS_VALUES = (1e-6, 1e-8)
SAMPLED_COLUMNS = (0, 1, 5, 10)


class DensePadding:
    """Composition conjugations with cold caches and padded degrees."""

    name = "dense-padding"

    def inputs(self, rng, index):
        out = []
        for centre, half in DENSE_STRATA:
            alpha = complex((centre + rng.uniform(-half, half)) * _phase(rng))
            locus = _coeff(rng, 0.2)
            symbols = [
                {0: _coeff(rng, 0.2, 2.0)},
                {0: _coeff(rng, 0.2, 2.0)},
                {-1: _coeff(rng, 0.2), 0: _coeff(rng, 0.2), 1: _coeff(rng, 0.2)},
                {-1: _coeff(rng, 0.2), 0: _coeff(rng, 0.2), 1: _coeff(rng, 0.2)},
                {-1: _coeff(rng, 0.2), 1: _coeff(rng, 0.2)},
                {-1: locus, 0: _coeff(rng, 0.2), 1: -(alpha.conjugate() / alpha) * locus},
            ]
            out.append((alpha, [LaurentSymbol(s) for s in symbols]))
        return out

    def round(self, run: Run, rng, index: int) -> None:
        """Cold decisions in stratum order; after each, one warm decision on
        every alpha already cold, so that warm decisions of one stratum are
        spread over the round rather than bunched."""
        config = CheckConfig(degree=DENSE_DEGREE)
        warm = []
        for alpha, symbols in self.inputs(rng, index):
            out = run.decide(_materialize_and_decide, symbols[0], Composition(alpha), config, cold=True)
            conj, report = out if out is not None else (None, None)
            with run.checking():
                ok = report is not None and _all(report.verdicts, PASS)
                if ok and not _padded_entries_match(alpha, report.work_degree):
                    run.mismatch(f"dense alpha={alpha:.4f}: padded entries differ from the series")
            run.judge(ok, f"dense alpha={alpha:.4f} constant")
            warm.append((alpha, conj, list(symbols[1:])))
            self._warm_pass(run, warm, config)
        while any(pending for _, _, pending in warm):
            self._warm_pass(run, warm, config)
        for eps in EPS_VALUES:
            phi = LaurentSymbol({0: 1.0, 1: eps})
            report = run.decide(symmetry.run_all, phi, Composition(EPS_ALPHA), config)
            ok, known = eps_judgement(report)
            run.judge(ok, f"dense alpha={EPS_ALPHA} 1+{eps:g}z", known_fault=known)

    @staticmethod
    def _warm_pass(run: Run, warm: list, config) -> None:
        for alpha, conj, pending in warm:
            if not pending:
                continue
            phi = pending.pop(0)
            report = run.decide(symmetry.run_all, phi, conj, config) if conj is not None else None
            expected = PASS if phi.band == 0 else FAIL
            run.judge(report is not None and _all(report.verdicts, expected), f"dense alpha={alpha:.4f} {phi.to_json()}")

    def cli_argv(self, rng) -> list:
        alpha = complex(0.555 * _phase(rng))
        conj = {"family": "composition", "alpha": _pair(alpha)}
        return ["check", "--symbol", _symbol_json({0: _coeff(rng, 0.2, 2.0)}), "--conj", json.dumps(conj), "--degree", str(DENSE_DEGREE)]

    @staticmethod
    def cli_ok(code: int, payload: dict) -> bool:
        return code == 0 and _all(payload.get("verdicts", {}), PASS)


def eps_judgement(report) -> tuple:
    """(ok, known fault) for a ``1 + eps z`` decision, which must fail.

    The known fault is an inconclusive verdict where the answer is
    decidable; a pass would be a wrong answer, not this fault.
    """
    if report is None:
        return False, False
    verdicts = report.criterion_verdicts()
    return _all(verdicts, FAIL), set(verdicts.values()) <= {FAIL, INCONCLUSIVE}


def _padded_entries_match(alpha: complex, work_degree: int) -> bool:
    """Sampled entries of the padded matrix against the power-series route."""
    cached = getattr(composition, "_cached_composition_matrix", None)
    if cached is not None:
        matrix = cached(complex(alpha), work_degree)
    else:
        matrix = composition.composition_matrix(CompositionParams(alpha), work_degree)
    series = reference.composition_columns(complex(alpha), work_degree + 1, max(SAMPLED_COLUMNS) + 1)
    rows = (0, 1, work_degree // 2, work_degree)
    worst = max(abs(matrix[j, k] - series[j, k]) for j in rows for k in SAMPLED_COLUMNS)
    return worst <= 1e-11


# --------------------------------------------------------------- polydisc-box

# (per-axis degrees, decisions per round), one new box each.  The single
# 8^3 decision alternates between a forced-symmetric and an asymmetric
# symbol.  The counts put the median decision inside the 12x12 group and the
# 90th percentile inside the 6^3 group, away from group edges; three 12x12
# boxes put the median cold (first-on-a-box) decision among them too.
POLY_BOXES = (
    ((6, 6), 6),
    ((4, 4, 4), 6),
    ((12, 12), 6),
    ((12, 12), 6),
    ((12, 12), 6),
    ((6, 6, 6), 8),
    ((8, 8, 8), 1),
)
POLY_BAND = 2


def _poly_symbol(rng, d, theta, symmetric) -> dict:
    while True:
        coeffs = {tuple([0] * d): _coeff(rng, 0.2)}
        for _ in range(int(rng.integers(1, 4))):
            k = tuple(int(v) for v in rng.integers(-POLY_BAND, POLY_BAND + 1, size=d))
            if not any(k):
                continue
            c = _coeff(rng, 0.2)
            coeffs[k] = c
            if symmetric:
                coeffs[tuple(-v for v in k)] = complex(np.exp(1j * sum(a * b for a, b in zip(k, theta)))) * c
        residual = reference.poly_coefficient_residual(coeffs, theta)
        if len(coeffs) > 1 and (residual < 1e-13 if symmetric else residual > 0.1):
            return coeffs


class PolydiscBox:
    """2-D and 3-D boxes with diagonal phase conjugations."""

    name = "polydisc-box"

    def inputs(self, rng, index):
        boxes = []
        for degrees, count in POLY_BOXES:
            d = len(degrees)
            theta = tuple(float(t) for t in rng.uniform(0, TAU, size=d))
            xi = tuple(float(t) for t in rng.uniform(0, TAU, size=d))
            symmetric = [(i + index) % 2 == 0 for i in range(count)] if count == 1 else [i % 2 == 0 for i in range(count)]
            symbols = [(_poly_symbol(rng, d, theta, s), s) for s in symmetric]
            boxes.append((degrees, theta, xi, symbols))
        return boxes

    def round(self, run: Run, rng, index: int) -> None:
        for degrees, theta, xi, symbols in self.inputs(rng, index):
            box = BoxTruncation(degrees)
            d = len(degrees)
            for slot, (coeffs, symmetric) in enumerate(symbols):
                phi = PolySymbol(d, coeffs)
                if run.tracer is not None and run.tracer.active:
                    run.tracer.count("polydisc.box_modes", box.size)
                out = run.decide(_poly_check, phi, theta, xi, box, cold=slot == 0)
                with run.checking():
                    ok = out is not None and _poly_ok(out, phi, symmetric)
                    if ok and slot == 0 and (box.size <= 200 or index == 0 and box.size <= 400):
                        ok = _kron_matches(coeffs, box)
                run.judge(ok, f"polydisc box={degrees} {phi.to_json()}")
            conj = run.timed(polydisc.poly_conjugation, theta, xi, box)
            dc = run.timed(polydisc.doubly_commuting_residual, conj, box)
            if dc["wandering_dim"] != 1 or dc["commute"] > 1e-12 or dc["star_commute"] > 1e-12:
                run.mismatch(f"polydisc box={degrees}: doubly commuting {dc}")

    def cli_argv(self, rng) -> list:
        theta = tuple(float(t) for t in rng.uniform(0, TAU, size=2))
        xi = tuple(float(t) for t in rng.uniform(0, TAU, size=2))
        phi = PolySymbol(2, _poly_symbol(rng, 2, theta, True))
        conj = {"family": "poly_theta_xi", "theta": list(theta), "xi": list(xi)}
        return ["check-poly", "--symbol", phi.to_json(), "--conj", json.dumps(conj), "--box", "6,6"]

    @staticmethod
    def cli_ok(code: int, payload: dict) -> bool:
        return code == 0 and payload.get("verdicts") == {"coefficient": PASS, "definition": PASS}


def _poly_check(phi, theta, xi, box):
    return polydisc.check_poly_criterion(phi, theta), polydisc.poly_check_definition(phi, theta, xi, box)


def _poly_ok(out, phi, symmetric) -> bool:
    (coeff_verdict, _), definition = out
    expected = PASS if symmetric else FAIL
    if coeff_verdict != expected or definition.verdict != expected:
        return False
    return not symmetric or definition.tilde_mismatch <= _threshold(phi.l1_norm())


def _kron_matches(coeffs, box) -> bool:
    lib = polydisc.poly_toeplitz(PolySymbol(box.d, coeffs), box).matrix
    return bool(np.array_equal(lib, reference.kron_poly_toeplitz(coeffs, box.degrees)))


WORKLOADS = {w.name: w for w in (ScanTheorem, BandedEquivalence, DensePadding, PolydiscBox)}
