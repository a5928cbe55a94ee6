"""Property tests of the symbol parsers (exact JSON round trips of finite
coefficients, refusal of non-finite ones on construction), of the CLI's
exit codes over malformed JSON specs and over a non-number in place of a
number, and of the criterion suite (one index window for all six checks,
exact on banded conjugations, and no verdict from overflowed arithmetic),
and of the polydisc shift-tuple diagnostics against their dense oracle on
diagonals that are not unimodular."""

import cmath
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conjtoep.cli import main
from conjtoep.conjugation import AlphaDiagonal, BasisSpec, CanonicalJ, Conjugation, FromBasis, ThetaXi, materialize
from conjtoep.core import FAIL, PASS, ConjtoepError
from conjtoep.finite import FiniteToeplitz
from conjtoep.hardy import LaurentSymbol
from conjtoep.polydisc import BoxTruncation, PolySymbol, doubly_commuting_residual
from conjtoep.symmetry import CheckConfig, CriterionDisagreement, run_all

from oracles import doubly_commuting_dense

finite = st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(allow_nan=False, allow_infinity=False))
non_finite_part = st.sampled_from([math.nan, math.inf, -math.inf])
non_finite = st.one_of(
    st.builds(complex, non_finite_part, st.floats()),
    st.builds(complex, st.floats(), non_finite_part),
)
index = st.integers(-6, 6)


def laurent(values):
    return st.dictionaries(index, values, max_size=5).map(LaurentSymbol)


def poly(values):
    return st.integers(1, 3).flatmap(
        lambda d: st.dictionaries(st.tuples(*[index] * d), values, max_size=5).map(
            lambda coeffs: PolySymbol(d, coeffs)
        )
    )


def finite_toeplitz(values):
    return st.integers(0, 6).flatmap(
        lambda n: st.dictionaries(st.integers(-n, n), values, max_size=5).map(
            lambda a: FiniteToeplitz(n, a)
        )
    )


@given(laurent(finite))
def test_laurent_symbol_round_trips_exactly(phi):
    assert LaurentSymbol.from_json(phi.to_json()).coefficients == phi.coefficients


@given(poly(finite))
def test_poly_symbol_round_trips_exactly(phi):
    again = PolySymbol.from_json(phi.to_json())
    assert again.d == phi.d and again.coefficients == phi.coefficients


@given(finite_toeplitz(finite))
def test_finite_toeplitz_round_trips_exactly(t):
    again = FiniteToeplitz.from_json(t.to_json())
    assert again.size_minus_one == t.size_minus_one and again.a == t.a


@given(st.dictionaries(index, finite, max_size=4), index, non_finite)
def test_laurent_symbol_refuses_non_finite(coeffs, n, bad):
    with pytest.raises(ConjtoepError, match="finite"):
        LaurentSymbol({**coeffs, n: bad})


@given(st.integers(1, 3), st.data(), non_finite)
def test_poly_symbol_refuses_non_finite(d, data, bad):
    coeffs = data.draw(st.dictionaries(st.tuples(*[index] * d), finite, max_size=4))
    key = data.draw(st.tuples(*[index] * d))
    with pytest.raises(ConjtoepError, match="finite"):
        PolySymbol(d, {**coeffs, key: bad})


@given(st.integers(0, 6), st.data(), non_finite)
def test_finite_toeplitz_refuses_non_finite(n, data, bad):
    a = data.draw(st.dictionaries(st.integers(-n, n), finite, max_size=4))
    k = data.draw(st.integers(-n, n))
    with pytest.raises(ConjtoepError, match="finite"):
        FiniteToeplitz(n, {**a, k: bad})


# Arbitrary JSON values.  Numbers stay small (or non-finite) because a JSON
# number can become a size (``N`` of a finite matrix), and no estimate guards
# sizes before allocation yet, so they are not probed by allocating.
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-8, 8),
        st.floats(-8, 8),
        non_finite_part,
        st.text(max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=10,
)

SYMBOLS = {
    "check": {"coeffs": {"1": [1, 0], "-1": [-1, 0], "0": [0.5, 0.25]}},
    "xy": {"coeffs": {"1": [1, 0], "-1": [-1, 0]}},
    "check-poly": {"d": 2, "coeffs": {"1,0": [1, 0], "-1,0": [-1, 0]}},
    "check-finite": {"N": 3, "a": {"1": [1, 0], "-1": [0, 0.5]}},
    "factor": None,
}
# Every family but composition, whose padding can allocate hundreds of MB.
CONJS = [
    {"family": "canonical_j"},
    {"family": "theta_xi", "theta": 3.14, "xi": 0.5},
    {"family": "alpha_diag", "alphas": [[0, 1], [1, 0]], "period": 1},
    {"family": "basis", "columns": [[[0.6, 0], [0.8, 0]], [[-0.8, 0], [0.6, 0]]]},
    {"family": "toeplitz"},
    {"family": "poly_theta_xi", "theta": [3.14, 0], "xi": [0, 0]},
]


def malformed(spec):
    """A JSON value in place of the spec, of one of its fields, or of one
    entry inside a field."""
    options = [json_values, st.sampled_from(sorted(spec)).flatmap(
        lambda key: json_values.map(lambda v: {**spec, key: v}))]
    for key, value in spec.items():
        if isinstance(value, dict):
            options.append(st.one_of(st.sampled_from(sorted(value)), st.text(max_size=3)).flatmap(
                lambda k, key=key, value=value: json_values.map(
                    lambda v: {**spec, key: {**value, k: v}})))
        elif isinstance(value, list):
            options.append(st.integers(0, len(value) - 1).flatmap(
                lambda i, key=key, value=value: json_values.map(
                    lambda v: {**spec, key: [*value[:i], v, *value[i + 1:]]})))
    return st.one_of(options)


def no_composition(value):
    return not (isinstance(value, dict) and value.get("family") == "composition")


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(SYMBOLS)))
    symbol, conj = SYMBOLS[command], draw(st.sampled_from(CONJS))
    if symbol is not None and draw(st.booleans()):
        symbol = draw(malformed(symbol))
    else:
        conj = draw(st.sampled_from(CONJS).flatmap(malformed).filter(no_composition))
    argv = [command, "--conj", json.dumps(conj)]
    if symbol is not None:
        argv += ["--symbol", json.dumps(symbol)]
    if command == "check-poly":
        argv += ["--box", "2,2"]
    elif command != "check-finite":
        argv += ["--degree", "4"]
    return argv


def quiet_main(argv):
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(invocations())
def test_cli_exit_code_is_total_over_malformed_specs(argv):
    code, _, err = quiet_main(argv)
    assert code in (0, 1, 2, 64, 65), (code, argv, err)


def number_paths(value, path=()):
    """Paths to the JSON numbers inside a spec."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for key, inner in items for leaf in number_paths(inner, (*path, key))]
    return [path] if type(value) in (int, float) else []


def replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[head] = replaced(value[head], rest, new)
    return copy


@st.composite
def non_number_invocations(draw):
    """A well-formed invocation, and the same with one JSON number of its
    symbol or conjugation replaced by a boolean, string or null."""
    command = draw(st.sampled_from(sorted(SYMBOLS)))
    conj = draw(st.sampled_from(CONJS))
    specs = {"--conj": conj} if SYMBOLS[command] is None else {"--symbol": SYMBOLS[command], "--conj": conj}
    leaves = [(flag, path) for flag, spec in specs.items() for path in number_paths(spec)]
    assume(leaves)
    flag, path = draw(st.sampled_from(leaves))
    # a null period is no period
    bad = draw(st.sampled_from([True, False, "1", "x"] + ([None] if path != ("period",) else [])))
    extra = {"check-poly": ["--box", "2,2"], "check-finite": []}.get(command, ["--degree", "4"])

    def argv(specs):
        out = [command, *extra]
        for key, spec in specs.items():
            out += [key, json.dumps(spec)]
        return out

    return argv(specs), argv({**specs, flag: replaced(specs[flag], path, bad)})


@given(non_number_invocations())
def test_cli_refuses_a_non_number_where_a_number_belongs(pair):
    # where the command takes the spec, the non-number alone is refused
    # (65); where it refuses the spec's shape (64) it may do so first
    clean, argv = pair
    clean_code = quiet_main(clean)[0]
    code, out, err = quiet_main(argv)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if clean_code in (0, 1, 2):
        assert code == 65 and " must be a" in err, (argv, err)
    else:
        assert code in (clean_code, 65), (argv, err)


angle = st.floats(0, 2 * math.pi)


@st.composite
def planted_asymmetry(draw):
    """A symbol symmetric for ``ThetaXi(theta, xi)`` and the ``AlphaDiagonal``
    square roots of that phase with one unimodular factor ``e^{i gamma}``
    applied from index ``p`` onward.  Entry ``(p, p - 1)`` of ``C T* C - T``
    is then ``phi_1 (e^{2 i gamma} - 1) != 0``, and every entry among rows and
    columns below ``p`` vanishes."""
    band = draw(st.integers(1, 4))
    n = draw(st.integers(2 * band, 40))
    theta, xi = draw(angle), draw(angle)
    gamma = draw(st.floats(0.1, math.pi - 0.1))
    p = draw(st.integers(1, n - band))
    coeffs = {}
    for m in range(band + 1):
        c = draw(st.complex_numbers(min_magnitude=0.1 if m == 1 else 0, max_magnitude=2))
        coeffs[-m] = c
        coeffs[m] = c * cmath.exp(-1j * m * theta)
    alphas = tuple(
        cmath.exp(1j * (xi - k * theta) / 2 + 1j * gamma * (k >= p)) for k in range(n + 1)
    )
    return LaurentSymbol(coeffs), materialize(AlphaDiagonal(alphas), n), p


@given(planted_asymmetry())
def test_planted_asymmetry_fails_in_every_criterion(instance):
    phi, conj, p = instance
    report = run_all(phi, conj)
    assert p <= report.window
    assert set(report.criterion_verdicts().values()) == {FAIL}


@given(planted_asymmetry(), st.data())
def test_user_window_narrows_every_criterion(instance, data):
    # the planted defect is inside window w exactly when p <= w
    phi, conj, p = instance
    default = run_all(phi, conj).window
    w = data.draw(st.integers(phi.band, default))
    report = run_all(phi, conj, CheckConfig(degree=conj.degree, window=w))
    assert set(report.criterion_verdicts().values()) == {FAIL if p <= w else PASS}


@st.composite
def banded_instances(draw):
    """A symbol of band 0-4 and a ``theta_xi``, ``alpha_diag`` or 2-5-column
    ``basis`` conjugation at the smallest degrees whose window holds the band."""
    band = draw(st.integers(0, 4))
    coeffs = {m: draw(st.complex_numbers(max_magnitude=2)) for m in range(-band, band + 1)}
    kind = draw(st.sampled_from(["theta_xi", "alpha_diag", "basis"]))
    if kind == "theta_xi":
        family = ThetaXi(draw(angle), draw(angle))
    elif kind == "alpha_diag":
        phases = draw(st.lists(angle, min_size=1, max_size=6))
        family = AlphaDiagonal(tuple(cmath.exp(1j * t) for t in phases), draw(st.integers(1, len(phases))))
    else:
        size = draw(st.integers(2, 5))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        block, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        family = FromBasis(BasisSpec(block, size - 1))
    least = max(2 * materialize(family, 8).band + band + max(band, 1), 4)
    n = draw(st.integers(least, least + 12))
    return LaurentSymbol(coeffs), family, n


@given(banded_instances())
def test_default_window_is_exact_for_every_check(instance):
    # every check on the default window reads only exact entries: 15 more
    # degrees change no residual beyond round-off
    phi, family, n = instance
    small = run_all(phi, materialize(family, n))
    window = small.window
    assert window == n - 2 * materialize(family, n).band - max(phi.band, 1)
    large = run_all(phi, materialize(family, n + 15), CheckConfig(degree=n + 15, window=window))
    scale = max(1.0, phi.l1_norm())
    for name, residual in small.residuals.items():
        assert abs(large.residuals[name] - residual) <= 1e-12 * scale, name
    assert small.verdicts == large.verdicts
    assert small.residuals["transpose_basis"] == small.details["conjugated_toeplitz"]["matrix_residual"]


huge = st.builds(complex, st.floats(-1e308, 1e308), st.floats(-1e308, 1e308))
diagonal_families = st.one_of(
    st.just(CanonicalJ()),
    st.builds(ThetaXi, angle, angle),
    st.lists(angle, min_size=1, max_size=4).map(
        lambda phases: AlphaDiagonal(tuple(cmath.exp(1j * t) for t in phases))
    ),
)


@given(st.dictionaries(st.integers(-3, 3), huge, max_size=5),
       st.sampled_from([-3, -2, -1, 1, 2, 3]), diagonal_families, st.integers(8, 16))
def test_huge_coefficients_never_pass(coeffs, m, family, degree):
    # phi_m dominates every other coefficient and phi_{-m} is 0, so no
    # diagonal conjugation makes the symbol symmetric: every criterion
    # fails, or the run refuses overflowed arithmetic
    big = max([abs(v) for v in coeffs.values()] + [1.0])
    phi = LaurentSymbol({**coeffs, m: complex(big), -m: 0j})
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            verdicts = run_all(phi, materialize(family, degree)).criterion_verdicts()
    except ConjtoepError as exc:
        assert not isinstance(exc, CriterionDisagreement)
    else:
        assert PASS not in verdicts.values()


@st.composite
def diagonal_boxes(draw):
    """A box of at most 64 modes and a diagonal whose moduli are 0 or in
    [0.1, 1], so the shift weights are not unimodular and may vanish."""
    degrees = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    box = BoxTruncation(degrees)
    modulus = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
    moduli = draw(st.lists(modulus, min_size=box.size, max_size=box.size))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=box.size, max_size=box.size))
    diag = np.array([r * cmath.exp(1j * p) for r, p in zip(moduli, phases)])
    return box, Conjugation(diag, box.size - 1, 0)


@given(diagonal_boxes())
def test_doubly_commuting_matches_dense_oracle(instance):
    box, conj = instance
    got = doubly_commuting_residual(conj, box)
    want = doubly_commuting_dense(conj.coeff, box.degrees)
    assert got["wandering_dim"] == want["wandering_dim"]
    for key in ("commute", "star_commute"):
        assert got[key] == pytest.approx(want[key], abs=1e-12)
