"""Property tests of the symbol parsers (exact JSON round trips of finite
coefficients, refusal of non-finite ones on construction) and of the CLI's
exit codes over malformed JSON specs."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjtoep.cli import main
from conjtoep.core import ConjtoepError
from conjtoep.finite import FiniteToeplitz
from conjtoep.hardy import LaurentSymbol
from conjtoep.polydisc import PolySymbol

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


@settings(max_examples=200)
@given(invocations())
def test_cli_exit_code_is_total_over_malformed_specs(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 64, 65), (code, argv, err.getvalue())
