"""Property tests of the symbol parsers: exact JSON round trips of finite
coefficients and refusal of non-finite ones on construction."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
