import numpy as np
import pytest

from conjtoep.core import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    ConjtoepError,
    Tolerance,
    WindowError,
    decide,
    is_unitary_on_window,
    require_matrix,
)
from conjtoep.conjugation import is_conjugation
from conjtoep.hardy import is_toeplitz

from oracles import random_symmetric_unitary, random_unitary, traced_peak


@pytest.mark.parametrize("check", [is_unitary_on_window, is_conjugation, is_toeplitz])
def test_windows_that_do_not_fit_are_refused(check):
    a = np.eye(2, dtype=complex)
    assert check(a, 1)[0]
    with pytest.raises(WindowError, match="window exceeds matrix"):
        check(a, 2)
    with pytest.raises(WindowError, match="nonnegative"):
        check(a, -1)


def test_matrix_validation_rejects_nonfinite():
    bad = np.array([[np.inf, 0], [0, 1]], dtype=complex)
    with pytest.raises(ConjtoepError):
        require_matrix(bad)


def test_unitary_identity():
    ok, residual = is_unitary_on_window(np.eye(4, dtype=complex), 3)
    assert ok and residual == 0.0


def test_unitary_diagonal_phases():
    phases = np.exp(1j * np.linspace(-2, 2, 6))
    ok, residual = is_unitary_on_window(np.diag(phases), 5)
    assert ok and residual < 1e-14


def test_unitary_rejects_shrunk_diagonal():
    d = np.diag([1.0, 0.5, 1.0]).astype(complex)
    ok, residual = is_unitary_on_window(d, 2)
    assert not ok
    assert residual >= 0.75  # |0.25 - 1| at the defective diagonal position


def test_unitary_requires_square():
    with pytest.raises(ConjtoepError):
        is_unitary_on_window(np.ones((2, 3), dtype=complex), 1)


def test_unitary_window_reads_only_its_rows():
    # a 2001 x 2001 Gram matrix alone would take 61 MiB
    a = np.zeros((2001, 2001), dtype=complex)
    a[np.arange(2001), np.arange(2001)[::-1]] = 1j
    a.setflags(write=False)
    (ok, residual), peak = traced_peak(lambda: is_unitary_on_window(a, 8))
    assert ok and residual == 0.0
    assert peak < 2**20


def test_unitary_verdict_agrees_with_transpose_on_symmetric_window():
    rng = np.random.default_rng(5)
    for n in [3, 5]:
        for candidate in [random_unitary(n, rng), rng.standard_normal((n, n)) + 0j]:
            w = n - 1
            ok_a, _ = is_unitary_on_window(candidate, w)
            ok_t, _ = is_unitary_on_window(candidate.T, w)
            assert ok_a == ok_t


def test_tolerance_validation():
    with pytest.raises(ConjtoepError):
        Tolerance(absolute=0.0, relative=0.0)
    with pytest.raises(ConjtoepError):
        Tolerance(absolute=-1.0)


def test_random_symmetric_unitary_is_symmetric_unitary():
    rng = np.random.default_rng(9)
    for n in [2, 5, 8]:
        a = random_symmetric_unitary(n, rng)
        assert np.max(np.abs(a - a.T)) < 1e-12
        ok, residual = is_unitary_on_window(a, n - 1)
        assert ok and residual < 1e-12


@pytest.mark.parametrize(
    "residual, tail, verdict",
    [
        # a tail within the threshold widens it
        (1.4, 0.5, PASS),
        (1.6, 0.5, FAIL),
        # a tail above it leaves the band between threshold and threshold + tail open
        (0.5, 2.0, PASS),
        (2.0, 2.0, INCONCLUSIVE),
        (3.5, 2.0, FAIL),
    ],
)
def test_decide_outcomes(residual, tail, verdict):
    assert decide(residual, 1.0, tail) == verdict


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", range(3))
def test_decide_refuses_non_finite_input(bad, position):
    args = [0.5, 1.0, 0.0]
    args[position] = bad
    with pytest.raises(ConjtoepError, match="non-finite"):
        decide(*args)
