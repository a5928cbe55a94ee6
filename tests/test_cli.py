import argparse
import importlib
import json
import keyword
import math
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import conjtoep
import conjtoep.cli as cli
import conjtoep.composition as composition
import conjtoep.conjugation as conjugation
import conjtoep.symmetry as symmetry
from conjtoep.cli import (
    EXIT_BAD_INPUT,
    EXIT_DISAGREEMENT,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INVARIANT,
    EXIT_IOERR,
    EXIT_PASS,
    EXIT_UNEXPECTED,
    build_parser,
    main,
)
from conjtoep.composition import CompositionParams, composition_matrix
from conjtoep.conjugation import (
    AlphaDiagonal,
    Composition,
    Conjugation,
    NotConjugationError,
    ThetaXi,
    canonical_factorization,
    family_spec_to_dict,
    materialize,
)
from conjtoep.core import Tolerance
from conjtoep.hardy import LaurentSymbol
from conjtoep.symmetry import CheckConfig, CriterionDisagreement, CriterionResult, run_all

from oracles import xy_matrices

Z_MINUS_ZBAR = '{"coeffs": {"1": [1, 0], "-1": [-1, 0]}}'
Z_PLUS_ZBAR = '{"coeffs": {"1": [1, 0], "-1": [1, 0]}}'
THETA_PI = '{"family": "theta_xi", "theta": 3.141592653589793, "xi": 0}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_check_twisted_symbol_passes(capsys):
    code, payload = run(capsys, "check", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI)
    assert code == EXIT_PASS
    assert set(payload["verdicts"].values()) == {"pass"}


def test_check_untwisted_conjugation_fails(capsys):
    code, payload = run(
        capsys, "check", "--symbol", Z_MINUS_ZBAR, "--conj", '{"family": "theta_xi", "theta": 0, "xi": 0}'
    )
    assert code == EXIT_FAIL
    assert payload["verdicts"]["definition"] == "fail"


def test_check_constant_with_composition(capsys):
    code, payload = run(
        capsys,
        "check",
        "--symbol",
        '{"coeffs": {"0": [2, 1]}}',
        "--conj",
        '{"family": "composition", "alpha": [0.4, 0.1]}',
    )
    assert code == EXIT_PASS
    assert payload["work_degree"] >= payload["degree"]


def test_check_exits_2_when_padding_is_capped(capsys, monkeypatch):
    # as in test_run_all_inconclusive_when_padding_is_capped: the windowed
    # products cannot certify below the tail left at the capped degree
    monkeypatch.setattr(composition, "PAD_LIMIT", 48)
    conj = '{"family": "composition", "alpha": [0.6, 0]}'
    code, payload = run(capsys, "check", "--symbol", '{"coeffs": {"0": [5, 0]}}', "--conj", conj)
    assert code == EXIT_INCONCLUSIVE
    assert payload["verdicts"]["definition"] == "inconclusive"
    assert payload["verdicts"]["coefficient_equations"] == "pass"


def test_factor_canonical(capsys):
    code, payload = run(capsys, "factor", "--conj", '{"family": "canonical_j"}', "--degree", "4")
    assert code == EXIT_PASS
    assert payload["residuals"] == {"symmetry": 0.0, "unitarity": 0.0}


def test_factor_quarter_turn_diagonal(capsys):
    code, payload = run(
        capsys,
        "factor",
        "--conj",
        '{"family": "theta_xi", "theta": 1.5707963267948966, "xi": 0}',
        "--degree",
        "3",
    )
    assert code == EXIT_PASS
    diag = [payload["unitary"][k][k] for k in range(4)]
    expected = [(1, 0), (0, -1), (-1, 0), (0, 1)]
    for (re, im), (ere, eim) in zip(diag, expected):
        assert re == pytest.approx(ere, abs=1e-12)
        assert im == pytest.approx(eim, abs=1e-12)


def test_factor_composition_reports_tail(capsys):
    code, payload = run(
        capsys, "factor", "--conj", '{"family": "composition", "alpha": [0.5, 0]}', "--degree", "16"
    )
    assert code == EXIT_PASS
    assert payload["residuals"]["symmetry"] <= 1e-12
    assert payload["residuals"]["unitarity"] <= 1e-10 + payload["tail_bound"]
    assert payload["tail_bound"] > 0


def test_factor_refuses_a_composition_with_a_shrunk_column(capsys, monkeypatch):
    # symmetric and a contraction, but row and column 3 are not unit vectors:
    # a defect of 2.8e-6 against a certified slack far below the threshold
    real = conjugation.composition_matrix

    def shrunk(params, degree, cols=None):
        m = real(params, degree, cols)
        m[3, :] *= 1 - 1e-6
        m[:, 3] *= 1 - 1e-6
        return m

    monkeypatch.setattr(conjugation, "composition_matrix", shrunk)
    with pytest.raises(NotConjugationError, match="not a conjugation"):
        canonical_factorization(materialize(Composition(0.5), 200))
    code = main(["factor", "--conj", '{"family": "composition", "alpha": [0.5, 0]}', "--degree", "200"])
    assert code == EXIT_INVARIANT
    assert "not a conjugation" in capsys.readouterr().err


def test_xy_constant_symbol(capsys):
    code, payload = run(
        capsys, "xy", "--symbol", '{"coeffs": {"0": [7, 0]}}', "--conj", THETA_PI
    )
    assert code == EXIT_PASS
    assert all(system["residual"] == 0 for system in payload["systems"])


def test_xy_twisted_pass_and_untwisted_fail(capsys):
    code, payload = run(capsys, "xy", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI, "--window", "8")
    assert code == EXIT_PASS
    assert all(system["residual"] <= 1e-12 for system in payload["systems"])

    code, payload = run(capsys, "xy", "--symbol", Z_PLUS_ZBAR, "--conj", THETA_PI)
    assert code == EXIT_FAIL
    assert payload["systems"][0]["residual"] == pytest.approx(2.0, abs=1e-12)


def test_xy_prints_the_systems_behind_its_verdict(capsys):
    # a dense conjugation checks X/Y on its padded matrix, so the printed
    # systems must be those, not ones rebuilt at the requested degree
    code, payload = run(
        capsys, "xy", "--symbol", Z_PLUS_ZBAR, "--conj", '{"family": "composition", "alpha": [0.5, 0]}',
        "--degree", "8", "--window", "8",
    )
    assert code == EXIT_FAIL
    plus, minus = np.array([1.0]), np.array([1.0])
    for system in payload["systems"]:
        x, y = (np.array(system[name]) @ [1, 1j] for name in ("X", "Y"))
        assert x.shape == y.shape == (9, 1)
        assert abs(np.linalg.norm(x @ plus - y @ minus) - system["residual"]) <= 1e-12
    assert payload["residual"] == np.linalg.norm([system["residual"] for system in payload["systems"]])


def test_xy_systems_equal_build_xy_for_banded_conjugations(capsys):
    # the printed systems equal the entry-by-entry X/Y oracle on the
    # conjugation's matrix, or a composition's padded block at work degree
    cases = [
        (LaurentSymbol({-2: 1, 1: 1j, 2: 0.5}), AlphaDiagonal((1, 1j, -1j), period=2)),
        (LaurentSymbol({-1: 0.5, 0: 1.0, 1: 0.25}), Composition(0.6j)),
    ]
    for phi, spec in cases:
        conj = materialize(spec, 12)
        code, payload = run(
            capsys, "xy", "--symbol", phi.to_json(), "--conj", json.dumps(family_spec_to_dict(spec)), "--degree", "12",
        )
        assert code == EXIT_FAIL
        window = payload["config"]["window"]
        assert [system["k"] for system in payload["systems"]] == list(range(window + 1))
        plan = symmetry._make_plan(phi, conj, CheckConfig(degree=12))
        if conj.band is None:
            assert plan.work_degree > 12
            a = composition_matrix(CompositionParams(spec.alpha), plan.work_degree)
        else:
            a = conj.coeff
        for system in payload["systems"]:
            x, y = xy_matrices(a, system["k"], max(phi.band, 1), window)
            np.testing.assert_array_equal(np.array(system["X"]) @ [1, 1j], x)
            np.testing.assert_array_equal(np.array(system["Y"]) @ [1, 1j], y)


# a band-1 conjugation: C z^0 = i z^1
BAND_ONE_BASIS = json.dumps(
    {"family": "basis", "columns": [[[0.5**0.5, 0], [0, 0.5**0.5]], [[0, 0.5**0.5], [0.5**0.5, 0]]]}
)


@pytest.mark.parametrize("command", ["check", "xy"])
def test_window_beyond_the_shift_filter_is_refused(capsys, command):
    # a constant symbol reaches 2 * 1 + max(0, 1) = 3 indices past the
    # window, so degree 8 allows window 5 at most
    argv = [command, "--symbol", '{"coeffs": {"0": [1, 0]}}', "--conj", BAND_ONE_BASIS, "--degree", "8"]
    assert main([*argv, "--window", "6"]) == EXIT_INVARIANT
    assert capsys.readouterr().err == "error: exactness window violated\n"
    code, payload = run(capsys, *argv)
    assert code == EXIT_PASS
    assert payload["config"]["window"] == 5


def test_a_window_below_the_band_blames_the_window(capsys):
    conj = ["--conj", '{"family": "composition", "alpha": [0.5, 0]}']
    # the default dense window at degree 3, min(8, 3 - 1 - 2) = 0, is below the band
    for args, message in [(['{"coeffs": {"0": [1, 0]}}', "--window", "-1"], "window -1 is below the symbol band 0"),
                          ([Z_PLUS_ZBAR, "--window", "0"], "window 0 is below the symbol band 1"),
                          ([Z_PLUS_ZBAR, "--degree", "3"], "degree too small for the requested band")]:
        assert main(["check", *conj, "--symbol", *args]) == EXIT_INVARIANT
        assert capsys.readouterr().err == f"error: {message}\n"


class _ClosedPipe:
    """A stdout whose reader has gone away; its descriptor is a real file."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_74(capsys, monkeypatch, tmp_path):
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(fd))
        code = main(["xy", "--symbol", Z_PLUS_ZBAR, "--conj", THETA_PI, "--degree", "32"])
        # the descriptor now leads to devnull, so the flush at exit cannot fail
        os.write(fd, b"discarded")
    finally:
        os.close(fd)
    assert code == EXIT_IOERR
    assert capsys.readouterr().err == "error: cannot write the report: [Errno 32] Broken pipe\n"
    assert path.read_bytes() == b""


def test_unwritable_out_path_exits_74(capsys, tmp_path):
    out = tmp_path / "missing" / "r.json"
    code = main(["check", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI, "--out", str(out)])
    assert code == EXIT_IOERR
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report:") and err.count("\n") == 1
    assert not out.parent.exists()


def test_check_poly(capsys):
    code, payload = run(
        capsys,
        "check-poly",
        "--symbol",
        '{"d": 2, "coeffs": {"1,0": [1, 0], "-1,0": [-1, 0]}}',
        "--conj",
        '{"family": "poly_theta_xi", "theta": [3.141592653589793, 0], "xi": [0, 0]}',
        "--box",
        "5,5",
    )
    assert code == EXIT_PASS
    assert payload["verdicts"] == {"coefficient": "pass", "definition": "pass"}


@pytest.mark.parametrize("phases", ['"theta": [1.0, NaN], "xi": [0, 0]', '"theta": [0, 0], "xi": [Infinity, 0]'])
def test_check_poly_refuses_non_finite_phases(capsys, phases):
    code = main(
        ["check-poly", "--symbol", '{"d": 2, "coeffs": {"1,0": [1, 0], "-1,0": [-1, 0]}}',
         "--conj", '{"family": "poly_theta_xi", %s}' % phases, "--box", "2,2"]
    )
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_finite(capsys):
    code, payload = run(
        capsys,
        "check-finite",
        "--symbol",
        '{"N": 3, "a": {"1": [1, 0], "-1": [0, 0.5], "0": [2, 0]}}',
        "--conj",
        '{"family": "toeplitz"}',
    )
    assert code == EXIT_PASS
    code, payload = run(
        capsys,
        "check-finite",
        "--symbol",
        '{"N": 3, "a": {"1": [1, 0]}}',
        "--conj",
        '{"family": "canonical_j"}',
    )
    assert code == EXIT_FAIL


def test_check_finite_non_integer_size_exits_65(capsys):
    for size in ("2.7", "true", '"3"'):
        code = main([
            "check-finite", "--symbol", '{"N": %s, "a": {"1": [1, 0]}}' % size,
            "--conj", '{"family": "toeplitz"}',
        ])
        assert code == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "N must be an integer" in captured.err


def test_check_poly_non_integer_dimension_exits_65(capsys):
    for d in ("2.7", "2.0", "true", '"2"', "null"):
        code = main([
            "check-poly", "--symbol", '{"d": %s, "coeffs": {"1,0": [1, 0]}}' % d,
            "--conj", '{"family": "poly_theta_xi", "theta": [0, 0], "xi": [0, 0]}', "--box", "2,2",
        ])
        assert code == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "d must be an integer" in captured.err


POLY_SYMBOL = '{"d": 2, "coeffs": {"1,0": [1, 0], "-1,0": [-1, 0]}}'
ALPHA_DIAG = '{"family": "alpha_diag", "alphas": [[0, 1], [1, 0]], "period": %s}'


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--symbol", Z_MINUS_ZBAR,
         "--conj", '{"family": "theta_xi", "theta": "3.141592653589793", "xi": false}'],
        ["check-poly", "--symbol", POLY_SYMBOL, "--box", "2,2",
         "--conj", '{"family": "poly_theta_xi", "theta": ["3.141592653589793", true], "xi": [0, 0]}'],
        ["check", "--symbol", '{"coeffs": {"0": [true, 0]}}', "--conj", THETA_PI],
        ["check-finite", "--symbol", '{"N": 2, "a": {"0": [true, 0]}}', "--conj", '{"family": "toeplitz"}'],
        ["check", "--symbol", Z_MINUS_ZBAR, "--conj", ALPHA_DIAG % "1.5"],
        ["check", "--symbol", Z_MINUS_ZBAR, "--conj", ALPHA_DIAG % "true"],
        ["factor", "--conj", '{"family": "composition", "alpha": [0.5, null]}'],
        ["scan-trigpoly", "--alpha", '{"alpha": ["0.5", 0]}'],
    ],
    ids=["theta_xi string and boolean", "poly phases", "check coefficient", "finite coefficient",
         "period 1.5", "period true", "composition alpha", "scan alpha"],
)
def test_non_numbers_where_numbers_belong_exit_65(capsys, argv):
    # never coerced into a phase, coefficient or period, nor left to crash
    assert main(argv) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert " must be a" in captured.err


def test_scan_trigpoly_small(capsys):
    code, payload = run(
        capsys,
        "scan-trigpoly",
        "--alpha",
        "0.5",
        "--grid-points",
        "3",
        "--degree",
        "16",
    )
    assert code == EXIT_PASS
    assert payload["theorem_reproduced"]


def test_scan_trigpoly_even_grid_exits_0(capsys):
    code, payload = run(capsys, "scan-trigpoly", "--alpha", "0.5", "--grid-points", "4", "--degree", "12")
    assert code == EXIT_PASS
    assert payload["theorem_reproduced"] and payload["passing"] == []


def test_scan_trigpoly_alpha_takes_at_most_two_parts(capsys):
    for alpha in ("0.5,0.1,9", '{"alpha": [0.5, 0.1, 9]}'):
        assert main(["scan-trigpoly", "--alpha", alpha, "--grid-points", "3"]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_reports_embed_the_flags_that_decide_them(capsys):
    tolerance = {"absolute": 2e-12, "relative": 3e-10}
    flags = ["--tol-abs", "2e-12", "--tol-rel", "3e-10"]
    code, payload = run(
        capsys, "scan-trigpoly", "--alpha", "0.5", "--grid-points", "3", "--grid-lo", "-0.5", "--grid-hi", "0.5",
        "--degree", "12", *flags,
    )
    assert code == EXIT_PASS
    assert payload["config"] == {
        "degree": 12, "grid_points": 3, "grid_lo": -0.5, "grid_hi": 0.5, "tolerance": tolerance
    }
    code, payload = run(capsys, "xy", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI, "--degree", "8", *flags)
    assert code == EXIT_PASS
    assert payload["config"]["tolerance"] == tolerance


def test_check_finite_refuses_a_dense_conjugation(capsys):
    code = main([
        "check-finite", "--symbol", '{"N": 2, "a": {"0": [1, 0]}}',
        "--conj", '{"family": "composition", "alpha": [0.5, 0]}',
    ])
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "truncated dense conjugation" in err


def test_malformed_json_exits_64(capsys):
    code = main(["check", "--symbol", '{"coeffs": {', "--conj", THETA_PI])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "malformed JSON" in err


def test_missing_field_exits_64(capsys):
    code = main(["check", "--symbol", '{"wrong": 1}', "--conj", THETA_PI])
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "symbol, conj",
    [
        ('{"coeffs": []}', '{"family": "canonical_j"}'),
        ('{"coeffs": {"1": [1, 0]}}', '{"family": "basis", "columns": []}'),
    ],
)
def test_malformed_shape_exits_64(capsys, symbol, conj):
    code = main(["check", "--symbol", symbol, "--conj", conj])
    assert code == EXIT_BAD_INPUT
    assert "malformed input" in capsys.readouterr().err


def test_error_after_parsing_exits_70(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("library defect")

    monkeypatch.setattr(cli, "run_all", broken)
    code = main(["check", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI])
    assert code == EXIT_UNEXPECTED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "library defect" in err


def test_empty_scan_grid_exits_65(capsys):
    for points in ("0", "-1"):
        code = main(["scan-trigpoly", "--alpha", "0.5", "--grid-points", points])
        assert code == EXIT_INVARIANT
        assert "empty" in capsys.readouterr().err


SPEC_ARGS = {
    "check": ["--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI],
    "check-poly": [
        "--symbol",
        '{"d": 1, "coeffs": {"1": [1, 0]}}',
        "--conj",
        '{"family": "poly_theta_xi", "theta": [0], "xi": [0]}',
        "--box",
        "3",
    ],
    "check-finite": ["--symbol", '{"N": 2, "a": {"1": [1, 0]}}', "--conj", '{"family": "toeplitz"}'],
    "factor": ["--conj", THETA_PI],
    "xy": ["--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI],
}
FLAG_VALUES = {
    "--degree": "8",
    "--box": "2,2",
    "--tol-abs": "0.5",
    "--tol-rel": "0.5",
    "--window": "1",
}
UNREAD_FLAGS = [
    ("check", "--box"),
    ("check-poly", "--degree"),
    ("check-poly", "--window"),
    ("check-finite", "--degree"),
    ("check-finite", "--box"),
    ("check-finite", "--tol-abs"),
    ("check-finite", "--tol-rel"),
    ("check-finite", "--window"),
    ("factor", "--box"),
    ("factor", "--window"),
    ("xy", "--box"),
]


@pytest.mark.parametrize(
    "argv",
    [[cmd, *SPEC_ARGS[cmd], flag, FLAG_VALUES[flag]] for cmd, flag in UNREAD_FLAGS]
    + [
        ["check", *SPEC_ARGS["check"], "--no-such-flag"],
        ["check", "--symbol", Z_MINUS_ZBAR],
        ["check", *SPEC_ARGS["check"], "--degree", "x"],
    ],
    ids=[f"{cmd} {flag}" for cmd, flag in UNREAD_FLAGS] + ["unknown flag", "missing conj", "bad degree"],
)
def test_usage_errors_exit_64(capsys, argv):
    # a command accepts only the flags it reads, and usage errors are bad
    # input, never the inconclusive code 2
    assert main(argv) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


READ_FLAGS = {
    "check": ["--degree", "--tol-abs", "--tol-rel", "--window"],
    "check-poly": ["--tol-abs", "--tol-rel"],
    "check-finite": [],
    "factor": ["--degree", "--tol-abs", "--tol-rel"],
    "xy": ["--degree", "--tol-abs", "--tol-rel", "--window"],
}


def test_flags_read_by_each_command_are_accepted(capsys):
    for cmd, args in SPEC_ARGS.items():
        unread = {flag for c, flag in UNREAD_FLAGS if c == cmd}
        read = set(READ_FLAGS[cmd]) | ({"--box"} if "--box" in args else set())
        assert read | unread == set(FLAG_VALUES) and not read & unread
        argv = [cmd, *args, "--format", "pretty"]
        for flag in READ_FLAGS[cmd]:
            argv += [flag, FLAG_VALUES[flag]]
        assert main(argv) in (EXIT_PASS, EXIT_FAIL)
        capsys.readouterr()


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {
        match[1]: set(re.findall(r"--[a-z-]+", match[2]))
        for match in re.finditer(r"^\| `([a-z-]+)` \| (.*) \|$", readme, flags=re.MULTILINE)
    }
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings if flag.startswith("--")}
        - {"--out", "--format", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert table == parsed


def test_readme_layout_names_exist():
    # every identifier the layout table names, bar the command `conjtoep`,
    # is a module-level attribute
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `conjtoep\.[a-z]+` \| (.*) \|$", readme, flags=re.MULTILINE)
    names = {
        name
        for row in rows
        for quoted in re.findall(r"`([^`]+)`", row)
        for name in quoted.split("/")
        if name.isidentifier() and not keyword.iskeyword(name)
    } - {"conjtoep"}
    modules = [importlib.import_module(f"conjtoep.{m.name}") for m in pkgutil.iter_modules(conjtoep.__path__)]
    assert len(rows) == len(modules) and "toeplitz_apply" in names
    assert {name for name in names if not any(hasattr(m, name) for m in modules)} == set()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--help"])
    assert info.value.code == 0
    assert "--symbol" in capsys.readouterr().out


def test_non_finite_symbol_exits_65(capsys):
    argv = ["check-poly", *SPEC_ARGS["check-poly"]]
    argv[2] = '{"d": 1, "coeffs": {"1": [NaN, 0]}}'
    code = main(argv)
    assert code == EXIT_INVARIANT
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--symbol", '{"coeffs": {"0": [1, 0]}}', "--conj", '{"family": "composition", "alpha": [NaN, 0]}'],
        ["scan-trigpoly", "--alpha", "nan", "--grid-points", "3"],
    ],
    ids=["check", "scan-trigpoly"],
)
def test_nan_alpha_exits_65(capsys, argv):
    # a NaN alpha lies in no punctured disc; it is refused, not left to crash
    assert main(argv) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "punctured disc" in captured.err


def test_alpha_diag_asymmetry_fails_in_every_criterion(capsys):
    # the phases alpha_k^2 are -1, 1, 1, ...: the symmetry relations hold on
    # rows 0..1 and break from row 2 on, inside the window 0..3 that every
    # criterion checks
    code, payload = run(
        capsys,
        "check",
        "--symbol",
        '{"coeffs": {"1": [1, 0], "-1": [-1, 0], "0": [0.5, 0.25]}}',
        "--conj",
        '{"family": "alpha_diag", "alphas": [[0, 1], [1, 0]], "period": 1}',
        "--degree",
        "4",
    )
    assert code == EXIT_FAIL
    assert set(payload["verdicts"].values()) == {"fail"}
    assert payload["config"]["window"] == payload["window"][0] == 3


def test_overflowing_symbol_exits_65(capsys, recwarn):
    # the l1 norm of two finite 1e308 coefficients overflows; no verdict
    # may come from non-finite arithmetic
    code = main(
        [
            "check",
            "--symbol",
            '{"coeffs": {"0": [1e308, 0], "1": [1e308, 0]}}',
            "--conj",
            '{"family": "theta_xi", "theta": 1, "xi": 0}',
            "--degree",
            "4",
        ]
    )
    assert code == EXIT_INVARIANT
    # numpy's overflow warnings are off: the one error line is all of stderr
    assert capsys.readouterr().err == "error: non-finite residual, threshold or tail bound\n"
    assert not recwarn.list


# symmetric for every conjugation, so a failing X/Y criterion disagrees
CONSTANT = LaurentSymbol({0: 2 + 1j})


def _forced_disagreement(monkeypatch):
    monkeypatch.setattr(symmetry, "_xy", lambda plan: CriterionResult("fail", 1.0))


@pytest.mark.parametrize(
    "family, expected",
    [
        (ThetaXi(math.pi, 0.0), {"family": "theta_xi", "theta": math.pi, "xi": 0.0}),
        (Composition(0.5), {"family": "composition", "alpha": [0.5, 0.0]}),
    ],
)
def test_disagreement_dump_replays_through_the_cli(capsys, monkeypatch, family, expected):
    _forced_disagreement(monkeypatch)
    config = CheckConfig(degree=12, window=5, tolerance=Tolerance(1e-11, 3e-10))
    with pytest.raises(CriterionDisagreement) as info:
        run_all(CONSTANT, family, config)
    dump = info.value.dump
    assert dump["conjugation"] == expected
    assert main(dump["replay"]) == EXIT_DISAGREEMENT
    assert capsys.readouterr().err == f"internal criterion disagreement: {info.value}\n"


def test_disagreement_dump_without_replay(monkeypatch):
    # a conjugation without a family cannot be replayed from the command line
    _forced_disagreement(monkeypatch)
    with pytest.raises(CriterionDisagreement) as info:
        run_all(CONSTANT, Conjugation(np.eye(13), 12, 0))
    assert info.value.dump["conjugation"] == "custom" and "replay" not in info.value.dump


def test_invariant_violation_exits_65(capsys):
    code = main(
        ["check", "--symbol", Z_MINUS_ZBAR, "--conj", '{"family": "composition", "alpha": [1.5, 0]}']
    )
    assert code == EXIT_INVARIANT


def test_report_round_trips_through_schema(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI, "--out", str(out)])
    assert code == EXIT_PASS
    first = json.loads(out.read_text())
    second = json.loads(json.dumps(first))
    assert first == second
    assert set(first["verdicts"]) >= {"definition", "xy_system", "s_toeplitz"}


def test_symbol_from_file_and_env_degree(capsys, tmp_path):
    symbol_file = tmp_path / "symbol.json"
    symbol_file.write_text(Z_MINUS_ZBAR)
    code, payload = run(capsys, "check", "--symbol", f"@{symbol_file}", "--conj", THETA_PI, "--degree", "20")
    assert code == EXIT_PASS
    assert payload["degree"] == 20
    # without --degree, check, xy and factor read CheckConfig's default
    for argv in (["check", "--symbol", Z_MINUS_ZBAR], ["xy", "--symbol", Z_MINUS_ZBAR], ["factor"]):
        assert run(capsys, *argv, "--conj", THETA_PI)[1]["config"]["degree"] == CheckConfig.degree == 32


def test_pretty_format(capsys):
    code = main(["check", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI, "--format", "pretty"])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "verdicts:" in out


def test_exit_codes_are_deterministic(capsys):
    codes = set()
    for _ in range(3):
        codes.add(main(["check", "--symbol", Z_PLUS_ZBAR, "--conj", THETA_PI]))
        capsys.readouterr()
    assert codes == {EXIT_FAIL}


def test_main_builds_one_parser_and_reuses_it(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    check = ["check", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI]
    assert main(check) == EXIT_PASS
    first = capsys.readouterr().out
    assert main(["xy", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI, "--window", "3"]) == EXIT_PASS
    assert main([*check, "--no-such-flag"]) == EXIT_BAD_INPUT
    with pytest.raises(SystemExit) as info:
        main(["check", "--help"])
    assert info.value.code == 0
    bad_alpha = '{"family": "composition", "alpha": [1.5, 0]}'
    assert main(["check", "--symbol", Z_MINUS_ZBAR, "--conj", bad_alpha]) == EXIT_INVARIANT
    with monkeypatch.context() as patched:
        _forced_disagreement(patched)
        constant = ["check", "--symbol", CONSTANT.to_json(), "--conj", THETA_PI]
        assert main(constant) == EXIT_DISAGREEMENT
    capsys.readouterr()
    # nothing an earlier call parsed, such as its --window 3, reaches this one
    assert main(check) == EXIT_PASS
    assert capsys.readouterr().out == first
    assert built == [1]


def test_adding_to_a_built_parser_leaves_main_unchanged(capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands.choices["check"].add_argument("--extra")
    assert main(["check", "--symbol", Z_MINUS_ZBAR, "--conj", THETA_PI, "--extra", "x"]) == EXIT_BAD_INPUT
    assert "--extra" in capsys.readouterr().err
