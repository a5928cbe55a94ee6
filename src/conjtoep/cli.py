"""Command-line front end: parse job specs, run checks, emit JSON reports.

Exit codes: 0 all criteria pass, 1 fail, 2 inconclusive, 3 internal
criterion disagreement (a library defect), 64 malformed input or command-line
usage error (unknown flag, missing or badly typed argument), 65 invariant
violation, 70 unexpected error, 74 the report could not be written (a
closed stdout pipe or an unwritable ``--out`` path).  Code 3 is reserved
exclusively for mathematical-equivalence violations so CI can tell library
bugs from bad inputs.  Every command builds its input objects in one parse
step, and only a shape error there counts as malformed input; the same
exception raised later is unexpected; a boolean, string or null where a
number belongs, or a non-integer size, is an invariant violation.  Each
command returns its report and verdict, which :func:`main` alone writes and
maps to the exit code.

An in-process :func:`main` builds one parser per process, on its first call,
and only reads it afterwards: each call fills a fresh namespace with its own
defaults, so one call's flags never reach the next, and concurrent calls may
share it (two first calls that race may each build one; one is kept).  Each
command's ``func`` is bound when that parser is built, so patching a
``_cmd_*`` function after the first call has no effect.  :func:`build_parser`
returns a fresh parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache

import numpy as np

from .composition import CompositionParams, TrigpolyGrid, scan_trigpoly_theorem
from .conjugation import materialize, parse_family_spec, validate_conjugation
from .core import ConjtoepError, Tolerance, require_number, require_pair
from .finite import FiniteToeplitz, finite_symmetry_criterion, general_symmetry, toeplitz_conjugation
from .hardy import LaurentSymbol
from .polydisc import BoxTruncation, PolySymbol, check_poly_criterion, poly_check_definition
from .symmetry import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckConfig,
    CriterionDisagreement,
    _make_plan,
    _xy,
    run_all,
)

__all__ = ["main", "build_parser"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_DISAGREEMENT = 3
EXIT_BAD_INPUT = 64
EXIT_INVARIANT = 65
EXIT_UNEXPECTED = 70
EXIT_IOERR = 74


class _InputError(Exception):
    pass


class _ReportError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as bad input rather than exiting 2, the code of
    an inconclusive verdict."""

    def error(self, message):
        raise _InputError(message)


def _load_json_arg(raw: str) -> dict:
    """Parse an inline JSON object or, with a leading @, a JSON file."""
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise _InputError(f"cannot read {raw[1:]!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _InputError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _InputError("expected a JSON object")
    return data


@contextmanager
def _parsing():
    """The parse step: a shape error while building input objects is bad input."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise _InputError(f"malformed input: {type(exc).__name__}: {exc}") from exc


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[v.real, v.imag] for v in row] for row in m]


def _tolerance(args) -> Tolerance:
    return Tolerance(absolute=args.tol_abs, relative=args.tol_rel)


def _emit(payload: dict, args) -> None:
    if args.format == "pretty":
        text = _pretty(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # so that flushing stdout at exit meets devnull, not the closed pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _ReportError(f"cannot write the report: {exc}") from exc


def _pretty(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_pretty(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _exit_from_overall(overall: str) -> int:
    return {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}[overall]


def _one_variable_inputs(args):
    """The parse step of ``check`` and ``xy``: symbol, conjugation, config."""
    with _parsing():
        phi = LaurentSymbol.from_json_dict(_load_json_arg(args.symbol))
        family = parse_family_spec(_load_json_arg(args.conj))
        config = CheckConfig(degree=args.degree, window=args.window, tolerance=_tolerance(args))
    return phi, materialize(family, args.degree), config


def _cmd_check(args) -> tuple[dict, str]:
    phi, conj, config = _one_variable_inputs(args)
    report = run_all(phi, conj, config)
    payload = report.to_json_dict()
    payload["config"] = {"degree": config.degree, "window": payload["window"][0], "tolerance": payload["tolerance"]}
    return payload, report.overall()


def _cmd_factor(args) -> tuple[dict, str]:
    with _parsing():
        family = parse_family_spec(_load_json_arg(args.conj))
        tol = _tolerance(args)
    conj = materialize(family, args.degree)
    residuals, window, tail_bound = validate_conjugation(conj, tol)
    payload = {
        # U = A, the coefficient matrix of C = U J
        "unitary": _matrix_to_json(conj.coeff),
        "residuals": residuals,
        "window": [window, window],
        "tail_bound": tail_bound,
        "config": {"degree": args.degree, "tolerance": asdict(tol)},
    }
    return payload, PASS


def _cmd_xy(args) -> tuple[dict, str]:
    phi, conj, config = _one_variable_inputs(args)
    plan = _make_plan(phi, conj, config)
    outcome = _xy(plan)
    x, y = plan.xy
    systems = [
        {"k": k, "X": _matrix_to_json(x[k]), "Y": _matrix_to_json(y[k]), "residual": residual}
        for k, residual in enumerate(outcome.details["per_k"])
    ]
    payload = {
        "verdict": outcome.verdict,
        "residual": outcome.residual,
        "systems": systems,
        "config": {"degree": config.degree, "window": plan.window, "trunc": outcome.details["trunc"],
                   "tolerance": asdict(config.tolerance)},
    }
    return payload, outcome.verdict


def _cmd_check_poly(args) -> tuple[dict, str]:
    with _parsing():
        phi = PolySymbol.from_json_dict(_load_json_arg(args.symbol))
        conj_data = _load_json_arg(args.conj)
        if conj_data.get("family") != "poly_theta_xi":
            raise _InputError('check-poly expects {"family": "poly_theta_xi", "theta": [...], "xi": [...]}')
        theta = [require_number(t, "theta") for t in conj_data["theta"]]
        xi = [require_number(x, "xi") for x in conj_data["xi"]]
        box = BoxTruncation(tuple(int(part) for part in args.box.split(",")))
        tol = _tolerance(args)
    coeff_verdict, coeff_residual = check_poly_criterion(phi, theta, tol)
    definition = poly_check_definition(phi, theta, xi, box, tol=tol)
    payload = {
        "verdicts": {"coefficient": coeff_verdict, "definition": definition.verdict},
        "residuals": {"coefficient": coeff_residual, "definition": definition.residual},
        "tilde_mismatch": definition.tilde_mismatch,
        "window": list(definition.window),
        "config": {"box": list(box.degrees), "tolerance": asdict(tol)},
    }
    return payload, PASS if coeff_verdict == definition.verdict == PASS else FAIL


def _cmd_check_finite(args) -> tuple[dict, str]:
    with _parsing():
        t = FiniteToeplitz.from_json_dict(_load_json_arg(args.symbol))
        conj_data = _load_json_arg(args.conj)
        family = None if conj_data.get("family") == "toeplitz" else parse_family_spec(conj_data)
    n = t.size_minus_one
    conj = toeplitz_conjugation(n) if family is None else materialize(family, n)
    ok, residual = finite_symmetry_criterion(t, conj)
    ok_general, residual_general = general_symmetry(t.matrix(), conj)
    payload = {
        "verdicts": {"coefficient": PASS if ok else FAIL, "general": PASS if ok_general else FAIL},
        "residuals": {"coefficient": residual, "general": residual_general},
        "config": {"N": n},
    }
    return payload, PASS if ok and ok_general else FAIL


def _cmd_scan_trigpoly(args) -> tuple[dict, str]:
    with _parsing():
        if args.alpha.startswith(("@", "{")):
            alpha = require_pair(_load_json_arg(args.alpha)["alpha"], "alpha")
        else:
            # re or re,im: complex() refuses a third part as malformed input
            alpha = complex(*map(float, args.alpha.split(",")))
        params = CompositionParams(alpha)
        grid = TrigpolyGrid.real_grid(points=args.grid_points, lo=args.grid_lo, hi=args.grid_hi)
        tol = _tolerance(args)
    report = scan_trigpoly_theorem(params, grid, tol, degree=args.degree)
    payload = {
        "alpha": [alpha.real, alpha.imag],
        "total_points": report.total_points,
        "locus_points": report.locus_points,
        "passing": [[[c.real, c.imag] for c in point] for point in report.passing],
        "theorem_reproduced": report.theorem_reproduced,
        "config": {"degree": args.degree, "grid_points": args.grid_points, "grid_lo": args.grid_lo,
                   "grid_hi": args.grid_hi, "tolerance": asdict(tol)},
    }
    return payload, PASS if report.theorem_reproduced else FAIL


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for every command; :func:`main` builds one per process."""
    parser = _Parser(
        prog="conjtoep",
        description="Decide complex symmetry of (truncated) Toeplitz operators "
        "against a conjugation via mutually verifying criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(*specs):
        group = argparse.ArgumentParser(add_help=False)
        for name, options in specs:
            group.add_argument(name, **options)
        return group

    symbol = flags(("--symbol", {"required": True, "help": "symbol JSON or @file"}))
    conj = flags(("--conj", {"required": True, "help": "conjugation family JSON or @file"}))
    degree = flags(("--degree", {"type": int, "default": CheckConfig.degree, "help": "default %(default)s"}))
    box = flags(("--box", {"required": True, "help": "per-axis degrees N1,N2,..."}))
    tolerance = flags(
        ("--tol-abs", {"type": float, "default": 1e-12}),
        ("--tol-rel", {"type": float, "default": 1e-10}),
    )
    window = flags(("--window", {"type": int}))
    output = flags(
        ("--out", {"help": "write the report to this path"}),
        ("--format", {"choices": ["json", "pretty"], "default": "json"}),
    )

    def command(name, func, help_text, groups):
        p = sub.add_parser(name, help=help_text, parents=[*groups, output])
        p.set_defaults(func=func)
        return p

    command("check", _cmd_check, "run the full one-variable criterion suite",
            [symbol, conj, degree, tolerance, window])
    command("check-poly", _cmd_check_poly, "polydisc coefficient and definition checks",
            [symbol, conj, box, tolerance])
    command("check-finite", _cmd_check_finite, "exact finite-dimensional checks", [symbol, conj])
    command("factor", _cmd_factor, "canonical factorization C = U J with residuals",
            [conj, degree, tolerance])
    command("xy", _cmd_xy, "emit the truncated X(k)/Y(k) systems and residuals",
            [symbol, conj, degree, tolerance, window])
    p_scan = command("scan-trigpoly", _cmd_scan_trigpoly, "grid scan of band-1 symbols for one alpha",
                     [tolerance])
    p_scan.add_argument("--alpha", required=True, help="re,im or JSON {\"alpha\": [re, im]}")
    p_scan.add_argument("--grid-points", type=int, default=21)
    p_scan.add_argument("--grid-lo", type=float, default=-1.0)
    p_scan.add_argument("--grid-hi", type=float, default=1.0)
    p_scan.add_argument("--degree", type=int, default=24)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built on first use rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # decide and require_matrix refuse every non-finite value, so numpy's
        # own warnings about producing one would only repeat the error line
        with np.errstate(over="ignore", invalid="ignore"):
            payload, verdict = args.func(args)
        _emit(payload, args)
        return _exit_from_overall(verdict)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except _ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IOERR
    except CriterionDisagreement as exc:
        print(f"internal criterion disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except ConjtoepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
