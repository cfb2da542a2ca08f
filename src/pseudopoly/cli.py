"""Command-line front end.

Subcommands: gen poly|primary|hall, check congruences, transform
forward|inverse, hankel table|verify-invariance|verify-divisibility,
rational detect, theta table, capacity bound|estimate, audit.

Exit codes: 0 success, 1 a checked property failed (violations found),
2 input error, 3 an internal invariant was violated (a bug).
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import formats
from .analytic import Hedgehog, dubinin_bound, estimate_transfinite_diameter
from .audit import AuditConfig, VERDICT_CONGRUENCE_VIOLATION, ruzsa_audit
from .binomial import binomial_transform, inverse_binomial_transform
from .core import ExactSequence, InputError, InternalInvariantError, NumericError
from .hankel import (
    DEFAULT_WINDOW,
    detect_rationality,
    hankel_table,
    max_order,
    verify_transform_invariance,
)
from .sequences import (
    check_congruences,
    eval_polynomial_sequence,
    generate_hall_like,
    generate_primary,
)

OK = 0
PROPERTY_FAILED = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3

# Size guards: larger requests are input errors, not unbounded work.
THETA_N_MAX_LIMIT = 10**6
LEJA_POINTS_LIMIT = 128  # an estimate costs Leja points x candidates; about 1 s at both limits
CANDIDATE_LIMIT = 10**6  # endpoints x discretization points per estimate
CONGRUENCE_TERMS_LIMIT = 500  # terms; --mode full checks and may report N^2/2 pairs
GEN_TERMS_LIMIT = 2000  # --n-max of gen; hall costs about N^3 digit operations
TRANSFORM_TERMS_LIMIT = 1000  # terms; N^2/2 additions of terms up to 4,300 digits
INVARIANCE_TERMS_LIMIT = 500  # terms; about N^2/2 products of a binomial of up to N/2 bits and a term


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_sequence(args) -> ExactSequence:
    return formats.parse_sequence(_read_text(args.input))


def _parse_endpoints(text: str) -> Hedgehog:
    points = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            points.append(complex(piece))
        except ValueError as exc:
            raise InputError(
                f"bad endpoint {piece!r} (use python complex syntax, e.g. 1+2j)"
            ) from exc
    if not points:
        raise InputError("no endpoints given")
    return Hedgehog(tuple(points))


def _input_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--input", default="-", help="sequence file ('-' for stdin)")
    return p


def _add_format(parser, choices, default):
    parser.add_argument("--format", choices=choices, default=default)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections are one ``error:`` line and exit 2,
    as every other input error is; add_subparsers makes each subcommand's
    parser of this class too."""

    def error(self, message):
        self.exit(INPUT_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pseudopoly",
        description="Exact congruence, Hankel determinant and capacity audits "
        "for integer sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seq_in = _input_parent()

    gen = sub.add_parser("gen", help="generate sequences")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    g_poly = gen_sub.add_parser("poly", help="evaluate an integer polynomial")
    g_poly.add_argument(
        "--coeffs",
        required=True,
        help="JSON array of decimal-string coefficients, lowest degree first, "
        "or @path to a file holding one",
    )
    n_max_help = f"number of terms (at most {GEN_TERMS_LIMIT})"
    g_poly.add_argument("--n-max", type=int, required=True, help=n_max_help)
    _add_format(g_poly, ["lines", "json"], "lines")
    g_primary = gen_sub.add_parser(
        "primary", help="primorial-scaled inverse-transform generator"
    )
    g_primary.add_argument("--n-max", type=int, required=True, help=n_max_help)
    g_primary.add_argument("--seed", type=int, default=0)
    g_primary.add_argument(
        "--bound", type=int, default=5, help="coefficients drawn from [-bound, bound]"
    )
    _add_format(g_primary, ["lines", "json"], "lines")
    g_hall = gen_sub.add_parser("hall", help="inductive congruence-preserving generator")
    g_hall.add_argument("--n-max", type=int, required=True, help=n_max_help)
    g_hall.add_argument(
        "--seed",
        type=int,
        default=None,
        help="randomize the perturbation (default: all zeros)",
    )
    g_hall.add_argument("--bound", type=int, default=2)
    _add_format(g_hall, ["lines", "json"], "lines")

    check = sub.add_parser("check", help="congruence checks")
    check_sub = check.add_subparsers(dest="checker", required=True)
    c_cong = check_sub.add_parser(
        "congruences", parents=[seq_in],
        description=f"The sequence may have at most {CONGRUENCE_TERMS_LIMIT} terms.",
    )
    c_cong.add_argument("--mode", choices=["primary", "full"], default="primary")
    _add_format(c_cong, ["json", "csv"], "json")

    transform = sub.add_parser("transform", help="binomial transform pair")
    t_sub = transform.add_subparsers(dest="direction", required=True)
    for name in ("forward", "inverse"):
        t = t_sub.add_parser(
            name, parents=[seq_in],
            description=f"The sequence may have at most {TRANSFORM_TERMS_LIMIT} terms.",
        )
        _add_format(t, ["lines", "json"], "lines")

    hankel = sub.add_parser("hankel", help="Hankel determinant audits")
    h_sub = hankel.add_subparsers(dest="action", required=True)
    h_table = h_sub.add_parser("table", parents=[seq_in])
    h_table.add_argument("--n-max", type=int, default=None)
    _add_format(h_table, ["csv", "json"], "csv")
    h_inv = h_sub.add_parser(
        "verify-invariance", parents=[seq_in],
        description=(
            f"The sequence may have at most {INVARIANCE_TERMS_LIMIT} terms; the check "
            "reads the first 2 n_max - 1 of them."
        ),
    )
    h_inv.add_argument("--n-max", type=int, default=None)
    _add_format(h_inv, ["json"], "json")
    h_div = h_sub.add_parser("verify-divisibility", parents=[seq_in])
    h_div.add_argument("--n-max", type=int, default=None)
    _add_format(h_div, ["csv", "json"], "csv")

    rational = sub.add_parser("rational", help="rationality detection")
    r_sub = rational.add_subparsers(dest="action", required=True)
    r_detect = r_sub.add_parser("detect", parents=[seq_in])
    r_detect.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    _add_format(r_detect, ["json", "csv"], "json")

    theta = sub.add_parser("theta", help="Chebyshev theta tables")
    th_sub = theta.add_subparsers(dest="action", required=True)
    th_table = th_sub.add_parser("table")
    th_table.add_argument(
        "--n-max", type=int, required=True,
        help=f"last row of the table (at most {THETA_N_MAX_LIMIT})",
    )
    _add_format(th_table, ["csv"], "csv")

    capacity = sub.add_parser("capacity", help="hedgehog capacity bounds")
    cap_sub = capacity.add_subparsers(dest="action", required=True)
    cap_bound = cap_sub.add_parser("bound")
    cap_bound.add_argument(
        "--endpoints", required=True, help="comma-separated complex endpoints"
    )
    _add_format(cap_bound, ["json"], "json")
    cap_est = cap_sub.add_parser("estimate")
    cap_est.add_argument("--endpoints", required=True)
    cap_est.add_argument(
        "--leja-points", type=int, default=64,
        help=f"number of Leja points, at least 5 (at most {LEJA_POINTS_LIMIT})",
    )
    cap_est.add_argument(
        "--discretization", type=int, default=2048,
        help="points per spike; endpoints x discretization is at most "
        f"{CANDIDATE_LIMIT}",
    )
    _add_format(cap_est, ["json"], "json")

    audit = sub.add_parser("audit", parents=[seq_in], help="full pipeline")
    audit.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    audit.add_argument("--growth-bound", type=float, default=AuditConfig().growth_bound)
    audit.add_argument("--n-max", type=int, default=None)
    _add_format(audit, ["json", "csv"], "json")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import; parsing leaves it unchanged, so
    # one instance serves every call
    return build_parser()


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise InputError(f"{what} {value} exceeds the limit {limit}")


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_report(fmt: str, name: str, value) -> None:
    """Write value's report in --format json or csv, through formats'
    ``<name>_json_obj`` and ``dumps`` or its ``<name>_csv``, each looked up
    on the module when called."""
    if fmt == "json":
        _emit(formats.dumps(getattr(formats, f"{name}_json_obj")(value)))
    else:
        _emit(getattr(formats, f"{name}_csv")(value))


def _cmd_gen(args) -> int:
    _check_limit("--n-max", args.n_max, GEN_TERMS_LIMIT)
    if args.generator != "poly" and args.bound < 0:
        raise InputError(f"--bound must be >= 0, got {args.bound}")
    if args.generator == "poly":
        raw = args.coeffs
        if raw.startswith("@"):
            raw = _read_text(raw[1:])
        poly = formats.parse_polynomial(raw)
        seq = eval_polynomial_sequence(poly, args.n_max)
    elif args.generator == "primary":
        rng = random.Random(args.seed)
        coeffs = [rng.randint(-args.bound, args.bound) for _ in range(args.n_max)]
        seq = generate_primary(coeffs, args.n_max)
    else:
        if args.seed is None:
            pert = [0] * args.n_max
        else:
            rng = random.Random(args.seed)
            pert = [rng.randint(-args.bound, args.bound) for _ in range(args.n_max)]
        seq = generate_hall_like(args.n_max, pert)
    _emit(formats.render_sequence(seq, args.format))
    return OK


def _cmd_check(args) -> int:
    seq = _read_sequence(args)
    _check_limit("sequence length", len(seq), CONGRUENCE_TERMS_LIMIT)
    report = check_congruences(seq, args.mode)
    _emit_report(args.format, "congruence", report)
    return OK if report.ok else PROPERTY_FAILED


def _cmd_transform(args) -> int:
    seq = _read_sequence(args)
    _check_limit("sequence length", len(seq), TRANSFORM_TERMS_LIMIT)
    out = (
        binomial_transform(seq)
        if args.direction == "forward"
        else inverse_binomial_transform(seq)
    )
    _emit(formats.render_sequence(out, args.format))
    return OK


def _cmd_hankel(args) -> int:
    seq = _read_sequence(args)
    n_max = args.n_max if args.n_max is not None else max_order(seq)
    if args.action == "verify-invariance":
        _check_limit("sequence length", len(seq), INVARIANCE_TERMS_LIMIT)
        report = verify_transform_invariance(seq, n_max)
        _emit_report(args.format, "invariance", report)
        return OK if report.passed else PROPERTY_FAILED
    records = hankel_table(seq, n_max)
    _emit_report(args.format, "hankel", records)
    if args.action == "verify-divisibility":
        return OK if all(r.divisible for r in records) else PROPERTY_FAILED
    return OK


def _cmd_rational(args) -> int:
    seq = _read_sequence(args)
    detection = detect_rationality(seq, args.window)
    _emit_report(args.format, "rationality", detection)
    return OK


def _cmd_theta(args) -> int:
    _check_limit("--n-max", args.n_max, THETA_N_MAX_LIMIT)
    _emit(formats.theta_csv(args.n_max))
    return OK


def _cmd_capacity(args) -> int:
    hedgehog = _parse_endpoints(args.endpoints)
    obj = {"endpoints": [[z.real, z.imag] for z in hedgehog.endpoints]}
    if args.action == "estimate":
        _check_limit("--leja-points", args.leja_points, LEJA_POINTS_LIMIT)
        _check_limit(
            "endpoints x --discretization",
            len(hedgehog.endpoints) * args.discretization,
            CANDIDATE_LIMIT,
        )
        obj["estimate"] = estimate_transfinite_diameter(
            hedgehog, args.leja_points, args.discretization
        )
        obj["leja_points"] = args.leja_points
        obj["discretization"] = args.discretization
    # after the estimate, so that its input errors (exit 2) come first
    obj["bound"] = dubinin_bound(hedgehog)
    _emit(formats.dumps(obj))
    return OK


def _cmd_audit(args) -> int:
    seq = _read_sequence(args)
    report = ruzsa_audit(seq, AuditConfig(args.growth_bound, args.window, args.n_max))
    _emit_report(args.format, "audit", report)
    return OK if report.verdict != VERDICT_CONGRUENCE_VIOLATION else PROPERTY_FAILED


def run_cli(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for rejected arguments
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "check": _cmd_check,
        "transform": _cmd_transform,
        "hankel": _cmd_hankel,
        "rational": _cmd_rational,
        "theta": _cmd_theta,
        "capacity": _cmd_capacity,
        "audit": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except InternalInvariantError as exc:
        print(f"INTERNAL INVARIANT VIOLATED (this is a bug): {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return PROPERTY_FAILED


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
