"""Shared file formats and report serialization.

Sequence files are either newline-delimited decimal integers or a JSON
array of decimal strings; both are exact, floats are rejected.
Polynomials are JSON arrays of decimal-string coefficients, lowest degree
first.  Report serialization is deterministic: identical inputs yield
byte-identical JSON, the bytes of json.dumps(obj, sort_keys=True, indent=2).
The rows a report repeats (Hankel table rows and congruence violations)
are written a whole array per call and one f-string per row, not built as
one dict per row.  Violation rows, as JSON and as CSV, are written straight
from the residues of a congruence report's failing moduli, with no record
built: every field is below the report's length, so its text, with the
constant pieces around it, comes from a table made once per call.
"""
from __future__ import annotations

import json
import math
import operator
import re
import reprlib
import sys
from bisect import bisect_right
from json.encoder import encode_basestring_ascii

from .analytic import DIRECTION_TOL, RESIDUAL_TOL, SingularityReport, theta_rows
from .audit import AuditReport
from .core import ExactSequence, IntPolynomial, InputError, exact_str
from .hankel import InvarianceReport, RationalityDetection
from .sequences import CongruenceReport

# A decimal integer is an optional minus sign and ASCII digits, nothing
# else: no "+", no "_" separators, no surrounding spaces, no other digits.
_DECIMAL = re.compile(r"-?[0-9]+")
_DECIMAL_LINES = re.compile(r"-?[0-9]+(?:\n-?[0-9]+)*")


def _digit_limit(what: str) -> InputError:
    return InputError(
        f"{what} has more than {sys.get_int_max_str_digits()} digits, "
        "the input limit for one integer"
    )


def _decimal(text: str) -> int | None:
    """The value of a decimal integer string, None if it is not one."""
    if not _DECIMAL.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError as exc:  # the interpreter's int-from-str digit limit
        raise _digit_limit("a decimal integer") from exc


def _parse_json_integers(text: str, what: str, not_array: str, entries: str) -> list[int]:
    """Decode a JSON array of decimal strings (plain JSON ints also pass);
    ``what``, ``not_array`` and ``entries`` word the caller's errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON {what}: {exc}") from exc
    except ValueError as exc:  # a bare integer literal past the digit limit
        raise _digit_limit(f"an integer literal in the JSON {what}") from exc
    except RecursionError as exc:
        raise InputError(f"bad JSON {what}: arrays or objects nested too deeply") from exc
    if not isinstance(data, list):
        raise InputError(not_array)
    values = []
    for v in data:
        if isinstance(v, str):
            value = _decimal(v)
            if value is None:
                raise InputError(f"not a decimal integer string: {reprlib.repr(v)}")
            values.append(value)
        elif isinstance(v, int) and not isinstance(v, bool):
            values.append(v)
        else:
            raise InputError(f"{entries} must be decimal strings, got {reprlib.repr(v)}")
    return values


def parse_sequence(text: str) -> ExactSequence:
    """Read the shared sequence format (newline integers or JSON strings).

    Newline input is split as str.splitlines splits it; each line is
    stripped and blank lines are skipped.  One match over the kept lines,
    joined by newlines, checks them all at once.  Only input it rejects is
    read line by line again, so that the error names the first line that is
    not a decimal integer, or the first integer past the interpreter's
    digit limit if that comes before it.  Lines are numbered in the text as
    given, leading blank lines included.
    """
    stripped = text.strip()
    if not stripped:
        raise InputError("empty sequence input")
    if stripped[0] == "[":
        return ExactSequence(_parse_json_integers(
            stripped, "sequence", "JSON sequence must be an array", "sequence entries"
        ))
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not _DECIMAL_LINES.fullmatch("\n".join(lines)):
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line and _decimal(line) is None:
                raise InputError(f"line {line_no} is not a decimal integer: {line!r}")
    try:
        terms = list(map(int, lines))
    except ValueError as exc:  # the interpreter's int-from-str digit limit
        raise _digit_limit("a decimal integer") from exc
    return ExactSequence(terms)


def render_sequence(seq: ExactSequence, fmt: str = "lines") -> str:
    if fmt == "lines":
        return "\n".join(map(exact_str, seq.terms)) + "\n"
    if fmt == "json":
        return json.dumps(list(map(exact_str, seq.terms))) + "\n"
    raise InputError(f"unknown sequence format {fmt!r}")


def parse_polynomial(text: str) -> IntPolynomial:
    """Read a polynomial: JSON array of decimal strings, lowest degree first."""
    return IntPolynomial(tuple(_parse_json_integers(
        text.strip(),
        "polynomial",
        "polynomial must be a JSON array of decimal strings",
        "polynomial coefficients",
    )))


def _float_repr(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# The scalar encoders json uses, by exact type; subclasses go through
# _encoder, which encodes them as json does: by their base type's repr.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _encoder(value):
    """The scalar encoder of value, None for a list, tuple or dict."""
    encode = _SCALARS.get(type(value))
    if encode is not None:
        return encode
    if isinstance(value, str):
        return encode_basestring_ascii
    if isinstance(value, int):
        return int.__repr__
    if isinstance(value, float):
        return _float_repr
    if isinstance(value, (list, tuple, dict, _Rows)):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Rows:
    """A JSON array of report rows that repeat one shape; ``render(items,
    newline)`` writes the whole array at once, as the list of its rows'
    texts, each the indent-2 JSON of the row's dict starting on the line
    whose break and indent are ``newline``."""

    __slots__ = ("items", "render")

    def __init__(self, items, render):
        self.items = items
        self.render = render


def _write(obj, append, newline: str) -> None:
    """Append the pieces of the indent-2 JSON of a list, tuple, dict or
    _Rows; newline is the line break and indent of the line obj starts on.
    Module-level, so that no call makes a closure that refers to itself:
    that would be a reference cycle holding every piece until the cyclic
    collector runs."""
    if not (obj.items if type(obj) is _Rows else obj):
        append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = newline + "  "
    separator = "," + inner
    if type(obj) is _Rows:  # three pieces, which the final join copies once
        append("[" + inner)
        append(separator.join(obj.render(obj.items, inner)))
        append(newline + "]")
        return
    if isinstance(obj, dict):
        prefix = "{" + inner
        for key in sorted(obj):  # encode_basestring_ascii rejects a non-str key
            value = obj[key]
            encode = _SCALARS.get(type(value)) or _encoder(value)
            if encode is None:
                append(prefix + encode_basestring_ascii(key) + ": ")
                _write(value, append, inner)
            else:
                append(prefix + encode_basestring_ascii(key) + ": " + encode(value))
            prefix = separator
        append(newline + "}")
        return
    kinds = set(map(type, obj))
    encode = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    if encode is _float_repr:
        text = separator.join(map(float.__repr__, obj))
        if "n" in text:  # only nan and inf have an "n"; json writes NaN, Infinity
            text = separator.join(map(_float_repr, obj))
        append("[" + inner + text + newline + "]")
        return
    if encode is not None:
        append("[" + inner + separator.join(map(encode, obj)) + newline + "]")
        return
    prefix = "[" + inner
    for item in obj:
        encode = _SCALARS.get(type(item)) or _encoder(item)
        if encode is None:
            append(prefix)
            _write(item, append, inner)
        else:
            append(prefix + encode(item))
        prefix = separator
    append(newline + "]")


def dumps(obj) -> str:
    """Canonical JSON text: the bytes of json.dumps(obj, sort_keys=True,
    indent=2) plus a trailing newline, where a _Rows array stands for the
    list of its rows' dicts and each row is written by one f-string.  Dict
    keys must be str; a value json cannot encode raises TypeError."""
    encode = _encoder(obj)
    if encode is not None:
        return encode(obj) + "\n"
    pieces: list[str] = []
    _write(obj, pieces.append, "\n")
    pieces.append("\n")
    return "".join(pieces)


# str(k) for k < 512, which covers every field of a `check congruences`
# report under its 500-term limit.
_SMALL = tuple(map(str, range(512)))


def _numbers(length: int) -> tuple[str, ...]:
    """str(k) for every k < length: each field of a congruence report's
    violation rows (n, the modulus and both residues) is below its length."""
    return _SMALL[:length] if length <= 512 else tuple(map(str, range(length)))


def _violation_rows(report: CongruenceReport, newline: str) -> list[str]:
    """The rows of a report's violations, in the order ``violations`` lists
    them, written straight from the residues in ``failing``: each row is
    four texts, of its lhs residue, its modulus, its n and its rhs residue,
    each made with the constant pieces around it once per call."""
    i = newline + "  "
    text = _numbers(report.length)
    lhs_texts = [f'{{{i}"lhs_residue": {k}' for k in text]
    rhs_texts = [f"{k}{newline}}}" for k in text]
    n_texts = [f',{i}"n": {k},{i}"rhs_residue": ' for k in text[:-1]]
    moduli = [m for m, _ in report.failing]
    failing = [(m, residues, f',{i}"modulus": {text[m]}') for m, residues in report.failing]
    last = report.length - 1
    return [f"{lhs_texts[lhs]}{modulus_text}{n_text}{rhs_texts[rhs]}"
            for n, n_text in enumerate(n_texts)
            for m, residues, modulus_text in failing[:bisect_right(moduli, last - n)]
            if (lhs := residues[n + m]) != (rhs := residues[n])]


def congruence_json_obj(report: CongruenceReport) -> dict:
    return {
        "mode": report.mode,
        "length": report.length,
        "checked_pairs": report.checked_pairs,
        "ok": report.ok,
        "violations": _Rows(report, _violation_rows) if report.failing else [],
    }


def congruence_csv(report: CongruenceReport) -> str:
    """The header, then one line per violation, n-major, written from the
    residues in ``failing`` as ``_violation_rows`` writes its rows."""
    text = _numbers(report.length)
    fields = [k + "," for k in text]
    moduli = [m for m, _ in report.failing]
    last = report.length - 1
    lines = ["n,modulus,lhs_residue,rhs_residue"]
    lines += [f"{n_field}{fields[m]}{fields[lhs]}{text[rhs]}"
              for n, n_field in enumerate(fields[:-1])
              for m, residues in report.failing[:bisect_right(moduli, last - n)]
              if (lhs := residues[n + m]) != (rhs := residues[n])]
    return "\n".join(lines) + "\n"


def _hankel_rows(records, newline: str) -> list[str]:
    i = newline + "  "
    i2 = i + "  "
    i3 = i2 + "  "
    keys: dict = {}  # prime -> its entry's text up to the actual exponent
    required = f""",{i3}"required": """
    close = i2 + "}"
    inf = math.inf
    rows = []
    for rec in records:
        if rec.valuations:
            # '"' sorts below every digit, so sorting the entries sorts their
            # prime keys as strings: "11" before "2", "2" before "23"
            valuations = "{" + ",".join(sorted([
                f"""{keys.get(p) or keys.setdefault(p, f'{i2}"{p}": {{{i3}"actual": ')}"""
                f"""{'"inf"' if act == inf else act}{required}{req}{close}"""
                for p, req, act in rec.valuations
            ])) + i + "}"
        else:
            valuations = "{}"
        growth = rec.normalized_growth
        rows.append(
            f"""{{{i}"det": "{exact_str(rec.det)}","""
            f"""{i}"divisible": {'true' if rec.divisible else 'false'},{i}"n": {rec.n},"""
            f"""{i}"normalized_growth": {'null' if growth is None else _float_repr(growth)},"""
            f"""{i}"required_divisor": "{exact_str(rec.required_divisor)}","""
            f"""{i}"valuations": {valuations}{newline}}}"""
        )
    return rows


def hankel_json_obj(records) -> _Rows:
    return _Rows(records, _hankel_rows)


def hankel_csv(records) -> str:
    lines = ["n,det,required_divisor,divisible,normalized_growth"]
    for rec in records:
        growth = "" if rec.normalized_growth is None else repr(rec.normalized_growth)
        lines.append(
            f"{rec.n},{exact_str(rec.det)},{exact_str(rec.required_divisor)},"
            f"{'true' if rec.divisible else 'false'},{growth}"
        )
    return "\n".join(lines) + "\n"


def invariance_json_obj(report: InvarianceReport) -> dict:
    return {
        "passed": report.passed,
        "checked_max": report.checked_max,
        "first_failure": None
        if report.first_failure is None
        else {"n": report.first_failure[0], "check": report.first_failure[1]},
    }


def rationality_json_obj(detection: RationalityDetection) -> dict:
    obj = {
        "rational": detection.function is not None,
        "window": detection.window,
        "zero_run": detection.zero_run,
        "det_table": list(map(exact_str, detection.det_table)),
    }
    if detection.function is not None:
        func = detection.function
        obj.update(
            {
                "order": func.order,
                "numerator": str(func.numerator),
                "denominator": str(func.denominator),
                "numerator_coefficients": list(map(exact_str, func.numerator.coefficients)),
                "denominator_coefficients": list(
                    map(exact_str, func.denominator.coefficients)
                ),
            }
        )
    return obj


def rationality_csv(detection: RationalityDetection) -> str:
    lines = ["n,det"]
    lines += [f"{n},{exact_str(d)}" for n, d in enumerate(detection.det_table, start=1)]
    return "\n".join(lines) + "\n"


def singularity_json_obj(report: SingularityReport) -> dict:
    return {
        "poles": [[z.real, z.imag] for z, _ in report.poles],
        "multiplicities": [m for _, m in report.poles],
        "directions": list(report.directions),
        "direction_count": report.direction_count,
        "radius": report.radius,
    }


def theta_csv(n_max: int) -> str:
    """Rows n = 0..n_max with theta(n), the partial sum over k < n, and the
    partial sum divided by n^2 / 2 (empty at n = 0), all read from the
    running-theta accumulator."""
    lines = ["n,theta,partial_sum,ratio"]
    for n, theta, partial in theta_rows(n_max):
        ratio = "" if n == 0 else repr(partial / (n * n / 2))
        lines.append(f"{n},{theta!r},{partial!r},{ratio}")
    return "\n".join(lines) + "\n"


def audit_json_obj(report: AuditReport) -> dict:
    obj = {
        "schema": "ruzsa-audit/1",
        "length": report.length,
        "config": {
            "growth_bound": report.config.growth_bound,
            "window": report.config.window,
            "n_max": report.config.n_max,
            "residual_tol": RESIDUAL_TOL,
            "direction_tol": DIRECTION_TOL,
        },
        "congruence": congruence_json_obj(report.congruence),
        "growth": {
            "tail_sup": report.growth.tail_sup,
            "tail_start": report.growth.tail_start,
            "per_n": list(report.growth.per_n),
            "below_bound": report.growth_below_bound,
        },
        "hankel": hankel_json_obj(report.hankel),
        "rationality": rationality_json_obj(report.rationality),
        "singularities": None
        if report.singularities is None
        else singularity_json_obj(report.singularities),
        "denominator_is_power_of_one_minus_x": report.denominator_is_power_of_one_minus_x,
        "verdict": report.verdict,
        "degree": report.degree,
    }
    return obj


def audit_csv(report: AuditReport) -> str:
    """One-row summary; the JSON report carries the full evidence."""
    func = report.rationality.function
    fields = [
        ("verdict", report.verdict),
        ("degree", "" if report.degree is None else report.degree),
        ("length", report.length),
        ("congruence_checked", report.congruence.checked_pairs),
        ("congruence_violations", sum(
            sum(map(operator.ne, residues[m:], residues))
            for m, residues in report.congruence.failing
        )),
        ("growth_tail_sup", repr(report.growth.tail_sup)),
        ("growth_below_bound", str(report.growth_below_bound).lower()),
        ("hankel_orders", len(report.hankel)),
        ("hankel_all_divisible", str(all(r.divisible for r in report.hankel)).lower()),
        ("rational", str(func is not None).lower()),
        ("order", "" if func is None else func.order),
        ("numerator", "" if func is None else str(func.numerator)),
        ("denominator", "" if func is None else str(func.denominator)),
        (
            "denominator_is_power_of_one_minus_x",
            ""
            if report.denominator_is_power_of_one_minus_x is None
            else str(report.denominator_is_power_of_one_minus_x).lower(),
        ),
        (
            "direction_count",
            "" if report.singularities is None else report.singularities.direction_count,
        ),
        ("radius", "" if report.singularities is None else repr(report.singularities.radius)),
        ("zero_run", report.rationality.zero_run),
    ]
    header = ",".join(name for name, _ in fields)
    row = ",".join(str(value) for _, value in fields)
    return header + "\n" + row + "\n"
