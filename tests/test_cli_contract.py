"""The CLI contract on hostile input, for every command that reads a
sequence: ``audit``, ``transform``, ``check congruences``, ``hankel
table|verify-divisibility|verify-invariance`` and ``rational detect``; and
for every command that reads only its arguments: ``gen poly|primary|hall``,
``theta table`` and ``capacity bound|estimate``.

Each case runs in process through ``run_cli``, with its text on stdin.
Whatever the input, the exit code is 0, 1 or 2; an input error (2) prints
nothing on stdout and one ``error:`` message on stderr; and no output holds
``NaN`` or ``Infinity``, JSON output parsing without them.  Now and then an
int option is given text that is not an int, and a choice option a value
that is none of its choices, which argparse itself rejects.  Prefixes have
at most 60 terms, and terms past the float range at most 8, since the
remainder sequence behind ``audit``, ``hankel`` and ``rational`` has no
cost guard yet.  Sizes drawn for the argument commands are small or past
their limits, which exit 2 before any work.
"""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pseudopoly.cli import (
    CANDIDATE_LIMIT,
    GEN_TERMS_LIMIT,
    INPUT_ERROR,
    LEJA_POINTS_LIMIT,
    THETA_N_MAX_LIMIT,
    build_parser,
    run_cli,
)

CONTRACT = settings(max_examples=150, deadline=None, database=None)

_sometimes = st.sampled_from([True, False, False])
_rarely = st.sampled_from([True] + [False] * 5)
# text that int() rejects: a float, a word, nothing, and an int past the
# interpreter's 4,300-digit limit for int from str
_not_int = st.sampled_from(["1.5", "abc", "", "9" * 5000])
_not_a_choice = st.sampled_from(["", "JSON", "xml", "full ", "-"])


def _int_value(draw, ints):
    """An int from ``ints``, or now and then text that is not an int."""
    return draw(_not_int if draw(_rarely) else ints)


def _choice(draw, choices):
    """One of ``choices``, or now and then a value that is none of them."""
    return draw(_not_a_choice if draw(_rarely) else st.sampled_from(choices))


_order = st.integers(-1, 32)
_format = {
    "audit": ["json", "csv"],
    "transform": ["lines", "json"],
    "check": ["json", "csv"],
    "table": ["csv", "json"],
    "verify-divisibility": ["csv", "json"],
    "detect": ["json", "csv"],
}


@st.composite
def commands(draw):
    """argv of one sequence-reading command, with options drawn from its
    own choices and from ints and floats that may be out of range.  A
    drawn value is joined to its option by "=", so that argparse reads
    "-inf" as a value, not as an option."""
    kind = draw(st.sampled_from(sorted(_format) + ["verify-invariance"]))
    if kind == "audit":
        argv = ["audit"]
        if draw(_sometimes):
            argv.append(f"--window={_int_value(draw, _order)}")
        if draw(_sometimes):
            argv.append(f"--n-max={_int_value(draw, _order)}")
        if draw(_sometimes):
            argv.append("--growth-bound=" + draw(st.sampled_from(
                ["nan", "inf", "-inf", "0", "-1", "2.718281828459045", "1e308"])))
    elif kind == "transform":
        argv = ["transform", draw(st.sampled_from(["forward", "inverse"]))]
    elif kind == "check":
        argv = ["check", "congruences", f"--mode={_choice(draw, ['primary', 'full'])}"]
    elif kind == "detect":
        argv = ["rational", "detect"]
        if draw(_sometimes):
            argv.append(f"--window={_int_value(draw, _order)}")
    else:
        argv = ["hankel", kind]
        if draw(_sometimes):
            argv.append(f"--n-max={_int_value(draw, _order)}")
    if kind != "verify-invariance":
        argv.append(f"--format={_choice(draw, _format[kind])}")
    return argv


_term = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40)).map(str)
# the audit needs 10 terms, so most prefixes have that many
_small_terms = st.one_of(
    st.lists(_term, min_size=1, max_size=9),
    st.lists(_term, min_size=10, max_size=60),
    # values of an integer polynomial, which pass every congruence
    st.builds(lambda c, size: [str(sum(a * n**k for k, a in enumerate(c))) for n in range(size)],
              st.lists(st.integers(-3, 3), max_size=5), st.integers(10, 60)),
)
# past the float range, up to one digit past the interpreter's str limit;
# drawn as text, which hypothesis can print at any length
_huge_terms = st.lists(
    st.builds("{}{}{}".format, st.sampled_from(["", "-"]), st.integers(1, 9).map(str),
              st.sampled_from([309, 4299, 4300]).map(lambda k: "3" * k)),
    min_size=1, max_size=8,
)


@st.composite
def hostile_text(draw):
    """Sequence text: good and bad terms in either format, deep and wide
    JSON, non-finite and non-ASCII words, empty input and CRLF."""
    shape = draw(st.sampled_from(
        ["lines", "lines", "lines", "json", "json", "nested", "wide", "words", "empty"]))
    terms = draw(st.one_of(_small_terms, _small_terms, _huge_terms))
    if shape == "lines":
        breaks = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        return breaks.join(terms) + draw(st.sampled_from(["", breaks]))
    if shape == "json":
        quote = draw(st.sampled_from(['"', ""]))
        return "[" + ", ".join(f"{quote}{t}{quote}" for t in terms) + "]"
    if shape == "nested":
        depth = draw(st.sampled_from([2, 100, 3000, 100_000]))
        return "[" * depth + "]" * depth
    if shape == "wide":
        entry = draw(st.sampled_from(["[]", "{}", '["1"]', "null", "true", "1.5", '"x"']))
        return "[" + ",".join([entry] * draw(st.integers(1, 5000))) + "]"
    if shape == "words":
        words = draw(st.lists(st.sampled_from(
            ["nan", "inf", "-inf", "NaN", "Infinity", "1e400", "1.0", "é", "٣",
             "１２", "0x10", "3"]), min_size=1, max_size=12))
        if draw(st.booleans()):
            return json.dumps(words)
        return draw(st.sampled_from(["\n", "\r\n"])).join(words)
    return draw(st.sampled_from(["", " ", "\r\n", "\n\n\t", "[]", "{}", "null"]))


def _no_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@CONTRACT
@given(commands(), hostile_text())
@example(["audit", "--format", "json"], "1\r\n" * 12)
@example(["hankel", "table", "--format", "json"], "[" * 100_000 + "]" * 100_000)
@example(["rational", "detect", "--format", "json"], "nan\ninf\n")
@example(["check", "congruences", "--mode", "full", "--format", "csv"], "")
@example(["audit", "--window", "abc"], "1\n2\n3\n")
def test_sequence_commands_keep_the_cli_contract(argv, text):
    _check_contract(argv, text)


def _check_contract(argv, text=""):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
    finally:
        sys.stdin = stdin
    stdout, stderr = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, INPUT_ERROR), stderr
    if code == INPUT_ERROR:
        assert stdout == ""
        assert stderr.startswith("error:")
    assert "NaN" not in stdout and "Infinity" not in stdout
    if stdout and getattr(_PARSER.parse_args(argv), "format", "json") == "json":
        json.loads(stdout, parse_constant=_no_constant)


def _subcommands(parser):
    """The subcommand parsers of ``parser``, by name."""
    return next(a.choices for a in parser._actions if isinstance(a.choices, dict))


_PARSER = build_parser()
_ARGUMENT_COMMANDS = [
    (group, name, parser)
    for group in ("gen", "theta", "capacity")
    for name, parser in _subcommands(_subcommands(_PARSER)[group]).items()
]
# int options: small values, or values past every limit the option has
_int_values = {
    "n_max": st.one_of(st.integers(-2, 40), st.sampled_from(
        [GEN_TERMS_LIMIT + 1, THETA_N_MAX_LIMIT + 1, 2**63])),
    "leja_points": st.one_of(
        st.integers(-1, 40), st.sampled_from([LEJA_POINTS_LIMIT + 1, 2**63])),
    "discretization": st.one_of(
        st.integers(-1, 64), st.sampled_from([CANDIDATE_LIMIT + 1, 2**63])),
    "seed": st.one_of(st.integers(), st.sampled_from([-(2**63), 2**64, 10**100])),
    "bound": st.one_of(st.integers(-3, 5), st.sampled_from([10**40, -(10**40)])),
}
_number_word = st.sampled_from(
    ["5e-324", "-5e-324", "1e-323", "2.2250738585072014e-308", "1.7e308", "1e400",
     "nan", "inf", "-inf", "0", "-0.0", "1", "-1", "1.5", "1j", "-2-2j", "1e-300j",
     "(1+2j)", "1e308+1e308j", "nanj", "infj", "spam", "", " "])
_endpoint = st.one_of(
    _number_word, st.floats().map(repr), st.complex_numbers().map(str),
    st.integers(-(10**400), 10**400).map(str))
_coefficient = st.one_of(
    st.integers(-3, 3).map(str), st.integers(-(10**40), 10**40).map(str), _number_word)
_text_values = {
    "endpoints": st.lists(_endpoint, min_size=1, max_size=4).map(",".join),
    "coeffs": st.builds(
        lambda quote, terms: "[" + ", ".join(f"{quote}{t}{quote}" for t in terms) + "]",
        st.sampled_from(['"', '"', ""]), st.lists(_coefficient, max_size=6)),
}


@st.composite
def argument_commands(draw):
    """argv of one command that reads only its arguments: each option's
    value drawn from the parser's own choices, or as a hostile int, float or
    complex string, and each optional option given sometimes."""
    group, name, parser = draw(st.sampled_from(_ARGUMENT_COMMANDS))
    argv = [group, name]
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if not (action.required or draw(_sometimes)):
            continue
        if action.choices:
            value = _choice(draw, action.choices)
        elif action.type is int:
            value = _int_value(draw, _int_values[action.dest])
        else:
            value = draw(_text_values[action.dest])
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


@CONTRACT
@given(argument_commands())
@example(["capacity", "bound", "--endpoints=5e-324"])
@example(["capacity", "estimate", "--endpoints=5e-324,-5e-324", "--leja-points=2",
          "--discretization=16"])
@example(["capacity", "bound", "--endpoints=1e300+1e-30j"])  # its argument underflows
@example(["gen", "poly", "--coeffs=[\"5e-324\"]", "--n-max=3"])
@example(["gen", "primary", "--n-max=1.5"])
def test_argument_commands_keep_the_cli_contract(argv):
    _check_contract(argv)
