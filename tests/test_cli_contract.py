"""The CLI contract on hostile input, for every command that reads a
sequence: ``audit``, ``transform``, ``check congruences``, ``hankel
table|verify-divisibility|verify-invariance`` and ``rational detect``.

Each case runs in process through ``run_cli``, with its text on stdin.
Whatever the input, the exit code is 0, 1 or 2; an input error (2) prints
nothing on stdout and one ``error:`` message on stderr; and no output holds
``NaN`` or ``Infinity``, JSON output parsing without them.  Prefixes have at
most 60 terms, and terms past the float range at most 8, since the
remainder sequence behind ``audit``, ``hankel`` and ``rational`` has no
cost guard yet.
"""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pseudopoly.cli import INPUT_ERROR, run_cli

CONTRACT = settings(max_examples=150, deadline=None, database=None)

_order = st.integers(-1, 32)
_sometimes = st.sampled_from([True, False, False])
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
            argv.append(f"--window={draw(_order)}")
        if draw(_sometimes):
            argv.append(f"--n-max={draw(_order)}")
        if draw(_sometimes):
            argv.append("--growth-bound=" + draw(st.sampled_from(
                ["nan", "inf", "-inf", "0", "-1", "2.718281828459045", "1e308"])))
    elif kind == "transform":
        argv = ["transform", draw(st.sampled_from(["forward", "inverse"]))]
    elif kind == "check":
        argv = ["check", "congruences", "--mode", draw(st.sampled_from(["primary", "full"]))]
    elif kind == "detect":
        argv = ["rational", "detect"]
        if draw(_sometimes):
            argv.append(f"--window={draw(_order)}")
    else:
        argv = ["hankel", kind]
        if draw(_sometimes):
            argv.append(f"--n-max={draw(_order)}")
    if kind != "verify-invariance":
        argv += ["--format", draw(st.sampled_from(_format[kind]))]
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
def test_sequence_commands_keep_the_cli_contract(argv, text):
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
    if stdout and (argv[-1] == "json" or "verify-invariance" in argv):
        json.loads(stdout, parse_constant=_no_constant)
