"""Start-up cost: what a fresh interpreter loads for each kind of command.

numpy is imported only by the two routines that call it, the root finder
behind ``singular_directions`` for a squarefree denominator factor of
degree 2 or more, and the Leja estimator behind ``capacity estimate``, so
every other command starts without it.  A linear factor's pole has a
closed form, so polynomial audits (one pole, x = 1) and order-1 C-finite
audits never load it.  ``decimal`` is imported by ``core.exact_str`` only
for ints past the interpreter's int-to-str digit limit.  The records are
``NamedTuple`` types, so neither the import nor those commands load
``dataclasses`` or ``inspect`` (numpy loads ``inspect`` itself).  This
process has long since loaded all of them (pytest, hypothesis and
numpy-using tests), so each check runs in a fresh interpreter
(``sys.executable``) that reports back one JSON object.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudopoly
from pseudopoly.cli import run_cli
from test_golden import GENERATED, GOLDEN, _fixed_inputs

SRC = str(Path(pseudopoly.__file__).resolve().parents[1])

# Reads [[argv, stdin text or null], ...] on stdin, imports the package,
# runs each call in process and prints what it loaded and wrote.
# CPython's fractions module imports decimal itself, so the watcher records
# which module's code asked for decimal first, not merely whether it is
# loaded: none of the package's own modules may be that module.
CHILD = r'''
import contextlib, hashlib, io, json, sys

RECORD_MACHINERY = {"dataclasses", "inspect"}
started_with = sorted(({"numpy", "decimal"} | RECORD_MACHINERY) & set(sys.modules))
decimal_importers = []


class WatchDecimal:
    def find_spec(self, name, path=None, target=None):
        if name == "decimal":
            frame = sys._getframe(1)
            while frame.f_globals.get("__name__", "").startswith("importlib"):
                frame = frame.f_back
            decimal_importers.append(frame.f_globals.get("__name__"))
        return None


sys.meta_path.insert(0, WatchDecimal())
calls = json.load(sys.stdin)
import pseudopoly
import pseudopoly.cli
from pseudopoly import HankelRecord, formats

result = {
    "started_with": started_with,
    "numpy_after_import": "numpy" in sys.modules,
    "machinery_after_import": sorted(RECORD_MACHINERY & set(sys.modules)),
    "decimal_importers": decimal_importers,
    "calls": [],
}
for argv, text in calls:
    sys.stdin = io.StringIO(text or "")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pseudopoly.cli.run_cli(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    result["calls"].append([code, digest, "numpy" in sys.modules])
result["machinery_after_calls"] = sorted(RECORD_MACHINERY & set(sys.modules))
big = 10**4999 + 7
result["big"] = formats.dumps(formats.hankel_json_obj([HankelRecord(1, -big, big, (), True, None)]))
print(json.dumps(result))
'''


def _cold(calls: list[tuple[list[str], str | None]]) -> dict:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(calls), capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    result = json.loads(proc.stdout)
    assert result["started_with"] == []
    return result


def _warm(argv: list[str], text: str | None) -> tuple[int, str]:
    out = io.StringIO()
    old, sys.stdin = sys.stdin, io.StringIO(text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(argv)
    finally:
        sys.stdin = old
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _generated(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(GENERATED[name]) == 0
    return out.getvalue()


def _expected(case_id: str | None, argv: list[str], text: str | None) -> tuple[int, str]:
    """The golden (exit code, digest) if the call is a golden case, else
    what the same call gives in this process."""
    return GOLDEN[case_id] if case_id else _warm(argv, text)


HALL = _generated("hall")
# (golden case or None, argv, stdin text) of calls that need no root finder.
NUMPY_FREE = [
    ("gen-hall", GENERATED["hall"], None),
    ("forward-hall", ["transform", "forward"], HALL),
    ("congruences-hall", ["check", "congruences", "--mode", "full"], HALL),
    (None, ["hankel", "verify-invariance"], HALL),
    ("audit-json-primary", ["audit", "--format", "json"], _generated("primary")),
    ("audit-json-cubic", ["audit", "--format", "json"],
     "".join(f"{t}\n" for t in _fixed_inputs()["cubic"])),
    # 2^n: the denominator 1 - 2x has one linear factor
    (None, ["audit", "--format", "json"], "".join(f"{2**n}\n" for n in range(40))),
]
# A C-finite audit whose detected denominator, 1 - x - x^2, is a squarefree
# factor of degree 2, and the Leja estimator.
ROOT_FINDERS = [
    ("audit-json-fibonacci", ["audit", "--format", "json"],
     "".join(f"{t}\n" for t in _fixed_inputs()["fibonacci"])),
    (None, ["capacity", "estimate", "--endpoints", "1,-1"], None),
]


def test_import_loads_no_numpy_and_no_decimal_of_its_own():
    result = _cold([])
    assert result["numpy_after_import"] is False
    assert result["machinery_after_import"] == []
    assert not [m for m in result["decimal_importers"] if m.startswith("pseudopoly")]


def test_commands_without_a_root_finder_never_load_numpy():
    result = _cold([[argv, text] for _, argv, text in NUMPY_FREE])
    assert result["numpy_after_import"] is False
    for (case_id, argv, text), (code, digest, numpy_loaded) in zip(NUMPY_FREE, result["calls"]):
        assert (code, digest) == _expected(case_id, argv, text), argv
        assert numpy_loaded is False, argv
    assert result["machinery_after_calls"] == []
    assert not [m for m in result["decimal_importers"] if m.startswith("pseudopoly")]


@pytest.mark.parametrize("case_id,argv,text", ROOT_FINDERS, ids=["audit-cfinite", "capacity"])
def test_root_finders_load_numpy_when_called(case_id, argv, text):
    result = _cold([[argv, text]])
    assert result["numpy_after_import"] is False
    [(code, digest, numpy_loaded)] = result["calls"]
    assert (code, digest) == _expected(case_id, argv, text)
    assert numpy_loaded is True


def test_renders_ints_past_the_digit_limit_in_a_fresh_interpreter():
    # exact_str's decimal fallback, first reached here in that interpreter
    digits = "1" + "0" * 4998 + "7"
    [row] = json.loads(_cold([])["big"])
    assert row["det"] == "-" + digits
    assert row["required_divisor"] == digits
