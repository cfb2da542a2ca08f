"""Committed mutants of the exact kernels, and the runner that checks that
the tests named for each one kill it.

Each record names a file under ``src/``, a snippet that occurs exactly once
in ``src/``, its replacement, the test ids that must fail on the mutant,
and why the mutant matters.  An equivalent mutant changes nothing that any
input can show: it is listed with the reason and is not run.

Run it from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

It copies ``src/`` to a temporary directory, first runs every killer on the
unchanged copy (they must pass, so a misnamed or broken killer cannot pass
for a kill), then applies one mutant at a time and runs its killers with
``-x -q -p no:cacheprovider --hypothesis-seed=0``.  A mutant is killed
when that run fails, by a failed test or by an error while the killers'
modules are collected (pytest's exit status is then 4 for a named test),
and survives when its killers all pass.  Every survivor is reported, and
the exit status is then 1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST_ARGS = ["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]


class Mutant(NamedTuple):
    file: str  # relative to src/
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root
    reason: str
    equivalent: bool = False


PROPS = "tests/test_properties.py::"
TABLE = PROPS + "test_table_and_detection_match_eliminations_by_order"
TABLE_ROWS = PROPS + "test_table_rows_match_eliminations_by_order"
ONE_PASS = PROPS + "test_one_pass_steps_match_pseudo_division"
HANKEL = "pseudopoly/hankel.py"
FACTS = "tests/test_hankel.py::TestRemainderSequenceFacts::"

MUTANTS = (
    # the one row rule for int and Fraction determinants
    Mutant(
        HANKEL,
        "_exact_valuation(climbed, p) or -_exact_valuation(den, p)",
        "_exact_valuation(climbed, p)",
        (TABLE,),
        "a required prime of a Fraction row's denominator reads 0, not -v_p(den)",
    ),
    Mutant(
        HANKEL,
        "gcd(climbed * den, primorial[n - 1])",
        "gcd(climbed, primorial[n - 1])",
        (TABLE,),
        "the gcd filter skips the primes of a Fraction row's denominator",
    ),
    Mutant(
        HANKEL,
        "exp((log(abs(num)) - log(den)) / (n * n))",
        "exp(log(abs(num)) / (n * n))",
        (TABLE,),
        "a Fraction row's growth ignores its denominator",
    ),
    Mutant(
        HANKEL,
        "return det if scale == 1 else Fraction(det, scale**n)",
        "return Fraction(det, scale**n)",
        (TABLE,),
        "an integer prefix's determinants become Fractions",
    ),
    Mutant(
        HANKEL,
        "    if scale == 1:\n        return list(terms), 1\n",
        "",
        (),
        "without the shortcut integer terms are multiplied by 1: the same values",
        equivalent=True,
    ),
    # one division decides each row
    Mutant(
        HANKEL,
        "divisible = not remainder",
        "divisible = True",
        (TABLE_ROWS,),
        "every nonzero row reads divisible",
    ),
    Mutant(
        HANKEL,
        "climbed = quotient if divisible else num",
        "climbed = quotient",
        (TABLE_ROWS,),
        "a row that does not divide climbs its quotient",
    ),
    Mutant(
        HANKEL,
        "(n - p if divisible else 0)",
        "(n - p)",
        (TABLE_ROWS,),
        "a row that does not divide gets the required exponent added",
    ),
    # hot kernels without bookkeeping
    Mutant(
        HANKEL,
        "psc_g = lc_g\n",
        "psc_g = lc_f\n",
        (ONE_PASS,),
        "a normal step records the wrong principal coefficient for the next jump",
    ),
    Mutant(
        HANKEL,
        "if rem[0]:  # a normal step again",
        "if rem:  # a normal step again",
        (ONE_PASS,),
        "a remainder with a zero leading coefficient is taken for a normal step",
    ),
    Mutant(
        HANKEL,
        "    if remainder:\n        return 1\n    v = 2\n",
        "    if remainder:\n        return 2\n    v = 2\n",
        (PROPS + "test_valuation_from_the_required_exponent_matches_climbing",),
        "valuation 1 is answered as 2",
    ),
    Mutant(
        HANKEL,
        "gcd(climbed * den, primorial[n - 1])",
        "gcd(quotient * den, primorial[n - 1])",
        (TABLE_ROWS,),
        "a row that does not divide is filtered by its quotient's primes",
    ),
    Mutant(
        HANKEL,
        "exp((log(abs(num)) - log(den)) / (n * n))",
        "(abs(num) / den) ** (1 / (n * n))",
        (TABLE,),
        "a row's growth is not root_abs_exact's float",
    ),
    Mutant(
        "pseudopoly/sequences.py",
        "exp(log_abs_exact(t) / n) if t",
        "abs(t) ** (1 / n) if t",
        ("tests/test_sequences.py::TestGrowthRate::test_roots_are_root_abs_exact",),
        "a growth root is not root_abs_exact's float",
    ),
    Mutant(
        "pseudopoly/formats.py",
        'if "n" in text:',
        'if "nan" in text:',
        (PROPS + "test_float_lists_match_json_encoder",),
        "an infinity in a float list is written as inf, not Infinity",
    ),
    # at least 5 Leja points
    Mutant(
        "pseudopoly/analytic.py",
        "if m < 5:",
        "if m < 4:",
        (
            "tests/test_analytic.py::TestTransfiniteDiameterEstimate::test_parameter_validation",
            "tests/test_cli.py::TestThetaAndCapacity::test_fewer_than_five_leja_points_is_input_error",
        ),
        "4 Leja points, where the half-size fit divides by zero, are accepted",
    ),
    # each sequence owns its remainder-sequence facts
    Mutant(
        HANKEL,
        "if held is None or len(held[2]) < n:",
        "if held is None or len(held[2]) < n - 1:",
        (FACTS + "test_facts_at_a_smaller_order_are_extended_once",
         PROPS + "test_memoized_determinants_never_cross_sequences"),
        "facts one order short of the order asked are served as they are",
    ),
    Mutant(
        HANKEL,
        '        object.__setattr__(seq, "_hankel", held)\n',
        "",
        (FACTS + "test_interleaved_sequences_run_once_each",),
        "the facts are not kept, so every order runs the remainder sequence again",
    ),
)


def _pytest(src: Path, killers, cwd: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", *PYTEST_ARGS,
               *(str(ROOT / k) for k in killers)]
    return subprocess.run(
        command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def main() -> int:
    live = [m for m in MUTANTS if not m.equivalent]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        killers = sorted({k for m in live for k in m.killers})
        if _pytest(src, killers, Path(tmp)) != 0:
            print("the killers fail on the unchanged source", file=sys.stderr)
            return 1
        for mutant in live:
            path = src / mutant.file
            original = path.read_text()
            if original.count(mutant.snippet) != 1:
                failures.append(f"snippet not found once: {mutant.reason}")
                continue
            path.write_text(original.replace(mutant.snippet, mutant.replacement))
            try:
                code = _pytest(src, mutant.killers, Path(tmp))
            finally:
                path.write_text(original)
            if code:
                print(f"killed (pytest exit {code}): {mutant.file}: {mutant.reason}")
            else:
                failures.append(f"survived: {mutant.file}: {mutant.reason}")
    for line in failures:
        print(line, file=sys.stderr)
    equivalent = len(MUTANTS) - len(live)
    print(f"{len(live) - len(failures)} of {len(live)} mutants killed, "
          f"{equivalent} equivalent not run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
