"""Checks on the source text itself: every committed mutant still names
code that exists, the package parses as the Python it declares, no
function rebinds a module global, and one routine makes the growth floats."""
import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = {
    str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
    for path in sorted(SRC.rglob("*.py"))
}


@pytest.mark.parametrize(
    "mutant", MUTANTS, ids=[f"{m.file.rsplit('/', 1)[-1]}-{i}" for i, m in enumerate(MUTANTS)]
)
def test_each_mutant_snippet_occurs_once_in_src(mutant):
    assert sum(text.count(mutant.snippet) for text in SOURCES.values()) == 1
    assert SOURCES[mutant.file].count(mutant.snippet) == 1
    assert mutant.snippet != mutant.replacement
    assert mutant.equivalent or mutant.killers


@pytest.mark.parametrize("name", [n for n in SOURCES if n.startswith("pseudopoly")])
def test_source_parses_as_python_3_10(name):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(SOURCES[name], filename=name, feature_version=(3, 10))


def test_no_function_rebinds_a_module_global():
    # state that a call leaves behind lives on the object it was made for
    # (ExactSequence's Hankel facts), not in a module that every caller shares
    offenders = [
        name for name, text in SOURCES.items()
        if any(isinstance(node, ast.Global) for node in ast.walk(ast.parse(text)))
    ]
    assert offenders == []


def _names_referred_to(text):
    """Every name a module's code refers to; an attribute of a module name,
    or a name imported from math, is written out as math.exp and so on."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            prefix = "math." if node.module == "math" else ""
            found.update(prefix + alias.name for alias in node.names)
    return found


def test_growth_floats_come_from_one_routine():
    # every |x|^(1/k) a report prints is core.root_abs_exact's
    # exp(log_abs_exact(x) / k); the only other exp and log are analytic's
    # theta sum and Leja estimate, which work on floats and small ints
    refers = {
        name: _names_referred_to(text)
        for name, text in SOURCES.items() if name.startswith("pseudopoly")
    }
    assert [n for n, r in refers.items() if "log_abs_exact" in r] == ["pseudopoly/core.py"]
    for function in ("math.exp", "math.log"):
        users = [n for n, r in refers.items() if function in r]
        assert users == ["pseudopoly/analytic.py", "pseudopoly/core.py"], function
