"""Hypothesis profiles for the property files, tests/test_properties.py and
tests/test_cli_contract.py; tests/conftest.py imports this module first.

``tier1``, loaded unless pytest's ``--hypothesis-profile`` names another,
draws the same examples on every run, so a failure that one run finds
recurs in the next.  ``explore`` draws new examples, ten times as many as
each file's tier-1 count:

    PYTHONPATH=src python -m pytest -q -p no:cacheprovider \\
        --hypothesis-profile=explore tests/test_properties.py tests/test_cli_contract.py

Each failure that it finds is added to its test as an @example.
"""
from hypothesis import settings

settings.register_profile("tier1", deadline=None, database=None, derandomize=True)
settings.register_profile("explore", deadline=None, database=None)
settings.load_profile("tier1")


def examples(tier1_count: int) -> settings:
    """The loaded profile with ``tier1_count`` examples, ten times as many
    when it draws new ones."""
    return settings(max_examples=tier1_count * (1 if settings.default.derandomize else 10))
