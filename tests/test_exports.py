"""The package's export list matches what the package defines.

A name removed from a submodule must leave ``__all__`` too, and a name
re-exported at the top level must be listed there, so that ``from
pseudopoly import *`` gives exactly the public API.
"""
import types

import pseudopoly


def test_all_is_sorted():
    assert pseudopoly.__all__ == sorted(pseudopoly.__all__)


def test_all_lists_every_public_name_and_no_other():
    public = {
        name
        for name, value in vars(pseudopoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert pseudopoly.__all__ == sorted(public)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from pseudopoly import *", namespace)
    assert set(pseudopoly.__all__) <= namespace.keys()
