"""Every call site the benchmark's tracer wraps must exist, and fire.

``bench/tracer.py`` replaces each (module, name) in ``SITES`` with a
timing wrapper, so a name moved out of a module breaks a traced benchmark
run, and a call that a refactor drops leaves a wrapper that the traced run
requires silent.  The tracer and the workloads need only the standard
library, so they are loaded from their files here.
"""
import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pseudopoly import cli

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_every_tracer_site_resolves():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in tracer.SITES
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_pass_fires_every_required_span(workload, monkeypatch):
    # the benchmark's traced pass raises TraceError on the same condition
    ops = workloads.build_pass(workload, 0)
    traced = tracer.Tracer()
    traced.install()
    try:
        for op in ops:
            monkeypatch.setattr(sys, "stdin", io.StringIO(op.stdin))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.run_cli(list(op.argv))
    finally:
        traced.uninstall()
    traced.require(workloads.REQUIRED_SPANS[workload])
