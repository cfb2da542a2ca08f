"""Every seed-0 benchmark operation prints what the benchmark accepts.

The benchmark checks each operation's output with
``workloads.check_output`` and, on seed 0, against the sha256 recorded in
``bench/reference_digests.json``; a change to report bytes fails it.
Running the same seed-0 passes here catches that change with the tests.
The workloads need only the standard library, so they are loaded from
their file, and nothing under ``bench/`` is written.
"""
import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pseudopoly import cli

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = json.loads((_BENCH / "reference_digests.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_outputs_match_the_reference(workload, monkeypatch):
    assert REFERENCE["seed"] == 0
    ops = workloads.build_pass(workload, 0)
    digests = REFERENCE["workloads"][workload]
    assert len(digests) == len(ops)
    failures = []
    for i, (op, digest) in enumerate(zip(ops, digests)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(op.stdin))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.run_cli(list(op.argv))
        stdout = out.getvalue()
        reason = workloads.check_output(op, code, stdout)
        if reason is None and hashlib.sha256(stdout.encode()).hexdigest() != digest:
            reason = "stdout differs from the reference digest"
        if reason is not None:
            failures.append(f"op {i} {op.kind} {' '.join(op.argv)}: {reason}")
    assert failures == []
