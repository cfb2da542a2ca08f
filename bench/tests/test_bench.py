"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q bench/tests

They run part of each workload in-process (about half a minute in all).
"""
from __future__ import annotations

import hashlib
import io
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from pseudopoly import cli  # noqa: E402
from pseudopoly.hankel import hankel_determinant  # noqa: E402
from pseudopoly.sequences import ExactSequence  # noqa: E402
from workloads import (  # noqa: E402
    DET_MODULUS, REQUIRED_SPANS, WORKLOADS, build_pass, c_finite, check_output,
    hankel_minors_mod, poly_values,
)


def _inputs(ops):
    return [(op.argv, op.stdin) for op in ops]


def test_inputs_are_deterministic_per_seed_and_differ_across_seeds():
    for name in WORKLOADS:
        first = _inputs(build_pass(name, 11))
        assert first == _inputs(build_pass(name, 11))
        assert first != _inputs(build_pass(name, 12))


def test_reference_digests_cover_every_operation():
    stored = json.loads(run.REFERENCE.read_text())
    assert stored["seed"] == run.REFERENCE_SEED
    for name in WORKLOADS:
        assert len(stored["workloads"][name]) == len(build_pass(name, run.REFERENCE_SEED))


@pytest.mark.parametrize("name, rational", [("nonrational", False), ("rational", True)])
def test_reference_seed_audits_report_the_built_rationality(name, rational):
    reference = json.loads(run.REFERENCE.read_text())["workloads"][name]
    for op, digest in zip(build_pass(name, run.REFERENCE_SEED), reference):
        text = _stdout(op)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert json.loads(text)["rationality"]["rational"] is rational, op.kind


def _stdout(op) -> str:
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(op.stdin)
    try:
        with redirect_stdout(out):
            cli.run_cli(list(op.argv))
    finally:
        sys.stdin = saved
    return out.getvalue()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_matches_untraced_and_confirms_purpose(name):
    ops = build_pass(name, run.REFERENCE_SEED)[:40]
    runner = run.Runner(cli, ops)
    for i in range(len(ops)):
        runner.execute(i)
    untraced = list(runner.digest)

    spans = tracer.Tracer()
    spans.install()
    runner.tracer = spans
    try:
        for i in range(len(ops)):
            runner.execute(i)
    finally:
        spans.uninstall()
    assert not runner.failures  # a traced output differing from untraced fails
    assert runner.digest == untraced
    assert not hasattr(cli.run_cli, "__wrapped__")  # uninstall restored it

    layers = tracer.layer_metrics(spans.spans, defaultdict(lambda: 1.0))
    total = layers["trace.pass_s"]
    if name == "nonrational":
        spans.require(REQUIRED_SPANS[name])
        assert layers["hankel.detect_self_s"] > 0.8 * total
        assert layers["hankel.determinant_s"] < 0.1 * total
    elif name == "rational":
        spans.require(REQUIRED_SPANS[name])
        times = {k: v for k, v in layers.items()
                 if k.endswith("_s") and k != "trace.pass_s"}
        assert max(times, key=times.get) == "hankel.determinant_s"
    else:
        assert layers["audit.calls"] == layers["hankel.detect_calls"] == 0


@pytest.mark.parametrize("terms", [
    poly_values([0, 3, -1, 2], 41),         # det H_1 = 0, then rank 4
    c_finite([2, -1, 3], [0, 0, 1], 30),   # leading zeros
    [0] * 21,
    [(-1) ** n * (n * n + 7) for n in range(33)],
])
def test_hankel_minors_mod_match_the_programs_exact_determinants(terms):
    order = (len(terms) + 1) // 2
    seq = ExactSequence(tuple(terms))
    exact = [hankel_determinant(seq, n) % DET_MODULUS for n in range(1, order + 1)]
    assert hankel_minors_mod(terms, order) == exact


@pytest.mark.parametrize("name", ["nonrational", "rational"])
def test_audit_check_catches_a_wrong_determinant_or_rationality(name):
    op = build_pass(name, 5)[0]
    report = json.loads(_stdout(op))
    code = 1 if report["verdict"] == "congruence_violation" else 0
    assert check_output(op, code, json.dumps(report)) is None

    wrong_det = json.loads(json.dumps(report))
    n = len(wrong_det["hankel"]) - 1
    wrong = str(int(wrong_det["hankel"][n]["det"]) + 1)
    wrong_det["hankel"][n]["det"] = wrong_det["rationality"]["det_table"][n] = wrong
    assert "is wrong" in check_output(op, code, json.dumps(wrong_det))

    if name == "nonrational":
        spurious = json.loads(json.dumps(report))
        spurious["rationality"]["rational"] = True
        assert "reported rational" in check_output(op, code, json.dumps(spurious))


def test_harrell_davis_quantiles():
    grid = [float(v) for v in range(101)]
    assert run.harrell_davis(grid, 0.5) == pytest.approx(50.0)
    assert 89.0 < run.harrell_davis(grid, 0.9) < 92.0
    assert run.harrell_davis([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)


def test_a_silent_wrapper_fails_loudly():
    spans = tracer.Tracer()
    with pytest.raises(tracer.TraceError, match="hankel.hankel_determinant"):
        spans.require({"hankel.hankel_determinant"})


def test_self_time_excludes_traced_children():
    spans = [
        ("hankel.detect_rationality", 0.0, 10.0, None, 0),
        ("hankel.hankel_determinant", 1.0, 2.0, 0, 0),
        ("polyarith.gcd_poly", 3.0, 6.0, 0, 0),
        ("polyarith.trim", 4.0, 5.0, 2, 0),
    ]
    layers = tracer.layer_metrics(spans, defaultdict(lambda: 2.0))
    assert layers["hankel.detect_self_s"] == 2.0 * (10 - 1 - 3)
    assert layers["hankel.determinant_s"] == 2.0
    assert layers["polyarith.s"] == 6.0  # the nested trim is not counted twice


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rational", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
