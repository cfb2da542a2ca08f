"""Benchmark of the ``pseudopoly`` CLI.

    python3 bench/run.py --workload nonrational --seed 3 --seconds 30 --trace 0

One operation is one in-process ``pseudopoly.cli.run_cli(argv)`` call with
the input text on stdin and stdout captured: the ``pseudopoly`` command
minus interpreter start, which ``setup_s`` measures.  One process, one
thread, closed loop, one client.  Every output is checked (see
``workloads.check_output``); on the reference seed each stdout must also
match the sha256 recorded from the seed commit.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs untraced
passes, then the same passes with the outside-in tracer installed, and
prints the per-layer metrics.  The last stdout line is one JSON object;
a fuller record, with the environment stamp, goes to ``bench/out/``.

All times are host-speed normalised: each operation's wall time is
multiplied by KERNEL_NOMINAL_S over the time of the calibration kernel
measured right before and after it, and each import time by
IMPORT_NOMINAL_S over the time of a reference import measured right after
it (``calibration.py``; README.md says why).
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from calibration import IMPORT_NOMINAL_S, KERNEL_NOMINAL_S, REFERENCE_IMPORTS, probe
from tracer import LAYERS, Tracer, layer_metrics
from workloads import REQUIRED_SPANS, WORKLOADS, build_pass, check_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference_digests.json"
REFERENCE_SEED = 0

SETUP_REPS = 9
PROBE_EVERY_S = 0.1

# Run by a fresh interpreter: print the wall seconds of one import statement.
_TIMED_IMPORT = """
from time import perf_counter
start = perf_counter()
import {}
print(perf_counter() - start)
"""


class Normaliser:
    """Scales wall times to nominal host speed.  Operations are buffered
    until the next probe, then scaled by KERNEL_NOMINAL_S over the mean of
    the probes before and after them."""

    def __init__(self):
        self.last = probe()
        self.last_at = perf_counter()
        self.pending: list[tuple[int, int, float]] = []
        # (execution id, operation index, normalised seconds, factor)
        self.scaled: list[tuple[int, int, float, float]] = []

    def add(self, execution: int, op: int, wall: float) -> None:
        self.pending.append((execution, op, wall))
        if perf_counter() - self.last_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        now = probe()
        factor = KERNEL_NOMINAL_S / ((self.last + now) / 2)
        self.scaled += [(e, op, wall * factor, factor) for e, op, wall in self.pending]
        self.pending.clear()
        self.last, self.last_at = now, perf_counter()


class Runner:
    """Executes operations, checks outputs and counts failures."""

    def __init__(self, cli, ops, reference=None):
        self.tracer = None  # when set, spans are tagged with the execution id
        self.cli = cli
        self.ops = ops
        self.reference = reference
        self.digest = [None] * len(ops)
        self.code = [None] * len(ops)
        self.out_bytes = [0] * len(ops)
        self.bad = [False] * len(ops)
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, i: int) -> float | None:
        """Run operation i; its wall seconds, or None when it failed."""
        op = self.ops[i]
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(op.stdin)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                code = self.cli.run_cli(list(op.argv))
                wall = perf_counter() - start
        except Exception as exc:  # a crashing operation is a counted failure
            return self._fail(i, f"{type(exc).__name__}: {exc}")
        finally:
            sys.stdin = saved_stdin
        text = out.getvalue()
        data = text.encode()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest[i] is None:
            self.digest[i], self.code[i] = digest, code
            self.out_bytes[i] = len(data)
            try:
                reason = check_output(op, code, text)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason is None and self.reference and digest != self.reference[i]:
                reason = "stdout differs from the reference digest"
            if reason is not None:
                self.bad[i] = True
                return self._fail(i, reason)
        elif (digest, code) != (self.digest[i], self.code[i]):
            return self._fail(i, "output changed between executions")
        if self.bad[i]:
            return self._fail(i, "repeat of a failed operation")
        return wall

    def _fail(self, i: int, reason: str) -> None:
        op = self.ops[i]
        self.failures.append(f"op {i} {op.kind} {' '.join(op.argv)}: {reason}")
        return None


def run_passes(runner, normaliser, seconds, *, stop_mid_pass, after_op=None):
    """Closed loop over passes within ``seconds`` of wall time.  At least one
    pass always completes.  With ``stop_mid_pass`` the loop ends at the
    first operation past the deadline; without it, before a whole pass that
    would overrun it.  Returns the number of whole passes."""
    n_ops = len(runner.ops)
    start = perf_counter()
    passes = 0
    while True:
        for i in range(n_ops):
            execution = runner.attempted
            wall = runner.execute(i)
            if wall is not None:
                normaliser.add(execution, i, wall)
            if after_op is not None:
                after_op()
            if stop_mid_pass and passes and perf_counter() - start >= seconds:
                normaliser.flush()
                return passes
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds if stop_mid_pass else elapsed * (passes + 1) / passes > seconds:
            normaliser.flush()
            return passes


class SetupSampler:
    """Times ``import pseudopoly.cli`` in fresh interpreters, spread over the
    run so that the median sees the host in more than one of its states,
    each followed by the reference import in another fresh interpreter.
    The first pair is untimed: it writes the bytecode caches."""

    def __init__(self, seconds: float):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.every = seconds / SETUP_REPS
        self.scaled: list[float] = []
        self.walls: list[float] = []
        self._one()
        self.scaled.clear()
        self.walls.clear()
        self.start = perf_counter()

    def _import_s(self, modules: str) -> float:
        out = subprocess.run([sys.executable, "-c", _TIMED_IMPORT.format(modules)],
                             env=self.env, cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout
        return float(out)

    def _one(self) -> None:
        wall = self._import_s("pseudopoly.cli")
        self.walls.append(wall)
        self.scaled.append(wall * IMPORT_NOMINAL_S / self._import_s(REFERENCE_IMPORTS))

    def __call__(self) -> None:
        """Take the next sample when its turn has come."""
        if perf_counter() - self.start >= len(self.scaled) * self.every:
            self._one()

    def result(self) -> tuple[float, float]:
        """Median (normalised, wall) seconds over at least SETUP_REPS imports."""
        while len(self.scaled) < SETUP_REPS:
            self._one()
        return statistics.median(self.scaled), statistics.median(self.walls)


def environment() -> dict:
    """Stamp that keeps results from different hosts or interpreters apart."""
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # git is not installed
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "pseudopoly").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "kernel_nominal_s": KERNEL_NOMINAL_S,
        "import_nominal_s": IMPORT_NOMINAL_S,
    }


def harrell_davis(values: list[float], q: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the q-quantile: every order statistic,
    weighted by the Beta((n+1)q, (n+1)(1-q)) probability of its rank
    interval ((i-1)/n, i/n], integrated by the midpoint rule.

    Operation costs step with N (about 14% per step near the nonrational
    median), so a single order statistic jumps between steps from seed to
    seed.  Averaging the neighbouring ranks cut the spread of the
    nonrational median over ten seeds from 0.095 to 0.034.
    """
    x = sorted(values)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    width = 1 / (n * steps)
    weights = []
    for i in range(n):
        points = ((i * steps + j + 0.5) * width for j in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t)
                                    + (b - 1) * math.log1p(-t)) for t in points))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def _per_op_medians(scaled, n_ops) -> list[float]:
    samples = [[] for _ in range(n_ops)]
    for _, op, seconds, _ in scaled:
        samples[op].append(seconds)
    return [statistics.median(s) for s in samples if s]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(cli, ops, reference, seconds) -> tuple[Runner, dict, dict]:
    harness_rss = _peak_rss_mb()  # interpreter, numpy, program and inputs
    setup = SetupSampler(seconds)
    runner = Runner(cli, ops, reference)
    normaliser = Normaliser()
    passes = run_passes(runner, normaliser, seconds, stop_mid_pass=True, after_op=setup)
    setup_s, setup_wall = setup.result()
    per_op = _per_op_medians(normaliser.scaled, len(ops))
    walls = [seconds / factor for _, _, seconds, factor in normaliser.scaled]
    p90 = harrell_davis(per_op, 0.9)
    metrics = {
        "op_p50_s": (harrell_davis(per_op, 0.5), "s"),
        "op_p90_s": (p90, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    detail = {
        "whole_passes": passes,
        "ops_per_pass": len(ops),
        "p90_samples": len(per_op),
        "p90_samples_beyond": sum(1 for s in per_op if s > p90),
        "rss_before_timed_mb": harness_rss,
        "executions": len(normaliser.scaled),
        "wall_op_p50_s": statistics.median(walls),
        "setup_wall_s": setup_wall,
        "speed_factor_median": statistics.median(f for *_, f in normaliser.scaled),
        "per_op_s": per_op,
    }
    return runner, metrics, detail


def traced(cli, ops, reference, seconds, workload, spans_path) -> tuple[Runner, dict, dict]:
    runner = Runner(cli, ops, reference)
    plain = Normaliser()
    passes = run_passes(runner, plain, seconds / 2, stop_mid_pass=False)
    tracer = Tracer()
    normaliser = Normaliser()
    tracer.install()
    runner.tracer = tracer
    try:
        # The same operations, in the same order and number, as untraced.
        for _ in range(passes):
            run_passes(runner, normaliser, 0, stop_mid_pass=False)
    finally:
        tracer.uninstall()
    tracer.require(REQUIRED_SPANS[workload])
    # A failed execution has no factor of its own; its spans get the median.
    scale = defaultdict(lambda: statistics.median(f for *_, f in normaliser.scaled))
    scale.update((execution, factor) for execution, _, _, factor in normaliser.scaled)
    layers = {k: v / passes for k, v in layer_metrics(tracer.spans, scale).items()}
    untraced_s = sum(s for _, _, s, _ in plain.scaled)
    traced_s = sum(s for _, _, s, _ in normaliser.scaled)
    counts = {
        "hankel.det_max_bits": tracer.counts["det_max_bits"],
        "hankel.recurrence_order_sum": tracer.counts["recurrence_order_sum"] / passes,
        "sequences.congruence_pairs": tracer.counts["congruence_pairs"] / passes,
        "formats.output_bytes": sum(runner.out_bytes),
    }
    metrics = {name: (value, "count" if LAYERS[name][0] == "calls" else "s")
               for name, value in layers.items()}
    metrics.update((name, (value, "count")) for name, value in counts.items())
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)
    # Near 0 and of either sign, so a detail rather than a metric.
    detail = {"passes_each_side": passes, "spans": len(tracer.spans),
              "untraced_pass_s": untraced_s / passes, "traced_pass_s": traced_s / passes,
              "trace_overhead_frac": traced_s / untraced_s - 1}
    return runner, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pseudopoly" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/pseudopoly", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pseudopoly import cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    ops = build_pass(args.workload, args.seed)
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        runner, metrics, detail = traced(cli, ops, reference, args.seconds,
                                         args.workload, OUT / f"spans-{tag}.jsonl")
    else:
        runner, metrics, detail = end_to_end(cli, ops, reference, args.seconds)
    failed = len(runner.failures)
    env = environment()

    for line in runner.failures[:20]:
        print("FAILED", line, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in detail.items() if k != "per_op_s"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':28s} {failed / runner.attempted:.6g} ratio "
              f"({failed} failed / {runner.attempted} attempted)")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"result": result, "detail": detail, "env": env,
         "failures": runner.failures}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
