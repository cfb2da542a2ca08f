"""Run the benchmark once per seed and summarise every metric.

    python3 bench/repeat.py --seeds 1-10 [--out bench/baseline.json]

Runs are sequential, each a fresh ``bench/run.py --trace 0`` process on
every workload of BENCHMARK.json, with its ``run_seconds``.  For each workload and metric it prints
the median, the quartiles and the spread (q3 - q1) / median, the figure the
bounds in BENCHMARK.json are set against; ``--out`` also writes them, with
every value and the environment stamp, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"run_seconds": config["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in args.seeds:
            result, summary["env"] = run_once(workload, seed, config["run_seconds"])
            results.append(result)
        metrics = {
            name: {"unit": results[0]["metrics"][name]["unit"],
                   **summarise([r["metrics"][name]["value"] for r in results])}
            for name in results[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"{workload:12s} {name:28s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
