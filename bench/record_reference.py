"""Record the sha256 of every operation's stdout on the reference seed.

    python3 bench/record_reference.py

Each output is checked before its digest is stored, and the file notes the
commit and source digest it came from.  The stored digests were recorded at
the seed commit; re-record only when the benchmark's inputs change, never to
absorb a change in the program's output.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCE, REFERENCE_SEED, SRC, Runner, environment
from workloads import WORKLOADS, build_pass


def main() -> int:
    sys.path.insert(0, str(SRC))
    from pseudopoly import cli

    digests = {}
    for name in WORKLOADS:
        runner = Runner(cli, build_pass(name, REFERENCE_SEED))
        for i in range(len(runner.ops)):
            runner.execute(i)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        digests[name] = runner.digest
    env = environment()
    REFERENCE.write_text(json.dumps({
        "seed": REFERENCE_SEED,
        "git_commit": env["git_commit"],
        "src_sha256": env["src_sha256"],
        "workloads": digests,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
