"""Golden corpus: exit codes and stdout digests of fixed CLI calls.

Refactors must keep every report byte-identical.  Each case runs one
``run_cli`` call on a fixed input and compares the exit code and the
sha256 of stdout with the values recorded before the refactor.  To see the
current values, run ``PYTHONPATH=src python tests/test_golden.py``.
"""
import contextlib
import hashlib
import io
import math
import random
import tempfile
from pathlib import Path

import pytest

from pseudopoly.cli import run_cli

GENERATED = {
    "primary": ["gen", "primary", "--n-max", "30", "--seed", "1"],
    "hall": ["gen", "hall", "--n-max", "30", "--seed", "2"],
    "primary-160": ["gen", "primary", "--n-max", "160", "--seed", "3"],
}


def _fixed_inputs() -> dict[str, list[int]]:
    fib = [0, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    cfinite = [1, 0, 2]
    while len(cfinite) < 60:
        cfinite.append(2 * cfinite[-1] + 3 * cfinite[-2] - cfinite[-3])
    rec12 = [1, 0, -1, 2, 0, 1, -1, 0, 1, 0, 1, -3]  # a_n = sum rec12[i-1] a_(n-i)
    cfinite12 = [1, 0, 2, -1, 3, 0, 1, 1, -2, 0, 1, 2]
    while len(cfinite12) < 60:
        cfinite12.append(sum(c * cfinite12[-1 - i] for i, c in enumerate(rec12)))
    base = [1, 1, 1]  # 1/(1 - x - 2x^3)
    while len(base) < 40:
        base.append(base[-1] + 2 * base[-3])
    rng = random.Random(20)
    wide = random.Random(160)
    return {
        "cubic": [n**3 - 7 * n + 2 for n in range(40)],
        "fibonacci": fib,
        "random": [rng.randint(-1000, 1000) for _ in range(20)],
        "cfinite": cfinite,
        "random-160": [wide.randint(-10**6, 10**6) for _ in range(160)],
        "octic": [n**8 - 5 * n**3 + 2 for n in range(40)],
        "cfinite12": cfinite12,
        "square": [sum(base[i] * base[n - i] for i in range(n + 1)) for n in range(40)],
        "shifted-line": [2310] + list(range(1, 12)),
        "triangular": [math.comb(n, 2) for n in range(20)],
    }


INPUTS = ["cubic", "fibonacci", "primary", "hall", "random"]
COMMANDS = {
    "audit-json": ["audit", "--format", "json"],
    "audit-csv": ["audit", "--format", "csv"],
    "forward": ["transform", "forward"],
    "inverse": ["transform", "inverse"],
    "hankel": ["hankel", "table"],
    "rational": ["rational", "detect"],
    "congruences": ["check", "congruences", "--mode", "full"],
}
# Reports made mostly of repeated rows: 11,965 congruence violations, a
# Hankel table of orders 1..80 (primes up to 79 as valuation keys), and the
# audit of an order-3 C-finite prefix with 506 violations.
ROW_HEAVY = [
    ("congruences-random-160", "random-160", COMMANDS["congruences"]),
    ("hankel-primary-160", "primary-160", COMMANDS["hankel"]),
    ("audit-json-cfinite", "cfinite", COMMANDS["audit-json"]),
]
# Audits whose denominators are larger than those above: (1 - x)^9 for a
# degree-8 polynomial, an order-12 recurrence whose denominator has leading
# coefficient 3, and (1 - x - 2x^3)^2, whose squarefree factors repeat.
LARGE_DENOMINATORS = [
    (f"audit-json-{name}", name, COMMANDS["audit-json"])
    for name in ("octic", "cfinite12", "square")
]
# An audit whose table stops below the largest order, and two audits whose
# denominators are powers of (1 - x) without a polynomial verdict: (1 - x)^2
# with no certificate (a_0 moved off the line by 2310 = P_11), and (1 - x)^3
# for C(n, 2), which breaks the congruences.
SHORT_TABLES = [
    ("audit-json-cubic-n-max-5", "cubic", COMMANDS["audit-json"] + ["--n-max", "5"]),
    ("audit-json-shifted-line", "shifted-line", COMMANDS["audit-json"]),
    ("audit-json-triangular", "triangular", COMMANDS["audit-json"]),
]
# The Hall-style generator at the CLI's --n-max limit, where its modulus
# lcm(1..1999) has 2,878 bits.
CLI_LIMIT = [("gen-hall-2000", None, ["gen", "hall", "--n-max", "2000", "--seed", "1"])]
CASES = (
    [(f"gen-{name}", None, GENERATED[name]) for name in ("primary", "hall")]
    + [(f"{cmd}-{inp}", inp, argv) for cmd, argv in COMMANDS.items() for inp in INPUTS]
    + [("theta-300", None, ["theta", "table", "--n-max", "300"])]
    + ROW_HEAVY
    + LARGE_DENOMINATORS
    + SHORT_TABLES
    + CLI_LIMIT
)

# (exit code, sha256 of stdout), recorded before the forward-difference and
# running-theta refactor.
GOLDEN = {
    "gen-primary": (0, "e4a9287f4255cf355c779190bde20d4228422dea5ca0bee47681ddf5d4a48c8d"),
    "gen-hall": (0, "ba526e2b509822088c906dc4e9dad13943fc74306057918c35c6726c5fb4437c"),
    "audit-json-cubic": (0, "7e3c5449939af35ca8d538baeb65dae14ac5975fb799c5484448ff04e07dd545"),
    "audit-json-fibonacci": (1, "2fd2b04029b49199918d8a6e70e927d39d98aabceeabe01685eef483738f29bf"),
    "audit-json-primary": (0, "26d5c9acad1fda3d22bc1a5ebde839775dce34145543697d470c1b87add77195"),
    "audit-json-hall": (0, "d4c65cccaf29d7e843fc7e8f84f14c162153d91521a2f783049cd6af6c5445ae"),
    "audit-json-random": (1, "593a20906e9bcd17452852d9ea50c47f3f1c9da99c7883bad530676210607e39"),
    "audit-csv-cubic": (0, "6a26855da04f41d3255eee8629859835f7235fd2951abd69985875f0a1b8d02d"),
    "audit-csv-fibonacci": (1, "bcf7146e64cbd8b93c0b3edaf598a6cf44bd0292530147586de248d2558a7646"),
    "audit-csv-primary": (0, "7cb523349e56ba97800cffc2c073383a7340055cdaff7257c54d30cbc52b0419"),
    "audit-csv-hall": (0, "e8c5175afaceaef69697b59a20a323e31ccce2c4d7ea0edfa2207a56882ad8f1"),
    "audit-csv-random": (1, "3091d875a5a2694a4950bfaa923e82623f79677279d0a2e9526b0d5c489a8e94"),
    "forward-cubic": (0, "9f7b2422fb150d726dbc18aeb27f62b2e59834c6a23bc7e02098731380a07cc1"),
    "forward-fibonacci": (0, "ee56ce06d3c12491e8c0257dd503f856f48e7beaf2894774a05d7941106648c8"),
    "forward-primary": (0, "68dce854389f286cb7d16286f16fe561650cef54eb805b4a13060a65727760fc"),
    "forward-hall": (0, "92a8a91f025d899bc210712e0370cb2b2226f73cf43762e26107bd903479ff1d"),
    "forward-random": (0, "2c2531f87d6824079aea281c3cac8010ecf60e08747a178f8f75062c13633d5a"),
    "inverse-cubic": (0, "e23821d254c23c10cc97232c58bd8291fb65cbad0007f5d07df4b6f84aa9e758"),
    "inverse-fibonacci": (0, "8ed25e43dc11699445a450f1f22c064ea94e417d7ec672b6a75f551ab587508b"),
    "inverse-primary": (0, "3219cf9de69d6b630f8e09b7882315a808c443b177b547400ee59ad483ea56ce"),
    "inverse-hall": (0, "9097d49cc2a42bd0d7eb0a5ea9fc3a63d28eb2491de48af244e99f4d2ea3deb1"),
    "inverse-random": (0, "9fbd64f8257c3566a83342679c6130a927f8883947aca236ea670ebb90468373"),
    "hankel-cubic": (0, "910bd301f7826cc299cf43d5743ca7242da42e23132f38596f5d49ff81531393"),
    "hankel-fibonacci": (0, "4fb13d37c4e5029a7931dc52a64296976aaabd3d6cca0449da549ed2a75a111a"),
    "hankel-primary": (0, "a1486108263fef4964f7e8cac4518d43c50edb38563927d51cb33c0c6d33e176"),
    "hankel-hall": (0, "1d07c41815673f70da1ba376426cbf11bf7baa11a48710730c1e00269cf3236e"),
    "hankel-random": (0, "4ddcb3c3768a0e99e64099a26f73d171cbf49ffb5296abe9304f4beacf6fc076"),
    "rational-cubic": (0, "4b1b2616e70245eab3e7f3886ba797bcc63b73fb4907c9e5aad976b5f54ba799"),
    "rational-fibonacci": (0, "2ce0f7f93b11ff4493985c6b61856c8600cecb902e32bc6c2cfb3ea43209b2a0"),
    "rational-primary": (0, "12e757b6c1172cbebe6cb2a431878c6f3293f5c471dd8eed4cfcf4e1e92ae881"),
    "rational-hall": (0, "4e41636b6b08434abfe8837cd7710ea1d0b0f16f879a9b1e8e13eda46666d2a0"),
    "rational-random": (0, "ea63bb7f5d7567c7074ab7b55ea36a7ae67aaa2b6de3010450da3031ce76c6fa"),
    "congruences-cubic": (0, "012220177f4f7c4c48eab69a1b4385a07d5c9b712e9c8c90b1235987bebc7958"),
    "congruences-fibonacci": (1, "adf20605d9c9b03f15ad87b7ea53aa0a1e4d5f59be1c1e6c9fdaf2736fbecf31"),
    "congruences-primary": (1, "4ba4f77e023ac02d4387db915a838988b55c1bc50dcad6d52421582afb70be2b"),
    "congruences-hall": (0, "d0a0a905780e434c6a87b61cd7bf6ecbb268903b3745838190af2b5118e050d6"),
    "congruences-random": (1, "791e00e0994f914a6e8a20a07f69eb7131878efe9a0e606d2da9066cbfed28dc"),
    "theta-300": (0, "ffd4fd81040a19e938e291d6bce1a7fd9019c297684768ef65cefbe0fdf3692b"),
    # recorded before the report rows were written by one f-string each
    "congruences-random-160": (1, "5f8fba2bd4fc39322cba2395d67843a8a976ac5c44f0da8656ff3a61928a5cfe"),
    "hankel-primary-160": (0, "f09692b5fefb12b31515413091494e101d063202eceb3da50fe7f4e3d48e03ef"),
    "audit-json-cfinite": (1, "5927912ad0bf63affba26e90c0cb170845b9cdb1af2d3a6e94088b98d5098258"),
    # recorded before polyarith moved from arithmetic over Q to integers
    "audit-json-octic": (0, "1a1b47eeb12520998bdef06b6c780962e8df4f1a37e8d0fc5aaffcba728b5b8a"),
    "audit-json-cfinite12": (1, "5ac8a588e3c6ef6ebd079874e6d121935ac4d987331c84a482eab9b0ad1803c2"),
    "audit-json-square": (1, "1c4488c9ed66a6ebba6dc53436324982047229dd3ec75335fe8006ec9d86892e"),
    # recorded before the audit ran its detection ahead of its table
    "audit-json-cubic-n-max-5": (0, "4cc6535e22f2d1c87d87137958f4d3433e113e7422d2b4dc93059c43973b23d7"),
    "audit-json-shifted-line": (0, "d22e194bee1c7fdab56f903baf393347a37eb75a3208444335a55f112cadfad1"),
    "audit-json-triangular": (1, "a5d14485e402aea196cb4e9a2a482e8e915b1a482de1af0858bf26899ae4cd1c"),
    # recorded before the Hall terms were read off the forward-difference table
    "gen-hall-2000": (0, "5e3d14b8f97e6777d2c4c09456988c65d19d9d7e4d5a824490ac1b03ab5e2d39"),
}


def _call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    return code, out.getvalue()


def _run(input_name: str | None, argv: list[str], tmp_dir: Path) -> tuple[int, str]:
    if input_name in GENERATED:
        code, text = _call(GENERATED[input_name])
        assert code == 0
    elif input_name is not None:
        text = "\n".join(str(t) for t in _fixed_inputs()[input_name]) + "\n"
    if input_name is not None:
        path = tmp_dir / f"{input_name}.txt"
        path.write_text(text)
        argv = argv + ["--input", str(path)]
    code, out = _call(argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case_id,input_name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(case_id, input_name, argv, tmp_path):
    assert _run(input_name, argv, tmp_path) == GOLDEN[case_id]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case_id, input_name, argv in CASES:
            code, digest = _run(input_name, argv, Path(tmp))
            print(f'    "{case_id}": ({code}, "{digest}"),')
