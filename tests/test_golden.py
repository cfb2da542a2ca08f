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
# Reports made mostly of repeated rows: 11,965 congruence violations, as
# JSON and as CSV, a Hankel table of orders 1..80 (primes up to 79 as
# valuation keys), and the audit of an order-3 C-finite prefix with 506
# violations.
ROW_HEAVY = [
    ("congruences-random-160", "random-160", COMMANDS["congruences"]),
    ("congruences-csv-random-160", "random-160", COMMANDS["congruences"] + ["--format", "csv"]),
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
# Commands and formats that no case above renders: the CSV writers of the
# congruence and rationality reports, the Hankel table as JSON, the two
# Hankel verifications, the primary congruence mode and the capacity bound.
UNPINNED = {
    "congruences-csv": COMMANDS["congruences"] + ["--format", "csv"],
    "rational-csv": COMMANDS["rational"] + ["--format", "csv"],
    "hankel-json": COMMANDS["hankel"] + ["--format", "json"],
    "invariance": ["hankel", "verify-invariance"],
    "divisibility": ["hankel", "verify-divisibility"],
    "congruences-primary": ["check", "congruences", "--mode", "primary"],
}
CAPACITY = [("capacity-bound", None, ["capacity", "bound", "--endpoints", "1,-1,1j"])]
CASES = (
    [(f"gen-{name}", None, GENERATED[name]) for name in ("primary", "hall")]
    + [(f"{cmd}-{inp}", inp, argv) for cmd, argv in COMMANDS.items() for inp in INPUTS]
    + [("theta-300", None, ["theta", "table", "--n-max", "300"])]
    + ROW_HEAVY
    + LARGE_DENOMINATORS
    + SHORT_TABLES
    + CLI_LIMIT
    + [(f"{cmd}-{inp}", inp, argv) for cmd, argv in UNPINNED.items() for inp in INPUTS]
    + CAPACITY
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
    # recorded before the violation fields were read from a table of str(k)
    "congruences-csv-random-160": (1, "ac0bf30ddbf2bfe6bd15e2edbf075051d534738b2c3ea6262c7c560817fd0bc1"),
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
    # recorded before the report records became NamedTuples
    "congruences-csv-cubic": (0, "4c00cf5f3e729f1192068bb2017bada3e5e9d5f762a3df1f0fa94753b207b03e"),
    "congruences-csv-fibonacci": (1, "754b0dd5f3c30ccef830b67619bd23c4779da8181d5c2483ad3c5dc70d47cdf6"),
    "congruences-csv-primary": (1, "810137a3a0192b24140e772e68ce4fe59b8d3fb37aaf26840cbfa28042e0d592"),
    "congruences-csv-hall": (0, "4c00cf5f3e729f1192068bb2017bada3e5e9d5f762a3df1f0fa94753b207b03e"),
    "congruences-csv-random": (1, "1b555335a4c2114261f6dd530fee43c803c5e2fa0ca1c05ef9a7d1f1843955ce"),
    "rational-csv-cubic": (0, "6f2efee1fa646d59575183dea09546f83a88c06ab175a55da974282d2beb80aa"),
    "rational-csv-fibonacci": (0, "57dc7642f64249f4a8349ff78c0c0f4c9c9e3bd95e386a91f784406a55d5497a"),
    "rational-csv-primary": (0, "8fa01278704a5cc82c5d275be2c6aa594c55bdf0276b6ba9c39e3fb561173fc0"),
    "rational-csv-hall": (0, "21ee0c7228852cc9c5d0fec5d604558abc22db33c5e058d79115bbbae001210f"),
    "rational-csv-random": (0, "986c5bebd24c49bfd4abdd00afac33e4282256a9390ef695bba587b09f7d70e8"),
    "hankel-json-cubic": (0, "adbf1b97ccc56a3f4c43a41c0f709fc988de6d4ae31cf44585485b69951d2f25"),
    "hankel-json-fibonacci": (0, "4d7735e2733d5c5dcbb2c1abb0731f3b9bbe9dee917e60553b74f395a8388513"),
    "hankel-json-primary": (0, "aeca2dda7a5a4411dea2e07043031a9a2770da513bc94c8a5561265370b4aa88"),
    "hankel-json-hall": (0, "580c01979429d1d5f8c9185cb697df8dd15234adf32c08d2a1b43c3a9432c9b1"),
    "hankel-json-random": (0, "651438ea1990f1417527478f2d073da8c2c7cc3fa37fa3f2e82fd67bff90e0c8"),
    "invariance-cubic": (0, "e7d3d9785a12c571a8f1a271491c34d889bd73de662561930624f97e53ef75a4"),
    "invariance-fibonacci": (0, "e7d3d9785a12c571a8f1a271491c34d889bd73de662561930624f97e53ef75a4"),
    "invariance-primary": (0, "fe7badbf0c3a78adf3fa1b423dae7de194684e36a74000562d0fa453d65fc752"),
    "invariance-hall": (0, "fe7badbf0c3a78adf3fa1b423dae7de194684e36a74000562d0fa453d65fc752"),
    "invariance-random": (0, "e701f7f61c0a2d6521ce2f189eee4a738480ab91a43933b30a04ed903d31a56d"),
    "divisibility-cubic": (0, "910bd301f7826cc299cf43d5743ca7242da42e23132f38596f5d49ff81531393"),
    "divisibility-fibonacci": (0, "4fb13d37c4e5029a7931dc52a64296976aaabd3d6cca0449da549ed2a75a111a"),
    "divisibility-primary": (0, "a1486108263fef4964f7e8cac4518d43c50edb38563927d51cb33c0c6d33e176"),
    "divisibility-hall": (0, "1d07c41815673f70da1ba376426cbf11bf7baa11a48710730c1e00269cf3236e"),
    "divisibility-random": (1, "4ddcb3c3768a0e99e64099a26f73d171cbf49ffb5296abe9304f4beacf6fc076"),
    "congruences-primary-cubic": (0, "f4d2794ea0c51defa34a6e17ff914809260cea14dd9af68b8d6674ba5d9fb728"),
    "congruences-primary-fibonacci": (1, "44821af31bb687d0d328634a26c37f5b41521d62ba9474acc06f063c24d7bdb0"),
    "congruences-primary-primary": (0, "c47aff2dd82bcf651286ebe27ec3e846793086070973eec80f792ab7dfa6b5bd"),
    "congruences-primary-hall": (0, "c47aff2dd82bcf651286ebe27ec3e846793086070973eec80f792ab7dfa6b5bd"),
    "congruences-primary-random": (1, "95b39762a8ac0c947371f482f9339cd6a27eaa6194c51cc8bfbbd36d808a7b50"),
    "capacity-bound": (0, "4a096998f1ddc70277b89abac396d66f29ca437a8944e6cc91cab9802cf4ab23"),
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
