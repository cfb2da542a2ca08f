"""Benchmark workloads: seeded inputs for the ``pseudopoly`` CLI and the
checks every output must pass.

An operation is one CLI invocation (argv plus stdin text).  A workload
builds a fixed list of operations, one *pass*, from a seed; the same seed
always yields the same pass.  Input sizes are a fixed even grid over the
stated N range and each size rank always gets the same kind of input, so
passes from different seeds cost about the same while their terms differ.

Expected results come from what each input was built to be, computed here
with the benchmark's own arithmetic, never from the program under test.
Large expected outputs are kept only as a sha256, so that the harness adds
little to the peak memory of the run.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Op:
    """One CLI operation and what its output must satisfy."""

    kind: str
    argv: tuple[str, ...]
    stdin: str = ""
    expect: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------- arithmetic


def primes_upto(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [n for n, f in enumerate(flags) if f]


def pascal_rows(n_max: int) -> list[list[int]]:
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append([1] + [a + b for a, b in zip(prev, prev[1:])] + [1])
    return rows


def forward_transform(a: list[int]) -> list[int]:
    """b_n = sum_k (-1)^(n-k) C(n,k) a_k."""
    rows = pascal_rows(len(a) - 1)
    return [
        sum(c * a[k] if (n - k) % 2 == 0 else -c * a[k] for k, c in enumerate(rows[n]))
        for n in range(len(a))
    ]


def inverse_transform(b: list[int]) -> list[int]:
    """a_n = sum_k C(n,k) b_k."""
    rows = pascal_rows(len(b) - 1)
    return [sum(c * b[k] for k, c in enumerate(rows[n])) for n in range(len(b))]


def congruence_violations(a: list[int], mode: str) -> tuple[int, list[list[int]]]:
    """(checked pairs, violations as [n, m, a_{n+m} mod m, a_n mod m]) for
    a_{n+m} = a_n (mod m), m prime ("primary") or any m >= 1 ("full")."""
    n_terms = len(a)
    moduli = primes_upto(n_terms - 1) if mode == "primary" else range(1, n_terms)
    checked = 0
    bad = []
    for n in range(n_terms - 1):
        for m in moduli:
            if n + m > n_terms - 1:
                break
            checked += 1
            if (a[n + m] - a[n]) % m:
                bad.append([n, m, a[n + m] % m, a[n] % m])
    return checked, bad


def primary_sequence(coeffs: list[int]) -> list[int]:
    """Inverse binomial transform of c_n times the n-th primorial; this
    satisfies a_{n+p} = a_n (mod p) for every prime p."""
    primes = set(primes_upto(len(coeffs)))
    scaled, primorial = [], 1
    for n, c in enumerate(coeffs):
        if n in primes:
            primorial *= n
        scaled.append(primorial * c)
    return inverse_transform(scaled)


def hall_sequence(perturbation: list[int]) -> list[int]:
    """Term n is the least x >= 0 with x = a_{n-k} (mod k) for k = 1..n,
    plus perturbation[n] * lcm(1..n); this satisfies every congruence."""
    a = [perturbation[0]]
    for n in range(1, len(perturbation)):
        x, modulus = 0, 1
        for k in range(1, n + 1):
            r = a[n - k] % k
            g = math.gcd(modulus, k)
            step = k // g
            t = ((r - x) // g) * pow(modulus // g, -1, step) % step
            x, modulus = x + modulus * t, modulus * step
        a.append(x + perturbation[n] * modulus)
    return a


def poly_values(coeffs: list[int], length: int) -> list[int]:
    out = []
    for x in range(length):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        out.append(acc)
    return out


def c_finite(coeffs: list[int], initial: list[int], length: int) -> list[int]:
    """a_n = sum_i coeffs[i-1] * a_{n-i} after the given initial terms."""
    a = list(initial)
    while len(a) < length:
        a.append(sum(c * a[-i] for i, c in enumerate(coeffs, start=1)))
    return a[:length]


# A 61-bit prime: determinants are compared modulo it, which catches a
# wrong value except with probability about 2**-61, at the cost of small
# integers instead of exact big ones.
DET_MODULUS = 2**61 - 1


def _det_mod(rows: list[list[int]]) -> int:
    """Determinant modulo DET_MODULUS, by elimination with row pivoting."""
    p = DET_MODULUS
    m = [row[:] for row in rows]
    n, det = len(m), 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[k])]
    return det % p


def _rank_mod(rows: list[list[int]]) -> int:
    """Rank modulo DET_MODULUS of a square matrix."""
    p = DET_MODULUS
    m = [row[:] for row in rows]
    rank = 0
    for col in range(len(m)):
        pivot_row = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def hankel_minors_mod(terms: list[int], order: int) -> list[int]:
    """det H_1 .. det H_order modulo DET_MODULUS, where H_n is the n x n
    Hankel matrix with entry (i, j) = terms[i + j].

    One elimination without pivoting yields every leading minor as a
    product of pivots.  At the first zero pivot, after k steps, the rest
    is the Schur complement S: det H_{k+j} = det H_k * det S_j, and
    det S_j = 0 once j exceeds the rank of S, so only j up to that rank
    (the recurrence order, on rational input) needs a determinant of its
    own.
    """
    p = DET_MODULUS
    m = [[terms[i + j] % p for j in range(order)] for i in range(order)]
    minors, det = [], 1
    for k in range(order):
        pivot = m[k][k]
        if pivot == 0:
            schur = [row[k:] for row in m[k:]]
            rank = _rank_mod(schur)
            return minors + [
                det * _det_mod([row[:j] for row in schur[:j]]) % p if j <= rank else 0
                for j in range(1, order - k + 1)
            ]
        det = det * pivot % p
        minors.append(det)
        inv = pow(pivot, -1, p)
        mk = m[k]
        for i in range(k + 1, order):
            f = m[i][k] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], mk)]
    return minors


def as_lines(terms: list[int]) -> str:
    return "\n".join(str(t) for t in terms) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ input builders


def _sizes(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread evenly over lo..hi, the same on every seed, so
    that passes differ in their terms but not in their cost profile."""
    span = hi - lo + 1
    return [lo + int((i + 0.5) * span / count) for i in range(count)]


def _assign(shares: list[tuple[str, int]], sizes: list[int]):
    """Pair kinds with sizes so that every kind spans the whole size range
    and each size rank gets the same kind on every seed: the sorted sizes
    are cut into groups holding each kind in its share (3 + 1 + 1 for
    60/20/20), always in the same order."""
    unit = math.gcd(*(count for _, count in shares))
    group = [kind for kind, count in shares for _ in range(count // unit)]
    if len(group) * unit != len(sizes):
        raise ValueError("shares do not add up to the pass size")
    return list(zip(group * unit, sorted(sizes)))


def _nonzero(rng: random.Random, bound: int) -> int:
    v = 0
    while v == 0:
        v = rng.randint(-bound, bound)
    return v


def nonrational_pass(rng: random.Random) -> list[Op]:
    """``audit`` on N in 16..40: 60% primorial-scaled, 20% Hall-style CRT,
    20% random integers."""
    sizes = _sizes(16, 40, 100)
    ops = []
    for kind, n in _assign([("primary", 60), ("hall", 20), ("random", 20)], sizes):
        if kind == "primary":
            terms = primary_sequence([rng.randint(-5, 5) for _ in range(n)])
        elif kind == "hall":
            terms = hall_sequence([rng.randint(-2, 2) for _ in range(n)])
        else:
            terms = [rng.randint(-10**6, 10**6) for _ in range(n)]
        ops.append(Op(f"audit-{kind}", ("audit",), as_lines(terms),
                      {"n": n, "minors": hankel_minors_mod(terms, (n + 1) // 2)}))
    rng.shuffle(ops)
    return ops


def rational_pass(rng: random.Random) -> list[Op]:
    """``audit`` on N in 40..120: 70% integer polynomials of degree 0..8,
    30% C-finite sequences of order 1..6."""
    sizes = _sizes(40, 120, 100)
    ops = []
    made = {"poly": 0, "cfinite": 0}
    for kind, n in _assign([("poly", 70), ("cfinite", 30)], sizes):
        if kind == "poly":
            d = made[kind] % 9
            coeffs = [rng.randint(-9, 9) for _ in range(d)] + [_nonzero(rng, 9)]
            terms = poly_values(coeffs, n)
            expect = {"degree": d}
        else:
            k = 1 + made[kind] % 6
            coeffs = [rng.randint(-3, 3) for _ in range(k - 1)] + [_nonzero(rng, 3)]
            initial = [rng.randint(-4, 4) for _ in range(k - 1)] + [_nonzero(rng, 4)]
            terms = c_finite(coeffs, initial, n)
            expect = {"order": k}
        made[kind] += 1
        expect.update(n=n, minors=hankel_minors_mod(terms, (n + 1) // 2))
        ops.append(Op(f"audit-{kind}", ("audit",), as_lines(terms), expect))
    rng.shuffle(ops)
    return ops


def transform_pass(rng: random.Random) -> list[Op]:
    """The sequence-producing side and full-rank Hankel work, no audit:
    40% ``hankel verify-invariance`` (N 24..64), 25% ``gen primary|hall``
    (N 100..300), 20% ``transform forward|inverse`` (N 200..400) and 15%
    ``check congruences --mode full|primary`` (N 80..160), all on random
    integers where an input is read."""
    ops = []
    for n in _sizes(24, 64, 120):
        terms = [rng.randint(-1000, 1000) for _ in range(n)]
        ops.append(Op("verify-invariance", ("hankel", "verify-invariance"),
                      as_lines(terms), {"n": n}))
    for i, n in enumerate(_sizes(100, 300, 76)):
        gen = ("primary", "hall")[i % 2]
        ops.append(Op(f"gen-{gen}", ("gen", gen, "--n-max", str(n), "--seed",
                                     str(rng.randrange(10**6))), "", {"n": n}))
    for i, n in enumerate(_sizes(200, 400, 60)):
        direction = ("forward", "inverse")[i % 2]
        terms = [rng.randint(-1000, 1000) for _ in range(n)]
        out = forward_transform(terms) if direction == "forward" else inverse_transform(terms)
        ops.append(Op(f"transform-{direction}", ("transform", direction),
                      as_lines(terms), {"sha256": sha256(as_lines(out))}))
    for i, n in enumerate(_sizes(80, 160, 44)):
        mode = ("full", "primary")[i % 2]
        terms = [rng.randint(-1000, 1000) for _ in range(n)]
        checked, bad = congruence_violations(terms, mode)
        ops.append(Op(f"check-{mode}", ("check", "congruences", "--mode", mode),
                      as_lines(terms), {"checked": checked, "violations": len(bad),
                                        "sha256": sha256(json.dumps(bad))}))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "nonrational": nonrational_pass,
    "rational": rational_pass,
    "transform": transform_pass,
}


def build_pass(workload: str, seed: int) -> list[Op]:
    """The seeded operation list for one pass of ``workload``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# ------------------------------------------------------------------- checks


def _parse_lines(stdout: str) -> list[int]:
    return [int(line) for line in stdout.splitlines()]


def _check_determinants(report: dict, want: list[int]) -> str | None:
    """Both determinant tables of an audit report against the benchmark's
    own Hankel minors modulo DET_MODULUS, ``want``."""
    table = [row["det"] for row in report["hankel"]]
    det_table = report["rationality"]["det_table"]
    if len(table) != len(want) or det_table != table:
        return "the hankel and det_table determinants disagree"
    for n, (det, expected) in enumerate(zip(table, want), start=1):
        if int(det) % DET_MODULUS != expected:
            return f"det H_{n} = {det} is wrong"
    return None


def check_output(op: Op, code: int, stdout: str) -> str | None:
    """None when the output is what ``op`` was built to produce, otherwise
    a one-line reason."""
    kind = op.kind
    if kind.startswith("audit-"):
        report = json.loads(stdout)
        verdict = report["verdict"]
        rationality = report["rationality"]
        if report["length"] != op.expect["n"]:
            return f"length {report['length']} != {op.expect['n']}"
        want_code = 1 if verdict == "congruence_violation" else 0
        if code != want_code:
            return f"exit {code} for verdict {verdict}"
        if kind in ("audit-primary", "audit-hall", "audit-random") and rationality["rational"]:
            return f"{kind} input reported rational"
        if kind in ("audit-primary", "audit-hall") and verdict != "undetermined":
            return f"{kind} input gave verdict {verdict}"
        if kind == "audit-random" and verdict != "congruence_violation":
            return f"random input gave verdict {verdict}"
        if kind == "audit-poly" and (verdict, report["degree"]) != ("polynomial", op.expect["degree"]):
            return f"degree-{op.expect['degree']} polynomial gave {verdict} {report['degree']}"
        if kind == "audit-cfinite":
            if not rationality["rational"] or rationality["order"] > op.expect["order"]:
                return f"order-{op.expect['order']} C-finite input not detected"
        return _check_determinants(report, op.expect["minors"])
    if kind == "verify-invariance":
        report = json.loads(stdout)
        if code != 0 or not report["passed"]:
            return f"invariance failed: exit {code} {report}"
        if report["checked_max"] != (op.expect["n"] + 1) // 2:
            return f"checked_max {report['checked_max']}"
        return None
    if code != 0 and not kind.startswith("check-"):
        return f"exit {code}"
    if kind.startswith("gen-"):
        terms = _parse_lines(stdout)
        if len(terms) != op.expect["n"]:
            return f"generated {len(terms)} terms, asked for {op.expect['n']}"
        mode = "primary" if kind == "gen-primary" else "full"
        if congruence_violations(terms, mode)[1]:
            return f"{kind} output fails check congruences --mode {mode}"
        return None
    if kind.startswith("transform-"):
        return None if sha256(stdout) == op.expect["sha256"] else "transform output differs"
    if kind.startswith("check-"):
        report = json.loads(stdout)
        want = op.expect
        if code != (1 if want["violations"] else 0):
            return f"exit {code} with {want['violations']} violations"
        if report["checked_pairs"] != want["checked"]:
            return f"checked_pairs {report['checked_pairs']} != {want['checked']}"
        got = [[v["n"], v["modulus"], v["lhs_residue"], v["rhs_residue"]]
               for v in report["violations"]]
        return None if sha256(json.dumps(got)) == want["sha256"] else "violation list differs"
    raise ValueError(f"unknown operation kind {kind!r}")


# Spans the traced pass must record on each workload; a wrapper that stays
# silent means an import moved and the layer would read 0 s.
_COMMON = {"cli.run_cli", "formats.parse_sequence", "formats.dumps"}
_AUDIT = _COMMON | {
    "audit.ruzsa_audit", "formats.audit_json_obj", "sequences.check_congruences",
    "sequences.growth_rate", "hankel.hankel_table", "hankel.detect_rationality",
    "hankel.hankel_determinant",
}
REQUIRED_SPANS = {
    "nonrational": _AUDIT,
    "rational": _AUDIT | {
        "sequences.polynomial_certificate", "analytic.singular_directions",
        "polyarith.gcd_poly", "polyarith.series_from_rational",
        "polyarith.clear_to_int_pair", "polyarith.squarefree_factors",
    },
    "transform": _COMMON | {
        "hankel.verify_transform_invariance", "binomial.binomial_transform",
        "binomial.inverse_binomial_transform", "binomial.lower_triangular_rows",
        "sequences.generate_primary", "sequences.generate_hall_like",
        "sequences.check_congruences", "formats.render_sequence",
        "formats.invariance_json_obj", "formats.congruence_json_obj",
    },
}
