"""Audits at N = 200, checked against an oracle that shares nothing with the
remainder sequence: every Hankel minor modulo two primes by one modular
elimination, the required divisors on the congruent prefixes, and the
recurrence denominator of a C-finite prefix of order 40."""
import functools
import random

import pytest

from oracles import hankel_minors_mod
from pseudopoly import ExactSequence, generate_hall_like, generate_primary, ruzsa_audit

N = 200
PRIMES = (2**61 - 1, 2**31 - 1)
C_FINITE_ORDER = 40


def _primary() -> list[int]:
    # the coefficients `gen primary --seed 1` draws
    rng = random.Random(1)
    return list(generate_primary([rng.randint(-5, 5) for _ in range(N)], N).terms)


def _hall() -> list[int]:
    rng = random.Random(3)
    return list(generate_hall_like(N, [rng.randint(-2, 2) for _ in range(N)]).terms)


def _random() -> list[int]:
    rng = random.Random(N)
    return [rng.randint(-10**6, 10**6) for _ in range(N)]


def _c_finite_denominator() -> list[int]:
    rng = random.Random(C_FINITE_ORDER)
    return [1] + [rng.randint(-1, 1) for _ in range(C_FINITE_ORDER - 1)] + [1]


def _c_finite() -> list[int]:
    """The Taylor coefficients of P/Q, with Q the denominator above and
    deg P < 40: a_k = P_k - sum of Q_i a_(k-i) over 1 <= i <= min(k, 40)."""
    rng = random.Random(C_FINITE_ORDER + 1)
    num = [rng.randint(-3, 3) for _ in range(C_FINITE_ORDER)]
    den = _c_finite_denominator()
    a: list[int] = []
    for k in range(N):
        acc = num[k] if k < len(num) else 0
        a.append(acc - sum(den[i] * a[k - i] for i in range(1, min(k, C_FINITE_ORDER) + 1)))
    return a


PREFIXES = {"primary": _primary, "hall": _hall, "random": _random, "c-finite": _c_finite}


@functools.cache
def audited(name: str):
    terms = PREFIXES[name]()
    return terms, ruzsa_audit(ExactSequence.of(terms))


@pytest.mark.parametrize("name", sorted(PREFIXES))
def test_every_minor_matches_the_modular_oracle(name):
    terms, report = audited(name)
    dets = report.rationality.det_table
    assert len(dets) == N // 2
    assert [r.det for r in report.hankel] == list(dets)
    for p in PRIMES:
        assert [d % p for d in dets] == hankel_minors_mod(terms, N // 2, p), p


@pytest.mark.parametrize("name", sorted(PREFIXES))
def test_divisibility_is_the_required_divisor_dividing_the_determinant(name):
    report = audited(name)[1]
    for r in report.hankel:
        assert r.divisible == (r.det % r.required_divisor == 0), (name, r.n)
    if name in ("primary", "hall"):
        assert report.congruence.ok
        assert all(r.det % r.required_divisor == 0 for r in report.hankel)
        assert report.verdict == "undetermined"
    elif name == "random":
        assert report.verdict == "congruence_violation"
        assert not all(r.divisible for r in report.hankel)


def test_c_finite_prefix_gives_its_recurrence_denominator():
    report = audited("c-finite")[1]
    function = report.rationality.function
    assert function is not None
    assert function.order == C_FINITE_ORDER
    assert list(function.denominator.coefficients) == _c_finite_denominator()
    dets = report.rationality.det_table
    assert dets[C_FINITE_ORDER - 1] != 0
    assert not any(dets[C_FINITE_ORDER:])
