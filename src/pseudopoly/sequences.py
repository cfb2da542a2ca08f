"""Construction and auditing of integer sequences: polynomial sequences,
congruence checks, growth estimation, polynomiality certificates, and two
congruence-preserving generators.

All "for all n" statements are checked on every index the prefix supports;
reports record the checked range.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Sequence

from .binomial import binomial_transform, inverse_binomial_transform, primorials
from .core import (
    ExactSequence,
    IntPolynomial,
    InputError,
    InternalInvariantError,
    as_exact_int,
    root_abs_exact,
)
from .primes import sieve_primes


class Violation(NamedTuple):
    n: int
    modulus: int
    lhs_residue: int  # a_{n+modulus} mod modulus
    rhs_residue: int  # a_n mod modulus


class CongruenceReport(NamedTuple):
    """Result of checking a_{n+m} = a_n (mod m) over a prefix.

    The evidence is ``failing``: for each modulus m whose residues are not
    m-periodic, in ascending m, the pair (m, the residues a_n mod m for
    every n of the prefix).  Every violation is read off them, so the
    records are listed only when ``violations`` is read.
    """

    mode: str  # "primary" (prime moduli) or "full" (all moduli)
    length: int  # prefix length that was checked
    checked_pairs: int
    failing: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.failing

    @property
    def violations(self) -> tuple[Violation, ...]:
        """The (n, m) pairs that fail, in lexicographic (n, modulus) order:
        at each n, every failing modulus m with n + m inside the prefix
        whose residues of a_{n+m} and a_n differ.  Listed anew from
        ``failing`` on each read."""
        failing = self.failing
        last = self.length - 1
        moduli = [m for m, _ in failing]
        return tuple([
            Violation(n, m, lhs, rhs)
            for n in range(last)
            for m, residues in failing[:bisect_right(moduli, last - n)]
            if (lhs := residues[n + m]) != (rhs := residues[n])
        ])


class GrowthReport(NamedTuple):
    """Finite-prefix growth proxy: per-term n-th roots and their tail maximum.

    ``tail_sup`` is max of ``per_n`` over the upper half of the prefix.  This
    is a heuristic stand-in for limsup |a_n|^(1/n), not a proof of anything.
    """

    tail_sup: float
    per_n: tuple[float, ...]
    tail_start: int


def eval_polynomial_sequence(poly: IntPolynomial, length: int) -> ExactSequence:
    """The integer sequence (P(0), ..., P(length-1))."""
    if length < 1:
        raise InputError("length must be >= 1")
    return ExactSequence(poly(n) for n in range(length))


def check_congruences(seq: ExactSequence, mode: str = "primary") -> CongruenceReport:
    """Check the congruence-preservation property over the whole prefix.

    mode="primary" checks a_{n+p} = a_n (mod p) for every prime p with
    n + p inside the prefix; mode="full" checks every modulus k >= 1.
    Each modulus m accounts for N - m (n, m) pairs, and all of them hold
    exactly when the residues a_n mod m are m-periodic: one residue list
    per modulus and one list comparison decide it.  The residues of the
    moduli that fail are the report's ``failing``; no violation record is
    made here.
    """
    if mode not in ("primary", "full"):
        raise InputError(f"unknown mode {mode!r}")
    a = seq.integer_terms()
    n_terms = len(a)
    if n_terms < 2:
        raise InputError("need at least 2 terms to check congruences")
    if mode == "primary":
        moduli = sieve_primes(n_terms - 1)
    else:
        moduli = list(range(1, n_terms))
    checked = n_terms * len(moduli) - sum(moduli)
    failing = []
    for m in moduli:
        residues = [x % m for x in a]
        if residues[m:] != residues[:-m]:
            failing.append((m, tuple(residues)))
    return CongruenceReport(mode, n_terms, checked, tuple(failing))


def growth_rate(seq: ExactSequence) -> GrowthReport:
    """Per-term |a_n|^(1/n) and the max over the upper half of the prefix.

    ``per_n[0]`` is a placeholder 0.0 (no n-th root is defined at n = 0);
    terms equal to zero also report 0.0.  Every other root, of an int or a
    Fraction term, is root_abs_exact(a_n, n), which names the first term
    whose root is past the float range.
    """
    terms = seq.terms
    n_terms = len(terms)
    if n_terms < 4:
        raise InputError("growth estimation needs at least 4 terms")
    per_n = [0.0] + [
        root_abs_exact(t, n, "a", n) if t else 0.0 for n, t in enumerate(terms[1:], 1)
    ]
    tail_start = (n_terms + 1) // 2  # ceil(N/2)
    tail_sup = max(per_n[tail_start:], default=0.0)
    return GrowthReport(tail_sup, tuple(per_n), tail_start)


def polynomial_certificate(seq: ExactSequence) -> int | None:
    """Smallest d whose order-(d+1) forward differences vanish on the prefix.

    The difference rows are taken from the top down and stop at the first
    all-zero row, (d + 2) N subtractions: every row below it is zero, and
    the row above it is a nonzero constant, so d is the index of the last
    nonzero binomial transform coefficient (0 when every coefficient is
    zero).  Demands at least two zero witnesses (prefix length >= d + 3) to
    reduce false positives; returns None when no such d exists.  A returned
    d is a prefix-level certificate only, not a statement about the full
    sequence.
    """
    n_terms = len(seq)
    if n_terms < 3:
        raise InputError("certificate needs at least 3 terms")
    row, nonzero_rows = list(seq.terms), 0
    while any(row):
        row = [y - x for x, y in zip(row, row[1:])]
        nonzero_rows += 1
    d = max(nonzero_rows - 1, 0)
    return d if d <= n_terms - 3 else None


def generate_primary(coeffs: Sequence[int] | ExactSequence, length: int) -> ExactSequence:
    """Generate a sequence passing the primary congruence check.

    Scales coeffs[n], each read by as_exact_int (an ExactSequence's terms
    too), by the n-th primorial and applies the inverse binomial transform.
    The primary congruence property of the result is verified, not assumed;
    a verification failure raises InternalInvariantError.
    """
    if length < 1:
        raise InputError("length must be >= 1")
    c = [as_exact_int(v, "coefficient") for v in coeffs]
    if len(c) < length:
        raise InputError(f"need at least {length} coefficients, got {len(c)}")
    table = primorials(length - 1)
    b = ExactSequence(table[n] * c[n] for n in range(length))
    result = inverse_binomial_transform(b)
    if length >= 2:
        report = check_congruences(result, "primary")
        if not report.ok:
            raise InternalInvariantError(
                "generated sequence failed the primary congruence check at "
                f"{report.violations[0]}; primorial divisibility of the "
                "transform did not force the congruences"
            )
    return result


def generate_hall_like(length: int, perturbation: Sequence[int]) -> ExactSequence:
    """Inductive congruence-preserving construction with a free perturbation.

    Term n is the smallest nonnegative solution mod lcm(1..n) of
    x = a_{n-k} (mod k) for k = 1..n, shifted by perturbation[n] * lcm(1..n).
    A prefix preserves congruences iff lcm(1..k) divides its k-th forward
    difference D^k a_0 for every k, so on such a prefix the constraints say
    that lcm(1..n) divides D^n a_0 = x - sum(diag), where diag = [D^0 a_{n-1},
    D^1 a_{n-2}, ..., D^{n-1} a_0] is the last antidiagonal of the difference
    table: x is sum(diag) mod lcm(1..n), and the next antidiagonal is the
    running differences of diag from a_n.  lcm(1..n) is a running lcm,
    checked to be a multiple of n and of the previous modulus; lcm(1..k) |
    D^k a_0 is then checked on the output for every k.  A failed check
    raises InternalInvariantError.
    """
    if length < 1:
        raise InputError("length must be >= 1")
    pert = [as_exact_int(v, "perturbation entry") for v in perturbation]
    if len(pert) < length:
        raise InputError(f"need at least {length} perturbation entries, got {len(pert)}")
    moduli = [1]  # lcm(1..n) for n = 0..length-1
    a = [pert[0]]
    diag = [pert[0]]
    for n in range(1, length):
        modulus = math.lcm(moduli[-1], n)
        if modulus % n or modulus % moduli[-1]:
            raise InternalInvariantError(f"term {n}: modulus {modulus} misses a constraint")
        a.append(sum(diag) % modulus + pert[n] * modulus)
        diag = list(accumulate(diag, operator.sub, initial=a[-1]))
        moduli.append(modulus)
    result = ExactSequence(a)
    for k, (d, m) in enumerate(zip(binomial_transform(result), moduli)):
        if d % m:
            raise InternalInvariantError(
                f"term {k} misses a constraint: lcm(1..{k}) = {m} does not divide D^{k} a_0"
            )
    return result
