"""Binomial transform pair, the signed-binomial conjugation matrix, and
primorial divisibility of transforms.

The transform sends a sequence (a_n) to b_n = sum_k (-1)^(n-k) C(n,k) a_k,
which is the n-th forward difference of a at 0: b is the leading column of
the forward-difference table of a.  The inverse a_n = sum_k C(n,k) b_k
rebuilds that table from its leading column by repeated partial sums, and
since (-1)^n b_n = sum_k C(n,k) (-1)^k a_k, the same partial sums compute
the forward transform between two sign alternations.  All arithmetic is
exact.
"""
from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .core import ExactSequence, InputError
from .primes import sieve_flags


def primorials(n_max: int) -> tuple[int, ...]:
    """Exact primorial table: entry n is the product of all primes <= n
    (1 for n < 2), for n = 0..n_max."""
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    flags = sieve_flags(n_max)
    values = []
    acc = 1
    for n in range(n_max + 1):
        if flags[n]:
            acc *= n
        values.append(acc)
    return tuple(values)


def _partial_sum_table(terms) -> list:
    """sum_k C(n,k) t_k for n = 0..len(terms) - 1: the forward-difference
    table with leading column ``terms`` rebuilt bottom row first, each row
    its first entry followed by the partial sums of the row below it, about
    N^2/2 additions run by ``accumulate``."""
    row: list = []
    for t in reversed(terms):
        row = list(accumulate(row, initial=t))
    return row


def _alternate_signs(terms) -> list:
    """(-1)^k t_k for every k."""
    return [-t if k & 1 else t for k, t in enumerate(terms)]


def binomial_transform(seq: ExactSequence) -> ExactSequence:
    """b_n = sum_{k=0}^{n} (-1)^(n-k) C(n,k) a_k, exactly.

    (-1)^n b_n = sum_k C(n,k) (-1)^k a_k, so b is the inverse transform of
    the sign-alternated terms with its signs alternated back: the same
    partial sums as the inverse, one table of N^2/2 additions.
    """
    signed = _partial_sum_table(_alternate_signs(seq.terms))
    return ExactSequence(_alternate_signs(signed))


def inverse_binomial_transform(seq: ExactSequence) -> ExactSequence:
    """a_n = sum_{k=0}^{n} C(n,k) b_k; exact inverse of the forward transform,
    read off the partial-sum table of ``seq``."""
    return ExactSequence(_partial_sum_table(seq.terms))


def lower_triangular_rows(n: int) -> list[list[int]]:
    """Rows of the n x n signed-binomial lower-triangular matrix.

    With 1-based indices the (i, j) entry is (-1)^(i-j) C(i-1, j-1) for
    j <= i and 0 above the diagonal.  Conjugating a Hankel matrix by this
    matrix realizes the binomial transform on its entries.  Row i is built
    from row i - 1 by Pascal's rule with signs: L[i][j] = L[i-1][j-1] -
    L[i-1][j] (0-based, with L[i-1][-1] read as 0).
    """
    if n < 1:
        raise InputError("order must be >= 1")
    rows = [[1] + [0] * (n - 1)]
    for i in range(1, n):
        prev = rows[-1]
        rows.append([-prev[0]] + [prev[j - 1] - prev[j] for j in range(1, n)])
    return rows


class DivisibilityReport(NamedTuple):
    """Outcome of the primorial-divisibility check on a transform."""

    passed: bool
    checked: int
    failures: tuple[tuple[int, int, int], ...]  # (n, primorial, residue)


def check_primorial_divisibility(seq: ExactSequence) -> DivisibilityReport:
    """Check that the n-th primorial divides the n-th transform coefficient.

    Residues are reported as least nonnegative.  Holds for every sequence
    whose prefix passes the primary congruence check.
    """
    if not seq.is_integer:
        raise InputError("primorial divisibility is defined for integer sequences")
    b = binomial_transform(seq).integer_terms()
    table = primorials(len(b) - 1)
    failures = []
    for n, bn in enumerate(b):
        r = bn % table[n]
        if r != 0:
            failures.append((n, table[n], r))
    return DivisibilityReport(not failures, len(b), tuple(failures))
