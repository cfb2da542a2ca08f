"""Slow reference implementations kept as test oracles.

The library computes rational Hankel determinants by clearing
denominators first, reads every Hankel determinant of a prefix and the
integer recurrence of its last nonzero minor's order off one truncated
subresultant pseudo-remainder sequence, checks transform invariance by
comparing the transform with the forward differences that rows of L give
at the largest order, and reads the binomial transform off the
partial-sum table of the inverse transform between two sign
alternations, the polynomiality certificate
off one forward-difference table, and the power-of-(1 - x) test off the
integer synthetic division that splits x = 1 off for the poles.  The
routines below are the direct methods those replaced: Berlekamp-Massey over the rationals and a Gauss-Jordan
solve over the rationals for every candidate recurrence order, Gaussian
elimination over the rationals, a fraction-free Bareiss elimination with
row pivoting for every Hankel order, one elimination modulo a prime for
every leading minor at once, a conjugation by schoolbook matrix
products for every order,
explicit signed-binomial sums, the top-down difference rows that stop at
the first all-zero row, an iterated-difference loop, synthetic
division by (1 - x) in Fractions and a comparison with c (-1)^k C(d, k).
Detection decides the one term no minor reads by its re-expansion alone;
the oracle scans the recurrence over every term before it reconstructs.
Valuations divide by p, p^2, p^4, ... and step back
down, reports are written by a direct indent-2 writer, and their Hankel and
congruence-violation rows by one f-string per row; the oracles here strip
one factor of p per division, build one dict per row and call json's own
encoder.  A normal step of the remainder sequence is one pass over the
coefficients, the table's valuations come from one division of each row by
its required divisor (or start at the required exponent n - p), the
congruences are checked by the periodicity of the residues mod each
modulus, and newline input is checked by one match over its joined lines;
the oracles keep the two pseudo-division passes and the pass dividing by
beta, the climbing from p alone for every prime of every row, one
difference per (n, m) pair, and the line-by-line parser.
Taylor series are expanded in integers wherever they are integral, the
detected function is taken as coprime without a reduction, and the
Hall-style generator solves only its prime-power constraints by CRT
idempotents; the oracles divide every coefficient as a Fraction, divide
the detected pair by its gcd over the rationals and fold every
constraint in pairwise.  Polynomial gcds and squarefree factors are
computed over the integers by pseudo-division; the oracles run Euclid and
Yun over the rationals in Fractions.  A hedgehog rejects endpoints whose
arguments the direction clustering merges; the oracle compares every pair
of arguments.  The audit runs its detection before its table, building the
table's divisors from the primorials, and certifies polynomiality only
where its verdict reads the certificate; the oracles build each divisor
from prime powers and run the stages in their earlier order, with the
certificate for every detected function.  The whole audit report is also
built from the oracles alone, stage by stage.  The property tests compare
the fast paths against them.
"""
from __future__ import annotations

import json
import math
import operator
from fractions import Fraction

from pseudopoly import (
    VERDICT_CONGRUENCE_VIOLATION,
    VERDICT_POLYNOMIAL,
    VERDICT_RATIONAL_NON_POLYNOMIAL,
    VERDICT_UNDETERMINED,
    ExactSequence,
    InternalInvariantError,
    check_congruences,
    detect_rationality,
    hankel_table,
    is_power_of_one_minus_x,
    max_order,
    polynomial_certificate,
)
from pseudopoly import formats, hankel
from pseudopoly.analytic import singular_directions
from pseudopoly.audit import AuditConfig, AuditReport
from pseudopoly.core import InputError, IntPolynomial, exact_str, log_abs_exact
from pseudopoly.hankel import (
    HankelRecord,
    InvarianceReport,
    RationalFunction,
    RationalityDetection,
    _clear_denominators,
)
from pseudopoly.polyarith import degree, derivative, trim
from pseudopoly.primes import sieve_primes
from pseudopoly.sequences import CongruenceReport, GrowthReport, Violation


def hankel_rows(values: list, n: int) -> list[list]:
    """The order-n Hankel matrix of ``values``, row by row."""
    return [[values[i + j] for j in range(n)] for i in range(n)]


def rational_det(rows: list[list]) -> Fraction:
    """Exact Gaussian-elimination determinant over the rationals."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / pivot
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return det


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix.

    One-step Bareiss elimination with row pivoting (Bareiss 1968): every
    intermediate is an exact integer, since each division below is exact
    by Sylvester's identity.
    """
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            mi = m[i]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p, by elimination with row pivoting."""
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


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank modulo the prime p of a square matrix."""
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


def hankel_minors_mod(terms: list[int], order: int, p: int) -> list[int]:
    """det H_1 .. det H_order modulo the prime p, where H_n is the n x n
    Hankel matrix with entry (i, j) = terms[i + j].

    One elimination without pivoting yields every leading minor as a
    product of pivots.  At the first zero pivot, after k steps, the rest
    is the Schur complement S: det H_{k+j} = det H_k * det S_j, and
    det S_j = 0 once j exceeds the rank of S, so only j up to that rank
    (the recurrence order, on rational input) needs a determinant of its
    own.  Nothing here is shared with the remainder sequence.
    """
    m = [[terms[i + j] % p for j in range(order)] for i in range(order)]
    minors, det = [], 1
    for k in range(order):
        pivot = m[k][k]
        if pivot == 0:
            schur = [row[k:] for row in m[k:]]
            rank = rank_mod(schur, p)
            return minors + [
                det * det_mod([row[:j] for row in schur[:j]], p) % p if j <= rank else 0
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


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve rows @ x = rhs over the rationals; None if inconsistent.

    Underdetermined systems get free variables set to 0 (deterministic).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    m = [rows[i][:] + [rhs[i]] for i in range(n_rows)]
    pivots = []
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][n_cols] != 0:
            return None
    x = [Fraction(0)] * n_cols
    for row_idx, col in enumerate(pivots):
        x[col] = m[row_idx][n_cols]
    return x


def berlekamp_massey(terms: list[Fraction]) -> list[Fraction]:
    """Coefficients c of the shortest recurrence a_n = sum c_i a_{n-i}
    (i = 1..L) that holds on all of n = L..N-1; L = len(c) is the linear
    complexity of the prefix.

    One Berlekamp-Massey pass over the rationals (Massey 1969).  ``conn``
    is the connection polynomial 1 - c_1 x - ... - c_L x^L, kept with
    exactly L + 1 entries; ``prev`` is the one in force before the last
    length change, ``prev_disc`` its discrepancy and ``shift`` the steps
    taken since.
    """
    conn = [Fraction(1)]
    prev = [Fraction(1)]
    prev_disc = Fraction(1)
    length = 0
    shift = 1
    for n in range(len(terms)):
        disc = sum(map(operator.mul, conn, terms[n::-1]))
        if disc == 0:
            shift += 1
            continue
        scale = disc / prev_disc
        updated = conn + [Fraction(0)] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev):
            updated[i + shift] -= scale * c
        if 2 * length <= n:
            length, prev, prev_disc, shift = n + 1 - length, conn, disc, 1
        else:
            shift += 1
        conn = updated
    return [-c for c in conn[1:]]


def recurrence_coefficients(terms: list[Fraction], r: int) -> list[Fraction] | None:
    """Coefficients c with a_n = sum c_i a_{n-i} on all of n = r..N-1, or None."""
    if r == 0:
        return [] if all(t == 0 for t in terms) else None
    rows = [[terms[n - i] for i in range(1, r + 1)] for n in range(r, len(terms))]
    rhs = [terms[n] for n in range(r, len(terms))]
    sol = solve_exact(rows, rhs)
    if sol is None:
        return None
    for n in range(r, len(terms)):
        if sum(sol[i - 1] * terms[n - i] for i in range(1, r + 1)) != terms[n]:
            raise InternalInvariantError("recurrence solver returned a non-solution")
    return sol


def recurrence_by_order_search(terms: list[Fraction], window: int) -> list[Fraction] | None:
    """The recurrence of the first order r with 2r + window <= N that fits
    the whole prefix, trying every order in turn; None if there is none."""
    for r in range(0, (len(terms) - window) // 2 + 1):
        sol = recurrence_coefficients(terms, r)
        if sol is not None:
            return sol
    return None


def detect_function(seq: ExactSequence, window: int) -> RationalFunction | None:
    """The rational function that the order-by-order search detects: a
    recurrence within the order bound and ``window`` trailing zero Hankel
    determinants, the latter by rational elimination and checked first."""
    terms = [Fraction(t) for t in seq.terms]
    top = max_order(seq)
    if any(
        rational_det([[terms[i + j] for j in range(n)] for i in range(n)])
        for n in range(top - window + 1, top + 1)
    ):
        return None
    coeffs = recurrence_by_order_search(terms, window)
    if coeffs is None:
        return None
    return reconstruct_by_fractions(seq.terms, recurrence_denominator(coeffs))


def detection_by_two_scans(seq: ExactSequence, window: int) -> RationalFunction | None:
    """``detect_rationality``'s function by the rule of two scans: the
    recurrence denominator of the remainder sequence is checked on every
    term in integers first, and only a prefix it fits is reconstructed.  A
    miss at a term the minors read is an InternalInvariantError; a miss at
    the last term of an even-length prefix, which none reads, is no
    detection."""
    n_terms, n = len(seq), max_order(seq)
    values, _ = _clear_denominators(seq.terms)
    minors, den = leading_minors_by_pseudo_division(values, n)
    if any(minors[n - window:]) or den is None:
        return None
    order = len(den) - 1
    miss = next((m for m in range(order, n_terms) if sum(map(
        operator.mul, den[::-1], values[m - order:m + 1]))), n_terms)
    if miss <= 2 * n - 2:
        raise InternalInvariantError("the recurrence does not reproduce the prefix")
    if miss < n_terms:
        return None
    return reconstruct_by_fractions(seq.terms, den)


def mul(p: list, q: list) -> list:
    """Schoolbook product of two coefficient lists, lowest degree first."""
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def divmod_over_q(p: list, q: list) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of p by q over the rationals."""
    p, q = trim([Fraction(c) for c in p]), trim([Fraction(c) for c in q])
    if not q:
        raise ValueError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    for k in range(len(p) - len(q), -1, -1):
        factor = rem[k + len(q) - 1] / q[-1]
        quot[k] = factor
        for j, c in enumerate(q):
            rem[k + j] -= factor * c
    return trim(quot), trim(rem)


def monic(p: list) -> list[Fraction]:
    p = trim(p)
    return [Fraction(c, 1) / p[-1] for c in p] if p else []


def gcd_over_q(p: list, q: list) -> list[Fraction]:
    """Monic gcd by Euclid over the rationals: [1] when coprime, [] iff
    both are zero."""
    a, b = trim(p), trim(q)
    while b:
        a, b = b, divmod_over_q(a, b)[1]
    return monic(a)


def squarefree_over_q(p: list) -> list[tuple[list[Fraction], int]]:
    """Yun's decomposition over the rationals: monic squarefree factors with
    their multiplicities, whose product is the monic normalization of p."""
    p = monic(p)
    if degree(p) < 1:
        return []

    def minus(u, v):
        n = max(len(u), len(v))
        return trim([a - b for a, b in zip(u + [0] * (n - len(u)), v + [0] * (n - len(v)))])

    a = gcd_over_q(p, derivative(p))
    b, _ = divmod_over_q(p, a)
    c, _ = divmod_over_q(derivative(p), a)
    d = minus(c, derivative(b))
    factors = []
    i = 1
    while degree(b) > 0:
        f = gcd_over_q(b, d)
        if degree(f) > 0:
            factors.append((f, i))
        b, _ = divmod_over_q(b, f)
        c, _ = divmod_over_q(d, f)
        d = minus(c, derivative(b))
        i += 1
    return factors


def clear_fractions_to_int_pair(num: list, den: list) -> tuple[IntPolynomial, IntPolynomial]:
    """Jointly scale a pair of rational polynomials to integer ones with
    content gcd 1 by the lcm of their denominators, the sign fixed so that
    the denominator's constant term (or its leading coefficient if that is
    zero) is positive."""
    num = trim([Fraction(c) for c in num])
    den = trim([Fraction(c) for c in den])
    denoms = [c.denominator for c in num + den]
    scale = math.lcm(*denoms) if denoms else 1
    n_int = [int(c * scale) for c in num]
    d_int = [int(c * scale) for c in den]
    content = 0
    for c in n_int + d_int:
        content = math.gcd(content, c)
    if content > 1:
        n_int = [c // content for c in n_int]
        d_int = [c // content for c in d_int]
    anchor = d_int[0] if d_int[0] != 0 else d_int[-1]
    if anchor < 0:
        n_int = [-c for c in n_int]
        d_int = [-c for c in d_int]
    return IntPolynomial(tuple(n_int)), IntPolynomial(tuple(d_int))


def reconstruct_by_fractions(terms: tuple, den: list[int]) -> RationalFunction:
    """num/den for the integer denominator ``den`` (lowest degree first) of
    a recurrence of order len(den) - 1 that holds on all of ``terms``: the
    numerator is den * terms below that order, and the pair is divided by
    its gcd over the rationals before it is scaled to coprime integers."""
    order = len(den) - 1
    num = trim([sum(d * Fraction(t) for d, t in zip(den, terms[k::-1]))
                for k in range(order)])
    den = [Fraction(c) for c in den]
    if num:
        g = gcd_over_q(num, den)
        if degree(g) > 0:
            num, _ = divmod_over_q(num, g)
            den, _ = divmod_over_q(den, g)
    else:
        den = [Fraction(1)]
    func = RationalFunction(*clear_fractions_to_int_pair(num, den), order)
    if func.taylor(len(terms)) != list(terms):
        raise InternalInvariantError(
            "reconstructed rational function does not reproduce the prefix"
        )
    return func


def recurrence_denominator(coeffs: list[Fraction]) -> list[int]:
    """1 - c_1 x - ... - c_L x^L for a_n = sum c_i a_(n-i), scaled by the
    lcm of its denominators to integers, lowest degree first."""
    den = [Fraction(1)] + [-Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in den))
    return [int(c * scale) for c in den]


def determinant_by_order(seq: ExactSequence, n: int):
    """det H_n by an elimination of its own, with row pivoting, after
    clearing denominators."""
    if seq.is_integer:
        return bareiss_det(hankel_rows(seq.integer_terms(), n))
    scaled, scale = _clear_denominators(seq.terms[: 2 * n - 1])
    return Fraction(bareiss_det(hankel_rows(scaled, n)), scale**n)


def hankel_table_by_order(seq: ExactSequence, n_max: int) -> list[HankelRecord]:
    """The audit rows of ``hankel_table``, one elimination per order."""
    small_primes = sieve_primes(max(0, n_max - 1))
    records = []
    for n in range(1, n_max + 1):
        det = determinant_by_order(seq, n)
        required_divisor = 1
        valuations = []
        divisible = True
        for p in small_primes:
            if p > n - 1:
                break
            required = n - p
            required_divisor *= p**required
            actual = valuation_by_climbing(det, p)
            valuations.append((p, required, actual))
            if actual < required:
                divisible = False
        growth = None if det == 0 else math.exp(log_abs_exact(det) / (n * n))
        records.append(
            HankelRecord(n, det, required_divisor, tuple(valuations), divisible, growth)
        )
    return records


def det_table_by_order(seq: ExactSequence) -> tuple:
    """Detection's determinant evidence, one elimination per order."""
    return tuple(determinant_by_order(seq, n) for n in range(1, max_order(seq) + 1))


def invariance_by_order(seq: ExactSequence, n_max: int) -> InvarianceReport:
    """Transform invariance, order by order: a conjugation by schoolbook
    matrix products and two determinants for every n, the first failure
    reported.  The transform and L are looked up on the library module, so
    a test that replaces them there changes this oracle too."""
    if not seq.is_integer:
        seq = ExactSequence(tuple(_clear_denominators(seq.terms)[0]))
    a = seq.integer_terms()
    b = hankel.binomial_transform(seq).integer_terms()
    for n in range(1, n_max + 1):
        h_f = hankel_rows(a, n)
        h_g = hankel_rows(b, n)
        l_rows = hankel.lower_triangular_rows(n)
        conjugated = matmul(matmul(l_rows, h_f), transpose(l_rows))
        if conjugated != h_g:
            return InvarianceReport(False, n_max, (n, "entrywise"))
        if bareiss_det(h_f) != bareiss_det(h_g):
            return InvarianceReport(False, n_max, (n, "determinant"))
    return InvarianceReport(True, n_max, None)


def signed_binomial_sums(terms: list) -> list:
    """b_n = sum_k (-1)^(n-k) C(n, k) a_k, summed term by term."""
    return [
        sum((-1) ** (n - k) * math.comb(n, k) * terms[k] for k in range(n + 1))
        for n in range(len(terms))
    ]


def binomial_sums(terms: list) -> list:
    """a_n = sum_k C(n, k) b_k, summed term by term."""
    return [
        sum(math.comb(n, k) * terms[k] for k in range(n + 1))
        for n in range(len(terms))
    ]


def transform_by_differences(terms: list) -> list:
    """b_n as the leading column of the forward-difference table, its rows
    taken from the top down; every row below an all-zero row is zero, so
    the table stops there and the column is filled up with zeros."""
    row = list(terms)
    column = []
    while any(row):
        column.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    return column + [0] * len(row)


def certificate_by_differences(terms: list) -> int | None:
    """Smallest d whose order-(d + 1) differences all vanish, difference
    order by difference order, with at least two zero witnesses."""
    diffs = list(terms)
    for d in range(len(terms) - 2):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        if all(x == 0 for x in diffs):
            return d
    return None


def congruences_by_pairs(
    seq: ExactSequence, mode: str = "primary"
) -> tuple[str, int, int, tuple[Violation, ...]]:
    """``check_congruences``'s mode, length, checked pairs and violations,
    by one big-integer difference and one ``%`` for every (n, m) pair,
    n-major, counting the pairs as it goes; each violation its own record."""
    a = seq.integer_terms()
    n_terms = len(a)
    moduli = sieve_primes(n_terms - 1) if mode == "primary" else list(range(1, n_terms))
    checked = 0
    violations = []
    for n in range(n_terms - 1):
        for m in moduli:
            if n + m > n_terms - 1:
                break
            checked += 1
            if (a[n + m] - a[n]) % m != 0:
                violations.append(Violation(n, m, a[n + m] % m, a[n] % m))
    return mode, n_terms, checked, tuple(violations)


def audit_verdict_by_stages(seq: ExactSequence) -> tuple[str, int | None]:
    """``ruzsa_audit``'s (verdict, degree) with the default config, from its
    stages in their earlier order: the Hankel table before the detection,
    and the polynomiality certificate for every detected function, dropped
    again by the verdicts that do not report it."""
    congruence = check_congruences(seq, "primary")
    records = hankel_table(seq, max_order(seq))
    if congruence.ok and not all(r.divisible for r in records):
        raise InternalInvariantError("congruent prefix with a non-divisible minor")
    function = detect_rationality(seq).function
    power_of_one_minus_x = degree = None
    if function is not None:
        power_of_one_minus_x = is_power_of_one_minus_x(function.denominator)
        degree = polynomial_certificate(seq)
    if not congruence.ok:
        return VERDICT_CONGRUENCE_VIOLATION, None
    if function is not None:
        if power_of_one_minus_x and degree is not None:
            return VERDICT_POLYNOMIAL, degree
        return VERDICT_RATIONAL_NON_POLYNOMIAL, None
    return VERDICT_UNDETERMINED, None


def audit_report_by_oracles(
    seq: ExactSequence, config: AuditConfig | None = None
) -> AuditReport:
    """``ruzsa_audit``'s whole report from the oracles: the congruences one
    (n, m) pair at a time, with the residues of every modulus a violation
    names, each growth root by math.log, one elimination per Hankel order
    for the table and for the detection's evidence, the order-by-order
    recurrence search, synthetic division by (1 - x) and the
    iterated-difference certificate.  The singular directions are the one
    stage it shares with the program."""
    cfg = config or AuditConfig()
    a = seq.integer_terms()
    mode, length, checked, violations = congruences_by_pairs(seq)
    moduli = sorted({v.modulus for v in violations})
    congruence = CongruenceReport(
        mode, length, checked, tuple((m, tuple(x % m for x in a)) for m in moduli)
    )
    per_n = (0.0, *(math.exp(math.log(abs(t)) / n) if t else 0.0
                    for n, t in enumerate(a[1:], 1)))
    tail_start = (length + 1) // 2
    growth = GrowthReport(max(per_n[tail_start:], default=0.0), per_n, tail_start)
    n_max = max_order(seq) if cfg.n_max is None else cfg.n_max
    records = tuple(hankel_table_by_order(seq, n_max))
    if not moduli and not all(r.divisible for r in records):
        raise InternalInvariantError("congruent prefix with a non-divisible minor")
    det_table = det_table_by_order(seq)
    zero_run = next((i for i, d in enumerate(reversed(det_table)) if d), len(det_table))
    function = detect_function(seq, cfg.window)
    singularities = power_of_one_minus_x = degree = None
    if function is not None:
        if function.denominator.degree >= 1:
            singularities = singular_directions(function)
        power_of_one_minus_x = power_of_one_minus_x_by_division(
            function.denominator.coefficients
        )
        if power_of_one_minus_x and not moduli:
            degree = certificate_by_differences(a)
    if moduli:
        verdict = VERDICT_CONGRUENCE_VIOLATION
    elif degree is not None:
        verdict = VERDICT_POLYNOMIAL
    elif function is not None:
        verdict = VERDICT_RATIONAL_NON_POLYNOMIAL
    else:
        verdict = VERDICT_UNDETERMINED
    return AuditReport(
        length, cfg, congruence, growth, growth.tail_sup < cfg.growth_bound, records,
        RationalityDetection(function, det_table, zero_run, cfg.window), singularities,
        power_of_one_minus_x, verdict, degree,
    )


def power_of_one_minus_x_by_division(coefficients: tuple[int, ...]) -> bool:
    """Divide by (1 - x) until a remainder is nonzero; accept iff a nonzero
    constant is left."""
    if not coefficients:
        return False
    coeffs = [Fraction(c) for c in coefficients]
    while len(coeffs) > 1:
        if sum(coeffs) != 0:  # the remainder of division by (1 - x)
            return False
        quotient = []
        acc = Fraction(0)
        for c in coeffs[:-1]:
            acc += c
            quotient.append(acc)
        coeffs = quotient
    return coeffs[0] != 0


def power_of_one_minus_x_by_binomials(poly: IntPolynomial) -> bool:
    """poly is c * (1 - x)^d: its coefficients are c * (-1)^k * C(d, k) for
    its constant term c != 0 and degree d; constants count, zero does not."""
    if poly.is_zero:
        return False
    c = poly.constant_term()
    d = poly.degree
    return all(
        a == (-c if k % 2 else c) * math.comb(d, k)
        for k, a in enumerate(poly.coefficients)
    )


def matmul(a: list[list], b: list[list]) -> list[list]:
    """Row-major matrix product by the schoolbook triple loop."""
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for row in a
    ]


def transpose(a: list[list]) -> list[list]:
    return [list(col) for col in zip(*a)]


def padic_valuation_by_division(x: int, p: int) -> int | float:
    """Exponent of p in x, one division by p at a time; math.inf for 0."""
    if x == 0:
        return math.inf
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def valuation_by_climbing(value, p: int) -> int | float:
    """Exponent of p in an int or Fraction, climbing from p: divide by p,
    p^2, p^4, ... while each divides, then try the same powers from the
    largest down; math.inf for 0."""
    if value == 0:
        return math.inf
    if isinstance(value, Fraction):
        return valuation_by_climbing(value.numerator, p) - valuation_by_climbing(
            value.denominator, p
        )
    x = abs(value)
    v = 0
    climbed = []
    power, step = p, 1
    while True:
        quotient, remainder = divmod(x, power)
        if remainder:
            break
        x, v = quotient, v + step
        climbed.append((power, step))
        power, step = power * power, 2 * step
    for power, step in reversed(climbed):
        quotient, remainder = divmod(x, power)
        if not remainder:
            x, v = quotient, v + step
    return v


def leading_minors_by_pseudo_division(
    values: list[int], n: int
) -> tuple[list[int], list[int] | None]:
    """``hankel._leading_minors`` with every step run as delta + 1
    pseudo-division passes, each stripping one leading coefficient, and a
    separate pass dividing the remainder by beta."""
    prefix = values[: max(2 * n - 1, 0)]
    skip = next((i for i, v in enumerate(prefix) if v), len(prefix))
    divisor = prefix[skip:]
    if not divisor:
        return [0] * n, [1]
    dividend = [1] + [0] * (len(divisor) - 1)
    deg_f, deg_g = 2 * n, 2 * n - 1 - skip
    lc_f = psc_f = 1
    minors = []
    steps = []
    while True:
        delta = deg_f - deg_g
        lc_g = divisor[0]
        psc_g = lc_g**delta // psc_f ** (delta - 1)
        k = 2 * n - deg_g
        minors += [0] * (delta - 1) + [-psc_g if k % 4 in (2, 3) else psc_g]
        if deg_g <= n:
            return minors[:n], None
        rem, quotient = dividend, []
        for _ in range(delta + 1):
            lead = rem[0]
            quotient = [lc_g * q for q in quotient] + [lead]
            rem = [lc_g * x - lead * y for x, y in zip(rem[1:], divisor[1:])]
        beta = -lc_f * (-psc_f) ** delta
        steps.append((quotient, lc_g ** (delta + 1), beta))
        rem = [x // beta for x in rem]
        skip = next((i for i, x in enumerate(rem) if x), len(rem))
        if skip == len(rem):
            prev, den = [], [1]
            for quotient, scale, beta in steps:
                nxt = [0] * (len(quotient) + len(den) - len(prev) - 1)
                nxt += [scale * v for v in prev]
                for i, q in enumerate(quotient):
                    for j, v in enumerate(den):
                        nxt[i + j] -= q * v
                prev, den = den, [x // beta for x in nxt]
            return minors + [0] * (n - len(minors)), den
        dividend, divisor = divisor[: len(rem) - skip], rem[skip:]
        deg_f, deg_g, lc_f, psc_f = deg_g, deg_g - 1 - skip, lc_g, psc_g


def parse_lines_one_at_a_time(text: str) -> list[int]:
    """The newline sequence format, one line at a time: each line of
    str.splitlines is stripped, blank ones are skipped, and the first that
    is not a decimal integer, or passes the digit limit, is the error; lines
    are numbered in the text as given, leading blank ones included."""
    terms = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        value = formats._decimal(line)
        if value is None:
            raise InputError(f"line {line_no} is not a decimal integer: {line!r}")
        terms.append(value)
    if not terms:
        raise InputError("empty sequence input")
    return terms


def json_dumps(obj) -> str:
    """The canonical report text, from json's own (pure-Python) encoder."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render_polynomial(poly: IntPolynomial) -> str:
    """The polynomial file format: a JSON array of decimal strings."""
    return json.dumps(list(map(exact_str, poly.coefficients)))


def valuation_map(record: HankelRecord) -> dict[int, tuple[int, int | float]]:
    """prime -> (required exponent, actual exponent) of one Hankel row."""
    return {p: (req, actual) for p, req, actual in record.valuations}


def _valuation_value(v):
    return "inf" if v == math.inf else v


def hankel_rows_as_dicts(records) -> list[dict]:
    """The ``hankel`` report rows, one dict per row."""
    return [
        {
            "n": rec.n,
            "det": exact_str(rec.det),
            "required_divisor": exact_str(rec.required_divisor),
            "divisible": rec.divisible,
            "normalized_growth": rec.normalized_growth,
            "valuations": {
                str(p): {"required": req, "actual": _valuation_value(act)}
                for p, req, act in rec.valuations
            },
        }
        for rec in records
    ]


def congruence_as_dict(report) -> dict:
    """The congruence report, one dict per violation."""
    return {
        "mode": report.mode,
        "length": report.length,
        "checked_pairs": report.checked_pairs,
        "ok": report.ok,
        "violations": [
            {"n": v.n, "modulus": v.modulus, "lhs_residue": v.lhs_residue,
             "rhs_residue": v.rhs_residue}
            for v in report.violations
        ],
    }


def congruence_csv_by_str(report) -> str:
    """The congruence CSV: a header, then str() of each violation's fields,
    comma-separated, one line each."""
    lines = ["n,modulus,lhs_residue,rhs_residue"]
    for v in report.violations:
        lines.append(",".join([str(v.n), str(v.modulus), str(v.lhs_residue), str(v.rhs_residue)]))
    return "".join(line + "\n" for line in lines)


def audit_as_dict(report) -> dict:
    """The audit report with its congruence and Hankel rows as dicts."""
    obj = formats.audit_json_obj(report)
    obj["congruence"] = congruence_as_dict(report.congruence)
    obj["hankel"] = hankel_rows_as_dicts(report.hankel)
    return obj


def hall_by_pairwise_crt(length: int, perturbation: list[int]) -> list[int]:
    """``generate_hall_like`` by folding the constraints x = a_(n-k) (mod k),
    k = 1..n, into one congruence a pair at a time, each with its own gcd
    and modular inverse."""
    a = [perturbation[0]]
    for n in range(1, length):
        x, modulus = 0, 1
        for k in range(1, n + 1):
            r = a[n - k] % k
            g = math.gcd(modulus, k)
            if (r - x) % g:
                raise InternalInvariantError(f"inconsistent constraints at n={n}")
            step = k // g
            t = (r - x) // g * pow(modulus // g, -1, step) % step
            x, modulus = x + modulus * t, modulus * step
        if modulus != math.lcm(*range(1, n + 1)):
            raise InternalInvariantError("combined modulus is not lcm(1..n)")
        a.append(x + perturbation[n] * modulus)
    return a


def shares_direction_pairwise(args: list[float], tol: float) -> bool:
    """Whether two of the arguments lie within ``tol`` of each other on the
    circle, comparing every pair with the distance taken both ways round."""
    for i in range(len(args)):
        for j in range(i + 1, len(args)):
            d = abs(args[i] - args[j])
            if min(d, 2 * math.pi - d) <= tol:
                return True
    return False


def series_by_fractions(num: list, den: list, count: int) -> list[Fraction]:
    """The first ``count`` Taylor coefficients of num/den, every one a
    Fraction: each is the numerator coefficient less the convolution of den
    with the ones before, divided by den[0]."""
    d0 = Fraction(den[0])
    out: list[Fraction] = []
    for k in range(count):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / d0)
    return out
