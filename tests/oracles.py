"""Slow reference implementations kept as test oracles.

The library computes rational Hankel determinants by clearing
denominators first, reads every Hankel determinant of a prefix and the
integer recurrence of its last nonzero minor's order off one truncated
subresultant pseudo-remainder sequence, checks transform invariance with
one conjugation at the largest order, and reads the binomial transform,
the polynomiality certificate and the power-of-(1 - x) test off one
forward-difference table.  The routines below are the direct methods
those replaced: Berlekamp-Massey over the rationals and a Gauss-Jordan
solve over the rationals for every candidate recurrence order, Gaussian
elimination over the rationals, a fraction-free Bareiss elimination with
row pivoting for every Hankel order, a conjugation by schoolbook matrix
products for every order,
explicit signed-binomial sums, an iterated-difference loop and synthetic
division by (1 - x).  Valuations divide by p, p^2, p^4, ... and step back
down, and reports are written by a direct indent-2 writer; the oracles
here strip one factor of p per division and call json's own encoder.
Taylor series are expanded in integers wherever they are integral, the
detected function is taken as coprime without a reduction, and the
Hall-style generator solves only its prime-power constraints by CRT
idempotents; the oracles divide every coefficient as a Fraction, divide
the detected pair by its gcd over the rationals and fold every
constraint in pairwise.  The property tests compare the fast paths
against them.
"""
from __future__ import annotations

import json
import math
import operator
from fractions import Fraction

from pseudopoly import ExactSequence, InternalInvariantError, max_order
from pseudopoly import hankel
from pseudopoly.core import log_abs_exact
from pseudopoly.hankel import (
    HankelRecord,
    InvarianceReport,
    RationalFunction,
    _clear_denominators,
    _exact_valuation,
    _hankel_rows,
)
from pseudopoly.polyarith import clear_to_int_pair, degree, divmod_poly, gcd_poly, trim
from pseudopoly.primes import sieve_primes


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
    determinants, the latter by rational elimination."""
    terms = [Fraction(t) for t in seq.terms]
    coeffs = recurrence_by_order_search(terms, window)
    top = max_order(seq)
    trailing = [
        rational_det([[terms[i + j] for j in range(n)] for i in range(n)])
        for n in range(top - window + 1, top + 1)
    ]
    if coeffs is None or any(trailing):
        return None
    return reconstruct_by_fractions(seq.terms, recurrence_denominator(coeffs))


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
        g = gcd_poly(num, den)
        if degree(g) > 0:
            num, _ = divmod_poly(num, g)
            den, _ = divmod_poly(den, g)
    else:
        den = [Fraction(1)]
    func = RationalFunction(*clear_to_int_pair(num, den), order)
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
        return bareiss_det(_hankel_rows(seq.integer_terms(), n))
    scaled, scale = _clear_denominators(seq.terms[: 2 * n - 1])
    return Fraction(bareiss_det(_hankel_rows(scaled, n)), scale**n)


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
            actual = _exact_valuation(det, p)
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
        h_f = _hankel_rows(a, n)
        h_g = _hankel_rows(b, n)
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


def certificate_by_differences(terms: list) -> int | None:
    """Smallest d whose order-(d + 1) differences all vanish, difference
    order by difference order, with at least two zero witnesses."""
    diffs = list(terms)
    for d in range(len(terms) - 2):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        if all(x == 0 for x in diffs):
            return d
    return None


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


def json_dumps(obj) -> str:
    """The canonical report text, from json's own (pure-Python) encoder."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
