"""Exact Hankel matrices and determinants, transform invariance, the
primorial-power divisibility audit, and rationality detection with
rational-function reconstruction.

The determinant of the order-n Hankel matrix of an integer sequence is an
integer, and for congruence-preserving sequences it is divisible by the
product over primes p <= n-1 of p^(n-p).  Every determinant is one
fraction-free Bareiss elimination over the integers (Bareiss 1968); a
rational prefix is first scaled by the lcm D of its denominators, since
det H_n(a) = det H_n(D a) / D^n.

Rationality detection uses the classical criterion that a power series is
rational iff almost all of its Hankel determinants vanish, made finite by a
trailing zero-window rule.  The minimal recurrence comes from one
Berlekamp-Massey pass over the rationals (Massey 1969), which returns the
linear complexity L of the prefix and the recurrence coefficients.  It is
used only when N >= 2L + window; then N >= 2L, and Massey shows that the
shortest recurrence is unique, so the reconstruction does not depend on how
the recurrence was found.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .binomial import ExactMatrix, binomial_transform, lower_triangular_rows
from .core import (
    Exact,
    ExactSequence,
    IntPolynomial,
    InputError,
    InternalInvariantError,
    as_exact,
    log_abs_exact,
)
from .polyarith import (
    clear_to_int_pair,
    degree,
    divmod_poly,
    from_int_polynomial,
    gcd_poly,
    series_from_rational,
    trim,
)
from .primes import is_prime, sieve_primes


@dataclass(frozen=True)
class HankelRecord:
    """Audit row for one Hankel order.

    ``valuations`` holds (prime, required exponent, actual exponent) triples
    for every prime <= n - 1; the actual exponent is math.inf when the
    determinant is zero, in which case the row passes vacuously and
    ``normalized_growth`` is absent.
    """

    n: int
    det: Exact
    required_divisor: int
    valuations: tuple[tuple[int, int, int | float], ...]
    divisible: bool
    normalized_growth: float | None

    @property
    def valuation_map(self) -> dict[int, tuple[int, int | float]]:
        return {p: (req, actual) for p, req, actual in self.valuations}


@dataclass(frozen=True)
class RationalFunction:
    """Coprime integer-coefficient numerator/denominator pair.

    Normalized jointly: integer coefficients with content gcd 1 and a
    positive denominator constant term.  For integer-valued source
    sequences that stay integral, the constant term is 1.  ``order`` is the
    order of the minimal constant-coefficient recurrence that produced it.
    """

    numerator: IntPolynomial
    denominator: IntPolynomial
    order: int

    def __post_init__(self):
        if self.denominator.is_zero:
            raise InputError("denominator must be nonzero")
        if self.denominator.constant_term() <= 0:
            raise InputError("denominator constant term must be positive")
        if self.order < 0:
            raise InputError("order must be >= 0")
        coeffs = self.numerator.coefficients + self.denominator.coefficients
        if math.gcd(*coeffs) != 1:
            raise InputError("numerator and denominator must have joint content 1")
        if not self.numerator.is_zero:
            g = gcd_poly(
                from_int_polynomial(self.numerator),
                from_int_polynomial(self.denominator),
            )
            if degree(g) > 0:
                raise InputError("numerator and denominator must be coprime")

    def taylor(self, count: int) -> list[Exact]:
        """First ``count`` coefficients of the power series expansion."""
        coeffs = series_from_rational(
            from_int_polynomial(self.numerator),
            from_int_polynomial(self.denominator),
            count,
        )
        return [as_exact(c) for c in coeffs]

    def __str__(self) -> str:
        return f"({self.numerator})/({self.denominator})"


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the conjugation/determinant invariance verification."""

    passed: bool
    checked_max: int
    first_failure: tuple[int, str] | None  # (order, "entrywise" | "determinant")


@dataclass(frozen=True)
class RationalityDetection:
    """Kronecker-style detection evidence, with the reconstruction if any.

    ``det_table`` lists the exact Hankel determinants for every observable
    order, ``zero_run`` the length of its trailing run of zeros.
    """

    function: RationalFunction | None
    det_table: tuple[Exact, ...]
    zero_run: int
    window: int


def _hankel_rows(values: list, n: int) -> list[list]:
    return [[values[i + j] for j in range(n)] for i in range(n)]


def hankel_matrix(seq: ExactSequence, n: int) -> ExactMatrix:
    """Order-n Hankel matrix: 1-based entry (i, j) is term i + j - 2."""
    if n < 1:
        raise InputError("order must be >= 1")
    if len(seq) < 2 * n - 1:
        raise InputError(
            f"order {n} needs a prefix of length {2 * n - 1}, have {len(seq)}"
        )
    return ExactMatrix.from_rows(_hankel_rows(list(seq.terms), n))


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix.

    One-step Bareiss elimination: every intermediate is an exact integer
    (each division below is exact by Sylvester's identity), which keeps
    entry growth polynomial instead of the exponential blowup of naive
    expansion.
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


def _clear_denominators(terms) -> tuple[list[int], int]:
    """The integers D*a for the lcm D of the terms' denominators, and D."""
    scale = math.lcm(*(t.denominator for t in terms))
    return [t.numerator * (scale // t.denominator) for t in terms], scale


def hankel_determinant(seq: ExactSequence, n: int) -> Exact:
    """Exact determinant of the order-n Hankel matrix (order 0 gives 1)."""
    if n == 0:
        return 1
    if n < 0:
        raise InputError("order must be >= 0")
    if len(seq) < 2 * n - 1:
        raise InputError(
            f"order {n} needs a prefix of length {2 * n - 1}, have {len(seq)}"
        )
    if seq.is_integer:
        return _bareiss_det(_hankel_rows(seq.integer_terms(), n))
    scaled, scale = _clear_denominators(seq.terms[: 2 * n - 1])
    return Fraction(_bareiss_det(_hankel_rows(scaled, n)), scale**n)


def padic_valuation(x: int, p: int) -> int | float:
    """Exponent of the prime p in x; math.inf for x = 0."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError("valuation is defined for exact integers")
    if x == 0:
        return math.inf
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _exact_valuation(value: Exact, p: int) -> int | float:
    if value == 0:
        return math.inf
    if isinstance(value, Fraction):
        return padic_valuation(value.numerator, p) - padic_valuation(
            value.denominator, p
        )
    return padic_valuation(value, p)


def max_order(seq: ExactSequence) -> int:
    """Largest Hankel order observable from this prefix."""
    return (len(seq) + 1) // 2


def hankel_table(seq: ExactSequence, n_max: int) -> list[HankelRecord]:
    """Audit rows for orders 1..n_max: determinant, required primorial-power
    divisor, per-prime valuations, and normalized growth |det|^(1/n^2)."""
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    if n_max > max_order(seq):
        raise InputError(
            f"order {n_max} needs a prefix of length {2 * n_max - 1}, have {len(seq)}"
        )
    small_primes = sieve_primes(max(0, n_max - 1))
    records = []
    for n in range(1, n_max + 1):
        det = hankel_determinant(seq, n)
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


def normalized_det_growth(seq: ExactSequence, n_max: int) -> list[float | None]:
    """|det H_n|^(1/n^2) for n = 1..n_max; None where the determinant is 0.

    Zero determinants are reported as absent rather than 0 so that trend
    inspection tracks the nonzero subsequence.
    """
    return [r.normalized_growth for r in hankel_table(seq, n_max)]


def _conjugate_by_lower_triangular(l_rows: list[list], h_rows: list[list]) -> list[list]:
    """L @ H @ L^T exploiting that L is lower triangular."""
    n = len(l_rows)
    t = []
    for i in range(n):
        li = l_rows[i]
        row = []
        for j in range(n):
            acc = 0
            for k in range(i + 1):
                c = li[k]
                if c:
                    acc += c * h_rows[k][j]
            row.append(acc)
        t.append(row)
    out = []
    for i in range(n):
        ti = t[i]
        row = []
        for j in range(n):
            lj = l_rows[j]
            acc = 0
            for k in range(j + 1):
                c = lj[k]
                if c:
                    acc += ti[k] * c
            row.append(acc)
        out.append(row)
    return out


def verify_transform_invariance(seq: ExactSequence, n_max: int) -> InvarianceReport:
    """Check, for each order n <= n_max, that conjugating the Hankel matrix
    by the signed-binomial triangular matrix reproduces the Hankel matrix of
    the binomial transform entrywise, and that the two determinants agree.

    Both checks are exact; the first failure (if any) is reported with its
    order and which of the two checks broke.
    """
    if n_max < 1 or n_max > max_order(seq):
        raise InputError(
            f"n_max must be in 1..{max_order(seq)} for a prefix of length {len(seq)}"
        )
    if not seq.is_integer:
        # both checks are homogeneous, so scaling by the lcm of the
        # denominators changes neither outcome
        seq = ExactSequence(tuple(_clear_denominators(seq.terms)[0]))
    a = seq.integer_terms()
    b = binomial_transform(seq).integer_terms()
    for n in range(1, n_max + 1):
        h_f = _hankel_rows(a, n)
        h_g = _hankel_rows(b, n)
        conjugated = _conjugate_by_lower_triangular(lower_triangular_rows(n), h_f)
        if conjugated != h_g:
            return InvarianceReport(False, n_max, (n, "entrywise"))
        if _bareiss_det(h_f) != _bareiss_det(h_g):
            return InvarianceReport(False, n_max, (n, "determinant"))
    return InvarianceReport(True, n_max, None)


def _berlekamp_massey(terms: list[Fraction]) -> list[Fraction]:
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


def _reconstruct(terms: list[Fraction], coeffs: list[Fraction]) -> RationalFunction:
    r = len(coeffs)
    den = [Fraction(1)] + [-c for c in coeffs]
    num = []
    for k in range(r):
        acc = terms[k]
        for i in range(1, min(k, r) + 1):
            acc -= coeffs[i - 1] * terms[k - i]
        num.append(acc)
    num = trim(num)
    if num:
        g = gcd_poly(num, den)
        if degree(g) > 0:
            num, _ = divmod_poly(num, g)
            den, _ = divmod_poly(den, g)
    else:
        den = [Fraction(1)]
    n_poly, d_poly = clear_to_int_pair(num, den)
    func = RationalFunction(n_poly, d_poly, r)
    if func.taylor(len(terms)) != [as_exact(t) for t in terms]:
        raise InternalInvariantError(
            "reconstructed rational function does not reproduce the prefix"
        )
    return func


def detect_rationality(seq: ExactSequence, window: int = 3) -> RationalityDetection:
    """Decide, from a finite prefix, whether the sequence looks rational.

    The decision rule: the minimal constant-coefficient recurrence that
    fits the entire prefix must have an order r with 2r + window <= N, and
    the Hankel determinants must vanish for the last ``window`` observable
    orders.  Berlekamp-Massey finds that recurrence in one pass over the
    rationals; since N >= 2r + window > 2r, it is the unique recurrence of
    order r on the prefix.  Rational input needs no special case: the
    determinants clear denominators, and the recurrence is found over Q.
    On success the recurrence is turned into a numerator / denominator pair
    that is re-expanded and checked against the prefix exactly.  Absence of
    detection is a normal outcome; the determinant evidence is returned
    either way.
    """
    if window < 1:
        raise InputError("window must be >= 1")
    n_terms = len(seq)
    if n_terms < 2 * window + 2:
        raise InputError(
            f"window {window} needs a prefix of length {2 * window + 2}, have {n_terms}"
        )
    terms = [Fraction(t) for t in seq.terms]
    det_table = tuple(
        hankel_determinant(seq, n) for n in range(1, max_order(seq) + 1)
    )
    zero_run = 0
    for d in reversed(det_table):
        if d != 0:
            break
        zero_run += 1
    coeffs = _berlekamp_massey(terms)
    order = len(coeffs)
    for n in range(order, n_terms):
        if sum(map(operator.mul, coeffs, terms[n - 1 :: -1])) != terms[n]:
            raise InternalInvariantError(
                "Berlekamp-Massey recurrence does not reproduce the prefix"
            )
    function = None
    if 2 * order + window <= n_terms and all(d == 0 for d in det_table[-window:]):
        function = _reconstruct(terms, coeffs)
    return RationalityDetection(function, det_table, zero_run, window)
