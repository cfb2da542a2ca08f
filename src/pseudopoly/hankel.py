"""Exact Hankel determinants, transform invariance, the primorial-power
divisibility audit, and rationality detection with rational-function
reconstruction.

The determinant of the order-n Hankel matrix of an integer sequence is an
integer, and for congruence-preserving sequences it is divisible by the
product over primes p <= n-1 of p^(n-p).  Every det H_k of a prefix comes
from one subresultant pseudo-remainder sequence of x^(2n) and the prefix's
generating polynomial, truncated to the coefficients the prefix decides: a
zero minor is a degree jump of that sequence, not a special case.  A
rational prefix is first scaled by the lcm D of its denominators, since
det H_n(a) = det H_n(D a) / D^n.

A one-slot memo holds everything one remainder sequence of the last
sequence (compared by identity) gives: its cleared terms D a, the scale D,
the minors and the recurrence denominator.  A caller that asks for the
orders from the top down pays one remainder sequence per prefix; the
table, the detection and the audit all ask that way, so an audit runs it
once.

Rationality detection uses the classical criterion that a power series is
rational iff almost all of its Hankel determinants vanish (Kronecker 1881),
made finite by a trailing zero-window rule.  Only a prefix whose last
``window`` minors vanish is searched for a recurrence, and the same
remainder sequence gives it: the cofactor of the prefix polynomial in the
remainder that vanishes has the order L of the last nonzero minor, and since
det H_L != 0 it is the unique solution of H_L c = (a_L .. a_(2L-1))
(Jonckheere and Ma 1989).  It is used only when N >= 2L + window, and it
is checked on every term in integers.  Being the shortest recurrence, it
makes numerator and denominator coprime, so the detected function is not
reduced again.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .binomial import binomial_transform, lower_triangular_rows
from .core import (
    Exact,
    ExactSequence,
    IntPolynomial,
    InputError,
    InternalInvariantError,
    log_abs_exact,
)
from .polyarith import (
    clear_to_int_pair,
    degree,
    divmod_poly,  # not called here: bench/tracer.py's SITES wraps this name
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
        return series_from_rational(
            self.numerator.coefficients, self.denominator.coefficients, count
        )

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


def _leading_minors(values: list[int], n: int) -> tuple[list[int], list[int] | None]:
    """det H_1 .. det H_n of the integer prefix a_0 .. a_(2n-2) in ``values``,
    and the denominator of the recurrence that prefix satisfies, if any.

    det H_k = (-1)^(k(k-1)/2) psc_(2n-k), the principal subresultant
    coefficient of degree 2n - k of x^(2n) and G = sum a_i x^(2n-1-i)
    (Collins 1967; Brown and Traub 1971), and the beta/psi subresultant PRS
    of the two yields them: the pseudo-remainder by a divisor of degree d,
    divided by beta, is the subresultant S_(d-1).  If its degree is
    d - 1 - e, the e coefficients psc_j in between are 0 and the next
    is lc^(e+1) / psc_d^e, so a zero minor is only a degree jump.  Of a
    remainder by a divisor of degree d, the prefix decides the coefficients
    of degree >= 2n + 1 - d, which are all that the orders up to n need: it
    keeps those 2d - 2n - 1, and dividend and divisor stay of equal length.
    When all of them vanish every larger minor is 0, and the remainder is
    V G mod x^(2n) with deg V = L = 2n - d, the order of the last nonzero
    minor (Brent, Gustavson and Yun 1980): sum_j v_j a_(k+j) = 0 for
    k + L <= 2n - 2.  V, highest degree first, is the returned integer
    denominator of the generating function, lowest degree first: [1] for
    an all-zero prefix, None when the sequence ends without vanishing.  V
    is folded from the recorded steps only then, since V_0 = 0, V_1 = 1
    and V_(i+1) = (lc^(delta+1) V_(i-1) - Q_i V_i) / beta, as for the
    remainders.
    """
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


def _clear_denominators(terms) -> tuple[list[int], int]:
    """The integers D*a for the lcm D of the terms' denominators, and D."""
    scale = math.lcm(*(t.denominator for t in terms))
    return [t.numerator * (scale // t.denominator) for t in terms], scale


# (sequence, its terms times D, the lcm D of their denominators or None for
# an integer sequence, then the minors and the recurrence denominator of one
# remainder sequence at order n).  It is replaced whole and never edited, so
# concurrent callers stay correct.
_memo: tuple | None = None


def _remainder_sequence(seq: ExactSequence, n: int) -> tuple:
    """The memo entry of ``seq`` at order n or above, running the remainder
    sequence again at order n only when the memo holds another sequence
    object or a smaller order."""
    global _memo
    memo = _memo
    if memo is None or memo[0] is not seq or len(memo[3]) < n:
        if seq.is_integer:
            values, scale = list(seq.terms), None
        else:
            values, scale = _clear_denominators(seq.terms)
        memo = (seq, values, scale, *_leading_minors(values, n))
        _memo = memo
    return memo


def hankel_determinant(seq: ExactSequence, n: int) -> Exact:
    """Exact determinant of the order-n Hankel matrix (order 0 gives 1).

    Answered from the memo of ``seq``'s remainder sequence, which holds its
    leading minors and its recurrence; a larger order or another sequence
    object runs the remainder sequence again at order n.
    """
    if n == 0:
        return 1
    if n < 0:
        raise InputError("order must be >= 0")
    if len(seq) < 2 * n - 1:
        raise InputError(
            f"order {n} needs a prefix of length {2 * n - 1}, have {len(seq)}"
        )
    _, _, scale, minors, _ = _remainder_sequence(seq, n)
    det = minors[n - 1]
    return det if scale is None else Fraction(det, scale**n)


def padic_valuation(x: int, p: int) -> int | float:
    """Exponent of the prime p in x; math.inf for x = 0."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError("valuation is defined for exact integers")
    if x == 0:
        return math.inf
    # Divide by p, p^2, p^4, ... while each divides, then try the same
    # powers from the largest down: a valuation v costs O(log v) divisions.
    x = abs(x)
    v = 0
    climbed = []  # (p^step, step) for each division on the way up
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


def _exact_valuation(value: Exact, p: int) -> int | float:
    if value == 0:
        return math.inf
    if isinstance(value, Fraction):
        return padic_valuation(value.numerator, p) - padic_valuation(
            value.denominator, p
        )
    return padic_valuation(value, p)


def _determinants(seq: ExactSequence, n_max: int) -> list[Exact]:
    """det H_1 .. det H_n_max, asked for from the top order down so that
    one remainder sequence serves them all."""
    return [hankel_determinant(seq, n) for n in range(n_max, 0, -1)][::-1]


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
    for n, det in enumerate(_determinants(seq, n_max), start=1):
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


def _times_lower_triangular(l_rows: list[list], m_rows: list[list]) -> list[list]:
    """L @ M^T for a lower triangular L, whose row i stops at column i."""
    return [
        [sum(map(operator.mul, li, mj)) for mj in m_rows]
        for li in (row[: i + 1] for i, row in enumerate(l_rows))
    ]


def verify_transform_invariance(seq: ExactSequence, n_max: int) -> InvarianceReport:
    """Check, for each order n <= n_max, that conjugating the Hankel matrix
    by the signed-binomial triangular matrix reproduces the Hankel matrix of
    the binomial transform entrywise, and that the two determinants agree.

    Both checks are exact; the first failure (if any) is reported with its
    order and which of the two checks broke, the entrywise one first.  L is
    lower triangular, so the leading n x n block of L H L^T is
    L_n H_n L_n^T: one conjugation at n_max decides every order, and an
    entry (i, j) that differs fails every order above max(i, j).  The
    determinants of the orders below the first entrywise failure are the
    leading minors of the two Hankel matrices.
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
    h_b = _hankel_rows(b, n_max)
    # H is symmetric, so L H L^T = L (L H)^T
    l_rows = lower_triangular_rows(n_max)
    conjugated = _times_lower_triangular(
        l_rows, _times_lower_triangular(l_rows, _hankel_rows(a, n_max))
    )
    entrywise = min(
        (max(i, j) + 1 for i, j in itertools.product(range(n_max), repeat=2)
         if conjugated[i][j] != h_b[i][j]),
        default=None,
    )
    agreed = n_max if entrywise is None else entrywise - 1
    minors_a = _leading_minors(a, agreed)[0]
    minors_b = _leading_minors(b, agreed)[0]
    for n in range(1, agreed + 1):
        if minors_a[n - 1] != minors_b[n - 1]:
            return InvarianceReport(False, n_max, (n, "determinant"))
    if entrywise is not None:
        return InvarianceReport(False, n_max, (entrywise, "entrywise"))
    return InvarianceReport(True, n_max, None)


def _reconstruct(
    terms: tuple[Exact, ...], values: list[int], scale: int, den: list[int]
) -> RationalFunction:
    """num/den for the integer denominator ``den`` (lowest degree first) of
    the shortest recurrence, of order len(den) - 1, that holds on all of
    ``terms``.

    ``values`` are the terms times the lcm ``scale`` of their denominators,
    so the integer product den * values below that order is ``scale`` times
    the numerator, and (that product, scale * den) is the function.  A
    shortest recurrence makes the two coprime, so a common factor is an
    InternalInvariantError, as is an expansion that misses ``terms``.
    """
    order = len(den) - 1
    num = trim([sum(map(operator.mul, den, values[k::-1])) for k in range(order)])
    n_poly, d_poly = clear_to_int_pair(num, [scale * c for c in den] if num else [1])
    try:
        func = RationalFunction(n_poly, d_poly, order)
    except InputError as exc:
        raise InternalInvariantError(
            f"the shortest recurrence gave no reduced rational function: {exc}"
        ) from exc
    if func.taylor(len(terms)) != list(terms):
        raise InternalInvariantError(
            "reconstructed rational function does not reproduce the prefix"
        )
    return func


def detect_rationality(seq: ExactSequence, window: int = 3) -> RationalityDetection:
    """Decide, from a finite prefix, whether the sequence looks rational.

    The decision rule: the minimal constant-coefficient recurrence that
    fits the entire prefix must have an order r with 2r + window <= N, and
    the Hankel determinants must vanish for the last ``window`` observable
    orders.  The determinants are checked first, and only a zero window
    leads on to the recurrence: the integer denominator, of the order r of
    the last nonzero minor, that the remainder sequence of the
    denominator-cleared prefix gave along with the determinants.  It is
    checked on every term in integers.  The remainder sequence proves it on
    the terms the minors read, so a miss there is an InternalInvariantError;
    a miss at the last term of an even-length prefix, which no minor reads,
    means that no recurrence of order r fits, and the prefix is not
    detected.  On success the recurrence is turned into a numerator /
    denominator pair that is re-expanded and checked against the prefix
    exactly.  Absence of detection is a normal outcome; the determinant
    evidence is returned either way.
    """
    if window < 1:
        raise InputError("window must be >= 1")
    n_terms = len(seq)
    if n_terms < 2 * window + 2:
        raise InputError(
            f"window {window} needs a prefix of length {2 * window + 2}, have {n_terms}"
        )
    n = max_order(seq)
    det_table = tuple(_determinants(seq, n))
    zero_run = 0
    for d in reversed(det_table):
        if d != 0:
            break
        zero_run += 1
    function = None
    if all(d == 0 for d in det_table[-window:]):
        _, values, scale, _, den = _remainder_sequence(seq, n)
        if den is not None:
            order = len(den) - 1
            miss = next((m for m in range(order, n_terms)
                         if sum(map(operator.mul, den, values[m::-1]))), n_terms)
            if miss <= 2 * n - 2:
                raise InternalInvariantError(
                    "the remainder sequence's recurrence does not reproduce the prefix"
                )
            if miss == n_terms and 2 * order + window <= n_terms:
                function = _reconstruct(seq.terms, values, scale or 1, den)
    return RationalityDetection(function, det_table, zero_run, window)
