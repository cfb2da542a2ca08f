"""Exact Hankel determinants, transform invariance, the primorial-power
divisibility audit, and rationality detection with rational-function
reconstruction.

The determinant of the order-n Hankel matrix of an integer sequence is an
integer, and for congruence-preserving sequences it is divisible by the
product P_0 P_1 ... P_(n-1) of the primorials below n.  Every det H_k of a
prefix comes from one subresultant pseudo-remainder sequence of x^(2n) and
the prefix's generating polynomial, truncated to the coefficients the
prefix decides: a zero minor is a degree jump of that sequence, not a
special case.  A rational prefix is first scaled by the lcm D of its
denominators, since det H_n(a) = det H_n(D a) / D^n.

A one-slot memo holds everything one remainder sequence of the last
sequence (compared by identity) gives: its cleared terms D a, the scale D,
the minors and the recurrence denominator.  A caller that asks for the
orders from the top down pays one remainder sequence per prefix.  An audit
runs the detection, which asks at the largest order, before its table,
which reads the same entry at any n_max, so it runs the sequence once.

Rationality detection uses the classical criterion that a power series is
rational iff almost all of its Hankel determinants vanish (Kronecker 1881),
made finite by a trailing zero-window rule.  Only a prefix whose last
``window`` minors vanish is searched for a recurrence, and the same
remainder sequence gives it: the cofactor of the prefix polynomial in the
remainder that vanishes has the order L of the last nonzero minor, and since
det H_L != 0 it is the unique solution of H_L c = (a_L .. a_(2L-1))
(Jonckheere and Ma 1989).  A zero window gives N >= 2L + window, and the
re-expansion of num/den over every term alone decides the one term that no
minor reads, the last of an even-length prefix.  Being the shortest
recurrence, it makes numerator and denominator coprime, so the detected
function is not reduced again.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .binomial import binomial_transform, lower_triangular_rows, primorials
from .core import (
    Exact,
    ExactSequence,
    IntPolynomial,
    InputError,
    InternalInvariantError,
    root_abs_exact,
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
from .primes import is_prime, sieve_flags

DEFAULT_WINDOW = 3  # trailing zero minors that detection asks for


class HankelRecord(NamedTuple):
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


class RationalFunction(NamedTuple("RationalFunction", [
        ("numerator", IntPolynomial), ("denominator", IntPolynomial), ("order", int)])):
    """Coprime integer-coefficient numerator/denominator pair.

    Normalized jointly: integer coefficients with content gcd 1 and a
    positive denominator constant term.  For integer-valued source
    sequences that stay integral, the constant term is 1.  ``order`` is the
    order of the minimal constant-coefficient recurrence that produced it.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, numerator: IntPolynomial, denominator: IntPolynomial, order: int):
        if denominator.is_zero:
            raise InputError("denominator must be nonzero")
        if denominator.constant_term() <= 0:
            raise InputError("denominator constant term must be positive")
        if order < 0:
            raise InputError("order must be >= 0")
        if math.gcd(*numerator.coefficients, *denominator.coefficients) != 1:
            raise InputError("numerator and denominator must have joint content 1")
        g = gcd_poly(from_int_polynomial(numerator), from_int_polynomial(denominator))
        if degree(g) > 0:
            raise InputError("numerator and denominator must be coprime")
        return super().__new__(cls, numerator, denominator, order)

    def taylor(self, count: int) -> list[Exact]:
        """First ``count`` coefficients of the power series expansion."""
        return series_from_rational(
            self.numerator.coefficients, self.denominator.coefficients, count
        )

    def __str__(self) -> str:
        return f"({self.numerator})/({self.denominator})"


class InvarianceReport(NamedTuple):
    """Outcome of the conjugation invariance verification."""

    passed: bool
    checked_max: int
    # (order, "entrywise"): the string names the failed check for the
    # report's "check" key; the determinants follow from the conjugation
    first_failure: tuple[int, str] | None


class RationalityDetection(NamedTuple):
    """Kronecker-style detection evidence, with the reconstruction if any.

    ``det_table`` lists the exact Hankel determinants for every observable
    order, ``zero_run`` the length of its trailing run of zeros.
    """

    function: RationalFunction | None
    det_table: tuple[Exact, ...]
    zero_run: int
    window: int


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
    keeps those 2d - 2n - 1, and a dividend's coefficients past its
    divisor's length are never read.
    When all of them vanish every larger minor is 0, and the remainder is
    V G mod x^(2n) with deg V = L = 2n - d, the order of the last nonzero
    minor (Brent, Gustavson and Yun 1980): sum_j v_j a_(k+j) = 0 for
    k + L <= 2n - 2.  V, highest degree first, is the returned integer
    denominator of the generating function, lowest degree first: [1] for
    an all-zero prefix, None when the sequence ends without vanishing.  V
    is folded from the recorded steps only then, since V_0 = 0, V_1 = 1
    and V_(i+1) = (lc^(delta+1) V_(i-1) - Q_i V_i) / beta, as for the
    remainders.

    A step with delta = 1, which is every step while consecutive minors are
    nonzero, is one pass over the coefficients: the pseudo-quotient of F by
    G is q_0 x + q_1 with q_0 = lc f_0 and q_1 = lc f_1 - f_0 g_1, and each
    kept remainder coefficient is (lc^2 f_(i+2) - q_0 g_(i+2) - q_1 g_(i+1))
    / beta.  There psc = lc and beta = lc_f psc_f, and a remainder whose
    first coefficient is nonzero is the next divisor as it stands, its
    divisor the next dividend.  A degree jump (delta >= 2) strips one
    leading coefficient per pass, delta + 1 times, and divides by beta
    after them.
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
        k = 2 * n - deg_g
        if delta == 1:  # every step of a normal sequence
            psc_g = lc_g
            minors.append(-lc_g if k % 4 in (2, 3) else lc_g)
            if deg_g <= n:
                return minors[:n], None
            beta = lc_f * psc_f
            scale = lc_g * lc_g
            q_0 = lc_g * dividend[0]
            q_1 = lc_g * dividend[1] - dividend[0] * divisor[1]
            rem = [(scale * f - q_0 * g - q_1 * h) // beta
                   for f, g, h in zip(dividend[2:], divisor[2:], divisor[1:])]
            steps.append(((q_0, q_1), scale, beta))
            if rem[0]:  # a normal step again: the dividend may run longer
                dividend, divisor = divisor, rem
                deg_f, deg_g, lc_f, psc_f = deg_g, deg_g - 1, lc_g, lc_g
                continue
        else:
            psc_g = lc_g**delta // psc_f ** (delta - 1)
            minors += [0] * (delta - 1) + [-psc_g if k % 4 in (2, 3) else psc_g]
            if deg_g <= n:
                return minors[:n], None
            beta = -lc_f * (-psc_f) ** delta
            rem, quotient = dividend, []
            for _ in range(delta + 1):
                lead = rem[0]
                quotient = [lc_g * q for q in quotient] + [lead]
                rem = [lc_g * x - lead * y for x, y in zip(rem[1:], divisor[1:])]
            scale = lc_g ** (delta + 1)
            rem = [x // beta for x in rem]
            steps.append((quotient, scale, beta))
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
# concurrent callers stay correct; the first entry holds no sequence.
_memo: tuple = (None, None, None, [], None)


def _remainder_sequence(seq: ExactSequence, n: int) -> tuple:
    """The memo entry of ``seq`` at order n or above, running the remainder
    sequence again at order n only when the memo holds another sequence
    object or a smaller order."""
    global _memo
    memo = _memo
    if memo[0] is not seq or len(memo[3]) < n:
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
    object runs the remainder sequence again at order n.  A memo entry at
    order m was made for a prefix of at least 2m - 1 terms, so an order
    1 .. m that it holds needs no check.
    """
    held, _, scale, minors, _ = _memo
    if held is not seq or not 0 < n <= len(minors):
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
    return _exact_valuation(x, p)


def _exact_valuation(value: Exact, p: int) -> int | float:
    """padic_valuation of an int or a Fraction, for a p known to be prime."""
    if value == 0:
        return math.inf
    if type(value) is not int and isinstance(value, Fraction):
        return _exact_valuation(value.numerator, p) - _exact_valuation(
            value.denominator, p
        )
    # v = 0 and v = 1, the usual answers, take one division each
    x, remainder = divmod(value, p)
    if remainder:
        return 0
    x, remainder = divmod(x, p)
    if remainder:
        return 1
    v = 2
    # Divide by p, p^2, p^4, ... while each divides, then try the same
    # powers from the largest down: a valuation v costs O(log v) divisions.
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


def _determinants(seq: ExactSequence, n_max: int) -> list[Exact]:
    """det H_1 .. det H_n_max, asked for from the top order down so that
    one remainder sequence serves them all."""
    return [hankel_determinant(seq, n) for n in range(n_max, 0, -1)][::-1]


def max_order(seq: ExactSequence) -> int:
    """Largest Hankel order observable from this prefix."""
    return (len(seq) + 1) // 2


def hankel_table(seq: ExactSequence, n_max: int) -> list[HankelRecord]:
    """Audit rows for orders 1..n_max: determinant, required divisor P_0 ...
    P_(n-1), per-prime valuations, and normalized growth |det|^(1/n^2).

    A prime p <= n - 1 is required to divide det H_n to the exponent n - p;
    the required divisor, the product of those p^(n - p), divides det iff
    every v_p(det) >= n - p.  A zero determinant has every valuation
    math.inf and divides.  A nonzero int determinant's one division by the
    required divisor decides ``divisible``, and the valuations climb the
    quotient, v_p = n - p + v_p(quotient), when it divides, else the
    determinant.  Only the primes of that number's gcd with P_(n-1) are
    climbed, the others have v_p = 0 in it.  A Fraction climbs every prime
    from p.  Row 1's growth |a_0| needs no determinant, so it is checked
    before the remainder sequence runs.
    """
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    if n_max > max_order(seq):
        raise InputError(
            f"order {n_max} needs a prefix of length {2 * n_max - 1}, have {len(seq)}"
        )
    if n_max and seq.terms[0]:
        root_abs_exact(seq.terms[0], 1, "det H_1")
    is_prime_flag = sieve_flags(max(0, n_max - 1))
    primorial = primorials(max(0, n_max - 1))
    exp, gcd, inf, log = math.exp, math.gcd, math.inf, math.log
    record = tuple.__new__
    required_divisor = 1
    below = []  # the primes <= n - 1
    records = []
    for n, det in enumerate(_determinants(seq, n_max), start=1):
        required_divisor *= primorial[n - 1]
        if is_prime_flag[n - 1]:
            below.append(n - 1)
        if det == 0:
            valuations = tuple([(p, n - p, inf) for p in below])
            divisible, growth = True, None
        elif type(det) is int:
            try:  # root_abs_exact's expression, so the same float
                growth = exp(log(abs(det)) / (n * n))
            except OverflowError:
                growth = root_abs_exact(det, n * n, f"det H_{n}")
            quotient, remainder = divmod(det, required_divisor)
            divisible = not remainder
            climbed = quotient if divisible else det
            shared = gcd(climbed, primorial[n - 1])
            valuations = tuple([
                (p, n - p, (n - p if divisible else 0)
                 + (0 if shared % p else _exact_valuation(climbed, p)))
                for p in below
            ])
        else:
            growth = root_abs_exact(det, n * n, f"det H_{n}")
            valuations = tuple([(p, n - p, _exact_valuation(det, p)) for p in below])
            divisible = all(actual >= required for _, required, actual in valuations)
        records.append(record(
            HankelRecord, (n, det, required_divisor, valuations, divisible, growth)
        ))
    return records


def normalized_det_growth(seq: ExactSequence, n_max: int) -> list[float | None]:
    """|det H_n|^(1/n^2) for n = 1..n_max; None where the determinant is 0.

    Zero determinants are reported as absent rather than 0 so that trend
    inspection tracks the nonzero subsequence.
    """
    return [r.normalized_growth for r in hankel_table(seq, n_max)]


def verify_transform_invariance(seq: ExactSequence, n_max: int) -> InvarianceReport:
    """Check, for each order n <= n_max, that conjugating the Hankel matrix
    by the signed-binomial triangular matrix L reproduces the Hankel matrix
    of the binomial transform entrywise, so that the two determinants agree.

    The check is exact; the first failing order (if any) is reported.  Row
    i of L takes the i-th forward difference D^i at 0, so entry (i, j) of
    L H(a) L^T is D^i D^j of a_(r+s) at r = s = 0, that is D^(i+j) a_0:
    L H(a) L^T = H(L a).  The leading n_max block therefore equals H(b) entrywise iff b_k = D^k a_0
    for every k < 2 n_max - 1, and a b_k that differs fails every order
    above ceil(k / 2).  L has unit diagonal, so det L_n = 1, and at every
    order where the blocks agree det H_n(b) = det H_n(a) (Layman 2001): no
    determinant is computed.  b_k depends on a_0 .. a_k alone, so only the
    2 n_max - 1 terms the check reads are transformed.

    With n = n_max, rows 0 .. n of L suffice: rows 0 .. n - 1 give D^k a_0
    for k < n, row n gives D^n a_j for j < n - 1, and the differences of
    those, D^(n+m) a_0 for m < n - 1, are rows 0 .. n - 2 applied to them.
    """
    if n_max < 1 or n_max > max_order(seq):
        raise InputError(
            f"n_max must be in 1..{max_order(seq)} for a prefix of length {len(seq)}"
        )
    # the check is homogeneous, so scaling by the lcm of the denominators
    # does not change its outcome
    a = _clear_denominators(seq.terms[: 2 * n_max - 1])[0]
    b = binomial_transform(ExactSequence(a)).integer_terms()
    *l_rows, l_top = lower_triangular_rows(n_max + 1)
    tail = [sum(map(operator.mul, l_top, a[j:])) for j in range(n_max - 1)]
    differences = [sum(map(operator.mul, row, a)) for row in l_rows]
    differences += [sum(map(operator.mul, row, tail)) for row in l_rows[: n_max - 1]]
    k = next((k for k, (d, bk) in enumerate(zip(differences, b)) if d != bk), None)
    if k is not None:
        return InvarianceReport(False, n_max, ((k + 1) // 2 + 1, "entrywise"))
    return InvarianceReport(True, n_max, None)


def _reconstruct(
    terms: tuple[Exact, ...], values: list[int], scale: int, den: list[int]
) -> RationalFunction | None:
    """num/den for the integer denominator ``den`` (lowest degree first) of
    the shortest recurrence, of order len(den) - 1, on the 2 max_order - 1
    terms the minors read; None if it misses only the last of an
    even-length ``terms``, which they do not read.

    ``values`` are the terms times the lcm ``scale`` of their denominators,
    so the integer product den * values below that order is ``scale`` times
    the numerator, and (that product, scale * den) is the function.  A
    shortest recurrence makes the two coprime, so a common factor is an
    InternalInvariantError, as is an expansion that misses a term read.
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
    expansion = func.taylor(len(terms))
    if expansion == list(terms):
        return func
    if len(terms) % 2 == 0 and expansion[:-1] == list(terms[:-1]):
        return None
    raise InternalInvariantError(
        "reconstructed rational function does not reproduce the prefix"
    )


def detect_rationality(
    seq: ExactSequence, window: int = DEFAULT_WINDOW
) -> RationalityDetection:
    """Decide, from a finite prefix, whether the sequence looks rational.

    The decision rule: the Hankel determinants must vanish for the last
    ``window`` observable orders, and the minimal constant-coefficient
    recurrence must fit the entire prefix.  The determinants are checked
    first, and only a zero window leads on to the recurrence: the integer
    denominator, of the order r of the last nonzero minor, that the
    remainder sequence of the denominator-cleared prefix gave along with
    the determinants.  Its numerator / denominator pair is re-expanded
    against the prefix, exactly, and the first miss decides: none, and the
    prefix is detected; at the last term of an even-length prefix, which
    no minor reads, no recurrence of order r fits and it is not detected;
    earlier, where the remainder sequence proves the recurrence, it is an
    InternalInvariantError.  Absence of detection is a normal outcome; the
    determinant evidence is returned either way.
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
    zero_run = next((i for i, d in enumerate(reversed(det_table)) if d), n)
    function = None
    if zero_run >= window:
        # order = n - zero_run, so 2 * order + window <= 2n - 1 <= N
        _, values, scale, _, den = _remainder_sequence(seq, n)
        if den is not None:
            function = _reconstruct(seq.terms, values, scale or 1, den)
    return RationalityDetection(function, det_table, zero_run, window)
