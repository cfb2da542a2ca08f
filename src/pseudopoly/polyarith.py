"""Exact univariate polynomial arithmetic over the integers.

Polynomials are plain lists of int coefficients, lowest degree first,
trailing zeros trimmed.  This is deliberately small: just what
rational-function reconstruction and the denominator analyses need.  The one
division is pseudo-division, so no Fraction is built: gcds and squarefree
factors are primitive (content 1) with a positive leading coefficient, and a
factor that is monic over the rationals is the primitive one divided by its
leading coefficient.  ``series_from_rational`` alone also accepts Fraction
coefficients, and builds a Fraction only for a series coefficient that is
not integral.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd
from operator import mul
from typing import Sequence

from .core import Exact, IntPolynomial, InputError, InternalInvariantError


def trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: list[int]) -> int:
    return len(trim(p)) - 1


def from_int_polynomial(p: IntPolynomial) -> list[int]:
    return list(p.coefficients)


def divmod_poly(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division: (Q, R) with lc(q)^(d+1) p = Q q + R and deg R < deg q,
    where d = deg p - deg q; (0, p) when deg p < deg q."""
    p, q = trim(p), trim(q)
    if not q:
        raise InputError("polynomial division by zero")
    lead, m = q[-1], len(q) - 1
    rem = list(p)
    quot = [0] * max(0, len(p) - m)
    for k in range(len(p) - len(q), -1, -1):
        factor = rem[k + m]
        quot = [lead * c for c in quot]
        quot[k] = factor
        rem = [lead * c for c in rem[:k + m]]
        for j in range(m):
            rem[k + j] -= factor * q[j]
    return trim(quot), trim(rem)


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    p = trim(p)
    if not p:
        return []
    content = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [c // content for c in p]


def _exact_quotient(p: list[int], q: list[int]) -> list[int]:
    """p / q for a primitive q that divides p over the integers."""
    quot, rem = divmod_poly(p, q)
    # quot's top coefficient is lc(q)^d times p's, so it has d + 1 terms
    scale = q[-1] ** len(quot)
    if rem or any(c % scale for c in quot):
        raise InternalInvariantError("polynomial quotient is not exact")
    return [c // scale for c in quot]


def gcd_poly(p: list[int], q: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient, by the primitive
    remainder sequence: [1] when coprime, [] iff both are zero."""
    a, b = _primitive(p), _primitive(q)
    while b:
        a, b = b, _primitive(divmod_poly(a, b)[1])
    return a


def derivative(p: list[int]) -> list[int]:
    return trim([k * c for k, c in enumerate(p)][1:])


def split_one_minus_x(p: list[int]) -> tuple[int, list[int]]:
    """(m, q) with (x - 1)^m q = p and q(1) != 0; (0, []) for p = 0.

    While the coefficients sum to 0, synthetic division by x - 1 (suffix
    sums) strips one factor.
    """
    q, m = trim(p), 0
    while q and not sum(q):
        q = list(accumulate(reversed(q[1:])))[::-1]
        m += 1
    return m, q


def squarefree_factors(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun's decomposition (1976) over the integers: primitive squarefree
    factors with positive leading coefficients, and their multiplicities,
    in ascending order of multiplicity.

    The product of factor^multiplicity is the primitive part of p with a
    positive leading coefficient.  The root x = 1, the one pole of every
    polynomial's generating function, is split off first by
    split_one_minus_x, and Yun's loop runs on the cofactor only (not at
    all when that is a constant).  x - 1 is then multiplied into the
    cofactor's factor of multiplicity m, or stands alone, so the factors are
    exactly Yun's on p.
    """
    m, b = split_one_minus_x(_primitive(p))
    d = derivative(b)
    factors = []
    # pass 0 divides out gcd(p, p'), Yun's initial step; pass i then splits
    # off the factor of multiplicity i
    i = 0
    while len(b) > 1:
        f = gcd_poly(b, d)
        if i and len(f) > 1:
            factors.append((f, i))
        b = _exact_quotient(b, f)
        c = _exact_quotient(d, f)
        d = trim([x - y for x, y in zip_longest(c, derivative(b), fillvalue=0)])
        i += 1
    if m:
        k = sum(i < m for _, i in factors)
        if k < len(factors) and factors[k][1] == m:
            f = factors[k][0]
            factors[k] = ([x - y for x, y in zip([0] + f, f + [0])], m)
        else:
            factors.insert(k, ([-1, 1], m))
    return factors


def series_from_rational(
    num: Sequence[Exact], den: Sequence[Exact], count: int
) -> list[Exact]:
    """First ``count`` Taylor coefficients of num/den (den[0] != 0).

    The coefficients are ints or Fractions.  Each series coefficient is an
    int when it is integral and a Fraction otherwise: with den[0] = 1, as
    for every integer-valued series, no Fraction is built.
    """
    den = trim(den)
    if not den or den[0] == 0:
        raise InputError("denominator must have a nonzero constant term")
    d0, negated = den[0], [-c for c in den[1:]]
    out: list[Exact] = []
    for k in range(count):
        # num[k] - sum of den[i] * out[k - i] over i = 1 .. min(k, deg den)
        acc = sum(map(mul, negated, reversed(out)), num[k] if k < len(num) else 0)
        q, r = divmod(acc, d0)
        out.append(q if r == 0 else Fraction(acc, d0))
    return out


def clear_to_int_pair(
    num: list[int], den: list[int]
) -> tuple[IntPolynomial, IntPolynomial]:
    """Divide num/den by the content of the pair, so the represented function
    is unchanged and the joint content is 1.

    The sign is fixed so the denominator's constant term (or its leading
    coefficient if the constant term is zero) is positive.
    """
    num, den = trim(num), trim(den)
    if not den:
        raise InputError("zero denominator")
    content = gcd(*num, *den)
    if (den[0] or den[-1]) < 0:
        content = -content
    return (IntPolynomial(tuple(c // content for c in num)),
            IntPolynomial(tuple(c // content for c in den)))
