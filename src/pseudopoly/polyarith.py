"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are plain lists of coefficients, lowest degree first, trailing
zeros trimmed.  This is deliberately small: just what rational-function
reconstruction and the denominator analyses need.
``series_from_rational`` and ``clear_to_int_pair`` accept int coefficients
as well as Fractions, and the series stays in ints wherever it is integral;
``divmod_poly``, ``gcd_poly``, ``monic`` and ``squarefree_factors`` divide
with ``/`` and need Fractions (``from_int_polynomial`` gives them).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .core import Exact, IntPolynomial, InputError

Poly = list[Fraction]


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: Poly) -> int:
    return len(trim(p)) - 1


def from_int_polynomial(p: IntPolynomial) -> Poly:
    return [Fraction(c) for c in p.coefficients]


def eval_poly(p: Poly, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def mul(p: Poly, q: Poly) -> Poly:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    p, q = trim(p), trim(q)
    if not q:
        raise InputError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for k in range(len(p) - len(q), -1, -1):
        factor = rem[k + len(q) - 1] / lead
        if factor == 0:
            continue
        quot[k] = factor
        for j, c in enumerate(q):
            rem[k + j] -= factor * c
    return trim(quot), trim(rem)


def monic(p: Poly) -> Poly:
    p = trim(p)
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals (1 when coprime, [] iff both zero)."""
    a, b = trim(p), trim(q)
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, r
    return monic(a)


def derivative(p: Poly) -> Poly:
    return trim([k * c for k, c in enumerate(p)][1:])


def squarefree_factors(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition: monic squarefree factors with their multiplicities.

    The product of factor^multiplicity equals the monic normalization of p.
    """
    p = monic(p)
    if degree(p) < 1:
        return []
    a = gcd_poly(p, derivative(p))
    b, _ = divmod_poly(p, a)
    c, _ = divmod_poly(derivative(p), a)
    d = trim([x - y for x, y in _padded(c, derivative(b))])
    factors = []
    i = 1
    while degree(b) > 0:
        f = gcd_poly(b, d)
        if degree(f) > 0:
            factors.append((f, i))
        b, _ = divmod_poly(b, f)
        c, _ = divmod_poly(d, f)
        d = trim([x - y for x, y in _padded(c, derivative(b))])
        i += 1
    return factors


def _padded(p: Poly, q: Poly):
    n = max(len(p), len(q))
    return zip(p + [Fraction(0)] * (n - len(p)), q + [Fraction(0)] * (n - len(q)))


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
    d0 = den[0]
    out: list[Exact] = []
    for k in range(count):
        acc = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        q, r = divmod(acc, d0)
        out.append(q if r == 0 else Fraction(acc, d0))
    return out


def clear_to_int_pair(num: Poly, den: Poly) -> tuple[IntPolynomial, IntPolynomial]:
    """Jointly scale num/den to integer polynomials with content gcd 1.

    Both are multiplied by the same rational, so the represented function is
    unchanged; the sign is fixed so the denominator's constant term (or its
    leading coefficient if the constant term is zero) is positive.
    """
    num, den = trim(num), trim(den)
    if not den:
        raise InputError("zero denominator")
    denoms = [c.denominator for c in num + den]
    scale = lcm(*denoms) if denoms else 1
    n_int = [int(c * scale) for c in num]
    d_int = [int(c * scale) for c in den]
    content = 0
    for c in n_int + d_int:
        content = gcd(content, c)
    if content > 1:
        n_int = [c // content for c in n_int]
        d_int = [c // content for c in d_int]
    anchor = d_int[0] if d_int[0] != 0 else d_int[-1]
    if anchor < 0:
        n_int = [-c for c in n_int]
        d_int = [-c for c in d_int]
    return IntPolynomial(tuple(n_int)), IntPolynomial(tuple(d_int))
