"""Shared exact-arithmetic types and the error taxonomy.

Everything in this package that is a mathematical claim is computed over
``int`` / ``fractions.Fraction``; floating point appears only in explicitly
approximate quantities (growth proxies, capacity estimates, root finding).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

Exact = Union[int, Fraction]


def log_abs_exact(value: "Exact") -> float:
    """Natural log of |value| for a nonzero exact number of any magnitude."""
    if isinstance(value, Fraction):
        return math.log(abs(value.numerator)) - math.log(value.denominator)
    return math.log(abs(value))


def exact_str(value: "Exact") -> str:
    """str(value) for an int or Fraction of any size.

    str() refuses an int with more digits than the interpreter's
    int-to-str limit (4300 by default); Decimal converts it exactly
    whatever that limit is, so the limit itself is left as it is set.
    """
    try:
        return str(value)
    except ValueError:
        if isinstance(value, Fraction):
            num = exact_str(value.numerator)
            return num if value.denominator == 1 else f"{num}/{exact_str(value.denominator)}"
        import decimal  # only ints past the digit limit need it

        return str(decimal.Decimal(value))


class InputError(ValueError):
    """A caller violated an operation's preconditions."""


class InternalInvariantError(RuntimeError):
    """A mathematically guaranteed property failed.

    This never indicates bad input; it means the implementation is wrong.
    """


class NumericError(RuntimeError):
    """A floating-point routine could not meet its stated tolerance."""


def as_exact(value) -> Exact:
    """Coerce ``value`` to an exact number (int when integral)."""
    if isinstance(value, bool):
        raise InputError("booleans are not numbers here")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        return as_exact(Fraction(value))
    raise InputError(
        f"exact value required (int, Fraction or string), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class ExactSequence:
    """A finite prefix of a sequence with exact rational terms.

    Terms are stored as ``int`` when integral, ``Fraction`` otherwise; no
    floating point is ever accepted.
    """

    terms: tuple[Exact, ...]

    def __post_init__(self):
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 1:
            raise InputError("a sequence needs at least one term")
        for t in self.terms:
            if isinstance(t, bool) or not isinstance(t, (int, Fraction)):
                raise InputError(
                    f"sequence terms must be exact, got {type(t).__name__}"
                )

    @classmethod
    def of(cls, values: Iterable) -> "ExactSequence":
        """Build a sequence, coercing ints, Fractions and exact strings."""
        return cls(tuple(as_exact(v) for v in values))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Exact]:
        return iter(self.terms)

    def __getitem__(self, index):
        return self.terms[index]

    @property
    def is_integer(self) -> bool:
        return all(isinstance(t, int) for t in self.terms)

    def integer_terms(self) -> list[int]:
        """The terms as plain ints; raises if any term is a true fraction."""
        if not self.is_integer:
            raise InputError("sequence has non-integer terms")
        return list(self.terms)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, coefficients lowest degree first.

    The zero polynomial is the empty coefficient tuple; otherwise the
    trailing coefficient is nonzero.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise InputError("polynomial coefficients must be ints")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def of(cls, values: Iterable) -> "IntPolynomial":
        out = []
        for v in values:
            e = as_exact(v)
            if not isinstance(e, int):
                raise InputError(f"polynomial coefficient {v!r} is not an integer")
            out.append(e)
        return cls(tuple(out))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x: Exact) -> Exact:
        acc: Exact = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def constant_term(self) -> int:
        return self.coefficients[0] if self.coefficients else 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                body = exact_str(abs(c))
            else:
                power = "x" if k == 1 else f"x^{k}"
                body = power if abs(c) == 1 else f"{exact_str(abs(c))}*{power}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)
