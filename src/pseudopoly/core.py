"""Shared exact-arithmetic types and the error taxonomy.

Everything in this package that is a mathematical claim is computed over
``int`` / ``fractions.Fraction``; floating point appears only in explicitly
approximate quantities (growth proxies, capacity estimates, root finding).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Union

Exact = Union[int, Fraction]


def log_abs_exact(value: "Exact") -> float:
    """Natural log of |value| for a nonzero exact number of any magnitude."""
    if type(value) is not int and isinstance(value, Fraction):
        return math.log(abs(value.numerator)) - math.log(value.denominator)
    return math.log(abs(value))


def root_abs_exact(value: "Exact", k: int, what: str) -> float:
    """|value|^(1/k) of a nonzero exact number; InputError names ``what``."""
    try:
        return math.exp(log_abs_exact(value) / k)
    except OverflowError:
        raise InputError(f"|{what}|^(1/{k}) is past the float range") from None


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
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"not an exact number: {value!r}") from None
        return as_exact(exact)
    raise InputError(
        f"exact value required (int, Fraction or string), got {type(value).__name__}"
    )


def as_exact_int(value, what: str) -> int:
    """``value`` as an exact int; an InputError names ``what`` and the value
    when as_exact rejects it or gives a non-integral Fraction."""
    try:
        exact = as_exact(value)
    except InputError:
        exact = None
    if not isinstance(exact, int):
        raise InputError(f"{what} {value!r} is not an integer")
    return exact


_EXACT_TYPES = {int, Fraction}


class ExactSequence:
    """A finite prefix of a sequence with exact rational terms.

    Terms are stored as ``int`` when integral, ``Fraction`` otherwise; no
    floating point is ever accepted.  The terms' types are checked once, on
    construction, which also stores an integral Fraction as its int and
    sets the ``is_integer`` slot: whether every term is an int, as
    ``all(isinstance(t, int) for t in terms)`` says.  The private slot
    ``_hankel`` holds what hankel.py's remainder sequence gave, or None.
    """

    # not a tuple: len, [] and iter read the terms
    __slots__ = ("terms", "is_integer", "_hankel")

    def __init__(self, terms: Iterable[Exact]):
        terms = tuple(terms)
        if len(terms) < 1:
            raise InputError("a sequence needs at least one term")
        kinds = set(map(type, terms))
        if not kinds <= _EXACT_TYPES:  # subclasses, or a term that is not exact
            for t in terms:
                if isinstance(t, bool) or not isinstance(t, (int, Fraction)):
                    raise InputError(
                        f"sequence terms must be exact, got {type(t).__name__}"
                    )
        is_integer = all(issubclass(k, int) for k in kinds)
        if not is_integer:  # a Fraction is present
            terms = tuple(
                t.numerator if isinstance(t, Fraction) and t.denominator == 1 else t
                for t in terms
            )
            is_integer = all(isinstance(t, int) for t in terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "is_integer", is_integer)
        object.__setattr__(self, "_hankel", None)

    def __setattr__(self, name, *value):  # immutable: the Hankel facts follow the terms
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.terms,)

    def __eq__(self, other):
        return self.terms == other.terms if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(terms={self.terms!r})"

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

    def integer_terms(self) -> list[int]:
        """The terms as plain ints; raises if any term is a true fraction."""
        if not self.is_integer:
            raise InputError("sequence has non-integer terms")
        return list(self.terms)


class IntPolynomial(NamedTuple("IntPolynomial", [("coefficients", tuple)])):
    """Integer-coefficient polynomial, coefficients lowest degree first.

    The zero polynomial is the empty coefficient tuple; otherwise the
    trailing coefficient is nonzero.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, coefficients: Iterable[int]):
        coeffs = tuple(coefficients)
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise InputError("polynomial coefficients must be ints")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return super().__new__(cls, coeffs)

    @classmethod
    def of(cls, values: Iterable) -> "IntPolynomial":
        return cls(tuple(as_exact_int(v, "polynomial coefficient") for v in values))

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
