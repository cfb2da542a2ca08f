"""Deterministic prime sieving; no probabilistic tests anywhere."""
from __future__ import annotations

from .core import InputError


def sieve_flags(limit: int) -> bytearray:
    """Byte flags of length ``limit + 1`` with ``flags[n] == 1`` iff n is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = b"\x00" * min(2, limit + 1)
    p = 2
    while p * p <= limit:
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * len(range(start, limit + 1, p))
        p += 1
    return flags


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    flags = sieve_flags(limit)
    return [n for n, f in enumerate(flags) if f]


def is_prime(n: int) -> bool:
    """Exact primality by trial division (intended for small moduli)."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError("primality is defined for ints")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
