#!/usr/bin/env python3
"""The binomial transform pair and the primorial divisibility it exposes.

For a congruence-preserving sequence the transform coefficients b_n are
divisible by the primorial P_n (product of primes <= n).  That is the
engine behind the Hankel determinant lower bounds in demo 03.
"""
import random

from pseudopoly import (
    ExactSequence,
    binomial_transform,
    check_primorial_divisibility,
    generate_hall_like,
    inverse_binomial_transform,
    primorials,
)
from pseudopoly.binomial import lower_triangular_rows

rng = random.Random(7)

print("=" * 70)
print("1. The transform pair is an exact bijection")
print("=" * 70)
terms = [rng.randint(-20, 20) for _ in range(10)]
seq = ExactSequence.of(terms)
b = binomial_transform(seq)
back = inverse_binomial_transform(b)
print(f"a          = {terms}")
print(f"b          = {list(b)}")
print(f"inverse(b) = {list(back)}  (round trip exact: {list(back) == terms})")

print()
print("=" * 70)
print("2. Matrix view: the signed-binomial triangular matrix")
print("=" * 70)
for row in lower_triangular_rows(5):
    print("  ", row)
print("unit lower triangular, so conjugating by it preserves determinants")

print()
print("=" * 70)
print("3. Primorials and the divisibility of transforms")
print("=" * 70)
table = primorials(12)
print(f"P_0..P_12  = {table}")
hall = generate_hall_like(13, [rng.randint(-2, 2) for _ in range(13)])
print(f"sequence   = {list(hall)}")
b = binomial_transform(hall)
print(f"transform  = {list(b)}")
print("n : b_n / P_n")
for n, bn in enumerate(b):
    print(f"  {n:2d}: {bn} / {table[n]} = {bn // table[n] if bn % table[n] == 0 else '?'}")
result = check_primorial_divisibility(hall)
print(f"divisibility check: passed = {result.passed}")

print()
print("=" * 70)
print("4. A sequence that fails (and where)")
print("=" * 70)
result = check_primorial_divisibility(ExactSequence.of([1, 2, 4, 8, 16]))
print("2^n has transform (1, 1, 1, 1, 1); failures (n, P_n, residue):")
for failure in result.failures:
    print(f"  {failure}")
