#!/usr/bin/env python3
"""Hankel determinants: invariance, divisibility and Kronecker detection.

Three exact facts drive everything here:
  * conjugating a Hankel matrix by the signed-binomial triangular matrix
    gives the Hankel matrix of the binomial transform (equal determinants),
  * for congruence-preserving sequences, det H_n is divisible by the
    product over primes p <= n-1 of p^(n-p),
  * a power series is rational iff almost all Hankel determinants vanish.
"""
import math
import random

from pseudopoly import (
    ExactSequence,
    detect_rationality,
    generate_primary,
    hankel_table,
    singular_directions,
    verify_transform_invariance,
)

rng = random.Random(99)

print("=" * 70)
print("1. Determinant invariance under the binomial transform")
print("=" * 70)
terms = [rng.randint(-9, 9) for _ in range(25)]
seq = ExactSequence.of(terms)
result = verify_transform_invariance(seq, 13)
print(f"random sequence, orders 1..13: passed = {result.passed}")

print()
print("=" * 70)
print("2. Divisibility audit on a generated sequence")
print("=" * 70)
gen = generate_primary([rng.randint(-5, 5) for _ in range(23)], 23)
print("n : det H_n (divisible by prod p^(n-p)?)")
for rec in hankel_table(gen, 9):
    print(f"  {rec.n}: det = {rec.det}")
    print(f"     required divisor {rec.required_divisor}, divisible = {rec.divisible}")

print()
print("=" * 70)
print("3. Kronecker detection: Fibonacci")
print("=" * 70)
fib = [0, 1]
while len(fib) < 40:
    fib.append(fib[-1] + fib[-2])
detection = detect_rationality(ExactSequence.of(fib))
func = detection.function
print(f"det table (orders 1..{len(detection.det_table)}): {[str(d) for d in detection.det_table[:6]]} ...")
print(f"trailing zero run: {detection.zero_run}")
print(f"reconstructed: {func}")
print(f"re-expansion matches all 40 terms: {func.taylor(40) == fib}")
sing = singular_directions(func)
print(f"poles: {[(complex(round(z.real, 6)), m) for z, m in sing.poles]}")
print(f"singular directions: {sing.directions}  radius: {sing.radius:.6f}")

print()
print("=" * 70)
print("4. Detection declines non-rational input")
print("=" * 70)
fact = detect_rationality(ExactSequence.of([math.factorial(n) for n in range(15)]))
print(f"factorials: function = {fact.function}, zero run = {fact.zero_run}")
print("Hankel matrix of factorials, order 3:")
for i in range(3):
    print("  ", [math.factorial(i + j) for j in range(3)])
