import math
import random
from fractions import Fraction

import pytest

from oracles import matmul, signed_binomial_sums
from pseudopoly import (
    ExactSequence,
    InputError,
    IntPolynomial,
    binomial_transform,
    check_primorial_divisibility,
    eval_polynomial_sequence,
    generate_hall_like,
    inverse_binomial_transform,
    primorials,
)
from pseudopoly.binomial import lower_triangular_rows


def permutation_det(rows):
    import itertools

    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


class TestTransformPair:
    def test_constant_sequence(self):
        assert list(binomial_transform(ExactSequence.of([1, 1, 1, 1]))) == [1, 0, 0, 0]

    def test_squares(self):
        assert list(binomial_transform(ExactSequence.of([0, 1, 4, 9]))) == [0, 1, 2, 0]

    def test_primary_generator_example_inverts(self):
        assert list(binomial_transform(ExactSequence.of([1, 2, 5, 16]))) == [1, 1, 2, 6]

    def test_inverse_examples(self):
        assert list(inverse_binomial_transform(ExactSequence.of([1, 0, 0, 0]))) == [1, 1, 1, 1]
        assert list(inverse_binomial_transform(ExactSequence.of([0, 1, 2, 0]))) == [0, 1, 4, 9]
        assert list(inverse_binomial_transform(ExactSequence.of([0, 0, 0]))) == [0, 0, 0]

    def test_matches_comb_oracle(self):
        rng = random.Random(5)
        for _ in range(10):
            terms = [rng.randint(-99, 99) for _ in range(rng.randint(1, 30))]
            assert list(binomial_transform(ExactSequence.of(terms))) == signed_binomial_sums(terms)

    def test_round_trip_on_random_sequences(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(1, 64)
            terms = [rng.randint(-10**6, 10**6) for _ in range(n)]
            seq = ExactSequence.of(terms)
            assert list(inverse_binomial_transform(binomial_transform(seq))) == terms
            assert list(binomial_transform(inverse_binomial_transform(seq))) == terms

    def test_round_trip_on_rational_sequences(self):
        rng = random.Random(61)
        terms = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(24)]
        seq = ExactSequence.of(terms)
        back = inverse_binomial_transform(binomial_transform(seq))
        assert [Fraction(t) for t in back] == terms

    def test_linearity(self):
        rng = random.Random(62)
        n = 20
        a = [rng.randint(-30, 30) for _ in range(n)]
        b = [rng.randint(-30, 30) for _ in range(n)]
        alpha, beta = Fraction(3, 7), Fraction(-5, 2)
        mixed = ExactSequence.of([alpha * x + beta * y for x, y in zip(a, b)])
        ta = binomial_transform(ExactSequence.of(a))
        tb = binomial_transform(ExactSequence.of(b))
        expected = [alpha * x + beta * y for x, y in zip(ta, tb)]
        assert [Fraction(t) for t in binomial_transform(mixed)] == expected


class TestLowerTriangular:
    def test_order_one(self):
        assert lower_triangular_rows(1) == [[1]]

    def test_order_three_matches_signed_binomials(self):
        assert lower_triangular_rows(3) == [[1, 0, 0], [-1, 1, 0], [1, -2, 1]]

    def test_entries_match_comb_formula(self):
        # 1-based entry (i, j) is (-1)^(i-j) C(i-1, j-1) for j <= i, else 0;
        # storage is 0-based, shifted by one in both indices
        for n in (2, 5, 9):
            m = lower_triangular_rows(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expected = (
                        (-1) ** (i - j) * math.comb(i - 1, j - 1) if j <= i else 0
                    )
                    assert m[i - 1][j - 1] == expected

    def test_determinant_is_one(self):
        for n in range(1, 7):
            assert permutation_det(lower_triangular_rows(n)) == 1

    def test_inverse_is_unsigned_binomial_matrix(self):
        for n in range(1, 17):
            u_rows = [
                [math.comb(i, j) if j <= i else 0 for j in range(n)] for i in range(n)
            ]
            identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            assert matmul(lower_triangular_rows(n), u_rows) == identity


def test_vandermonde_convolution_identity():
    for i in range(1, 13):
        for j in range(1, 13):
            for m in range(i + j - 1):
                lhs = sum(
                    math.comb(i - 1, r) * math.comb(j - 1, m - r)
                    for r in range(max(0, m - j + 1), min(i - 1, m) + 1)
                )
                assert lhs == math.comb(i + j - 2, m)


class TestPrimorials:
    def test_small_table(self):
        assert primorials(5) == (1, 1, 2, 6, 6, 30)

    def test_empty_product(self):
        assert primorials(0)[0] == 1

    def test_value_at_ten(self):
        assert primorials(10)[10] == 210

    def test_successive_ratios_are_one_or_the_new_prime(self):
        table = primorials(60)
        for n in range(60):
            assert table[n + 1] % table[n] == 0
            ratio = table[n + 1] // table[n]
            if ratio != 1:
                assert ratio == n + 1
                assert all(ratio % d != 0 for d in range(2, ratio))

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            primorials(-1)


class TestPrimorialDivisibility:
    def test_congruence_preserving_sequence_passes(self):
        seq = generate_hall_like(20, [0, 1, -1, 2, 0, 1, 0, 0, 1, -2] * 2)
        assert check_primorial_divisibility(seq).passed

    def test_powers_of_two_fail_at_two(self):
        report = check_primorial_divisibility(ExactSequence.of([1, 2, 4, 8]))
        assert not report.passed
        assert report.failures == ((2, 2, 1), (3, 6, 1))

    def test_quadratic_passes_vacuously_beyond_degree(self):
        seq = eval_polynomial_sequence(IntPolynomial.of([1, -3, 2]), 10)
        report = check_primorial_divisibility(seq)
        assert report.passed
        assert report.checked == 10

    def test_rejects_rational_input(self):
        with pytest.raises(InputError):
            check_primorial_divisibility(ExactSequence.of(["1/2", "3", "4"]))
