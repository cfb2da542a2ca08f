import math
import random
import re
from fractions import Fraction

import pytest

from pseudopoly import (
    ExactSequence,
    InputError,
    IntPolynomial,
    InternalInvariantError,
    check_congruences,
    eval_polynomial_sequence,
    generate_hall_like,
    generate_primary,
    growth_rate,
    polynomial_certificate,
)
from pseudopoly import binomial, sequences
from pseudopoly.core import root_abs_exact

CUBIC = IntPolynomial.of([2, -7, 0, 1])  # x^3 - 7x + 2


def direct_eval(coeffs, n):
    return sum(c * n**k for k, c in enumerate(coeffs))


def congruences_hold(terms, prime_only):
    """Independent brute-force congruence check used as the test oracle."""
    n_terms = len(terms)
    for n in range(n_terms):
        for m in range(1, n_terms - n):
            if prime_only and any(m % d == 0 for d in range(2, m)):
                continue
            if prime_only and m == 1:
                continue
            if (terms[n + m] - terms[n]) % m != 0:
                return False
    return True


class TestEvalPolynomialSequence:
    def test_square(self):
        assert list(eval_polynomial_sequence(IntPolynomial.of([0, 0, 1]), 4)) == [0, 1, 4, 9]

    def test_zero_polynomial(self):
        assert list(eval_polynomial_sequence(IntPolynomial(()), 3)) == [0, 0, 0]

    def test_cubic_against_direct_evaluation(self):
        got = list(eval_polynomial_sequence(CUBIC, 5))
        assert got == [direct_eval([2, -7, 0, 1], n) for n in range(5)]
        assert got == [2, -4, -4, 8, 38]

    def test_length_must_be_positive(self):
        with pytest.raises(InputError):
            eval_polynomial_sequence(CUBIC, 0)


class TestCheckCongruences:
    def test_squares_pass_primary(self):
        report = check_congruences(ExactSequence.of([0, 1, 4, 9, 16, 25]), "primary")
        assert report.ok
        assert report.checked_pairs > 0

    def test_powers_of_two_fail_primary(self):
        report = check_congruences(ExactSequence.of([1, 2, 4, 8, 16]), "primary")
        assert not report.ok
        first = report.violations[0]
        assert (first.n, first.modulus) == (0, 2)
        assert (first.lhs_residue, first.rhs_residue) == (0, 1)

    def test_constant_passes_full(self):
        assert check_congruences(ExactSequence.of([5, 5, 5, 5]), "full").ok

    def test_violations_in_lexicographic_order(self):
        report = check_congruences(ExactSequence.of([1, 2, 4, 8, 16, 32, 64]), "primary")
        keys = [(v.n, v.modulus) for v in report.violations]
        assert keys == sorted(keys)

    def test_checked_pair_count_full(self):
        terms = [3, 1, 4, 1, 5, 9]
        report = check_congruences(ExactSequence.of(terms), "full")
        expected = sum(
            1 for n in range(len(terms)) for k in range(1, len(terms) - n)
        )
        assert report.checked_pairs == expected

    def test_polynomial_sequences_always_pass_full(self):
        rng = random.Random(7)
        for _ in range(20):
            deg = rng.randint(0, 5)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-3, -1, 1, 4])]
            seq = eval_polynomial_sequence(IntPolynomial.of(coeffs), 18)
            assert check_congruences(seq, "full").ok

    def test_rejects_rational_sequences(self):
        with pytest.raises(InputError):
            check_congruences(ExactSequence.of(["1/2", "1/3", "1/4"]), "full")

    def test_rejects_unknown_mode(self):
        with pytest.raises(InputError):
            check_congruences(ExactSequence.of([1, 2, 3]), "both")


class TestGrowthRate:
    def test_powers_of_two(self):
        report = growth_rate(ExactSequence.of([2**n for n in range(40)]))
        assert report.tail_sup == pytest.approx(2.0, abs=1e-9)

    def test_cubes_match_direct_tail_maximum(self):
        report = growth_rate(ExactSequence.of([n**3 for n in range(60)]))
        oracle = max((n**3) ** (1.0 / n) for n in range(30, 60))
        assert report.tail_start == 30
        assert report.tail_sup == pytest.approx(oracle, rel=1e-12)

    def test_zero_sequence(self):
        assert growth_rate(ExactSequence.of([0, 0, 0, 0, 0])).tail_sup == 0.0

    def test_sign_flip_invariance(self):
        rng = random.Random(11)
        terms = [rng.randint(-50, 50) for _ in range(16)]
        plus = growth_rate(ExactSequence.of(terms))
        minus = growth_rate(ExactSequence.of([-t for t in terms]))
        assert plus == minus

    def test_huge_terms_do_not_overflow(self):
        report = growth_rate(ExactSequence.of([10 ** (20 * n) for n in range(12)]))
        assert report.tail_sup == pytest.approx(1e20, rel=1e-9)

    def test_too_short(self):
        with pytest.raises(InputError):
            growth_rate(ExactSequence.of([1, 2, 3]))

    @pytest.mark.parametrize("terms", [
        [5, -7, 0, 10**300, 3**80],
        [Fraction(1, 3), -7, 0, Fraction(10**300, 7), 3**80],
    ])
    def test_roots_are_root_abs_exact(self, terms):
        # int and Fraction terms alike take their roots from one
        # comprehension of root_abs_exact's expression: the same floats
        per_n = growth_rate(ExactSequence.of(terms)).per_n
        assert per_n == tuple(
            [0.0] + [root_abs_exact(t, n, "") if t else 0.0 for n, t in enumerate(terms[1:], 1)]
        )

    @pytest.mark.parametrize("first", [1, Fraction(1, 3)])
    def test_a_root_past_the_float_range_names_its_term(self, first):
        with pytest.raises(InputError, match=r"^\|a_1\|\^\(1/1\) is past the float range$"):
            growth_rate(ExactSequence.of([first, 10**400, 3, 4]))


class TestPolynomialCertificate:
    def test_constant(self):
        assert polynomial_certificate(ExactSequence.of([2, 2, 2, 2, 2])) == 0

    def test_cubic(self):
        assert polynomial_certificate(eval_polynomial_sequence(CUBIC, 12)) == 3

    def test_geometric_has_no_certificate(self):
        assert polynomial_certificate(ExactSequence.of([1, 2, 4, 8, 16, 32])) is None

    def test_matches_degree_when_prefix_is_long_enough(self):
        rng = random.Random(23)
        for _ in range(25):
            deg = rng.randint(0, 6)
            coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([-2, -1, 1, 3])]
            seq = eval_polynomial_sequence(IntPolynomial.of(coeffs), deg + 3 + rng.randint(0, 5))
            assert polynomial_certificate(seq) == deg

    def test_short_prefix_withholds_certificate(self):
        # degree 3 needs at least 6 terms for two vanishing witnesses
        seq = eval_polynomial_sequence(CUBIC, 5)
        assert polynomial_certificate(seq) is None

    def test_never_runs_the_full_transform(self, monkeypatch):
        # the certificate stops at the first all-zero difference row; the
        # transform's partial-sum table starts from the last term and cannot
        def forbidden(seq):
            raise AssertionError("polynomial_certificate ran binomial_transform")

        monkeypatch.setattr(sequences, "binomial_transform", forbidden)
        monkeypatch.setattr(binomial, "binomial_transform", forbidden)
        assert polynomial_certificate(eval_polynomial_sequence(CUBIC, 40)) == 3
        assert polynomial_certificate(ExactSequence.of([0] * 9)) == 0
        assert polynomial_certificate(ExactSequence.of([1, 2, 4, 8, 16, 32])) is None


class TestGeneratePrimary:
    def test_worked_example(self):
        assert list(generate_primary([1, 1, 1, 1], 4)) == [1, 2, 5, 16]

    def test_zero_coefficients(self):
        assert list(generate_primary([0] * 6, 6)) == [0] * 6

    def test_delta_coefficients_give_ones(self):
        assert list(generate_primary([1, 0, 0, 0, 0], 5)) == [1, 1, 1, 1, 1]

    def test_random_outputs_preserve_prime_congruences(self):
        rng = random.Random(31)
        for _ in range(20):
            c = [rng.randint(-5, 5) for _ in range(20)]
            seq = generate_primary(c, 20)
            assert congruences_hold(list(seq), prime_only=True)

    def test_requires_enough_coefficients(self):
        with pytest.raises(InputError):
            generate_primary([1, 2], 5)

    def test_output_that_breaks_the_congruences_raises(self, monkeypatch):
        # the output's primary congruences are verified, not assumed: a
        # transform whose last term is moved by 1 breaks a_9 = a_2 (mod 7),
        # the first violation in (n, modulus) order
        original = sequences.inverse_binomial_transform

        def last_term_moved(b):
            a = list(original(b))
            return ExactSequence(a[:-1] + [a[-1] + 1])

        monkeypatch.setattr(sequences, "inverse_binomial_transform", last_term_moved)
        with pytest.raises(InternalInvariantError, match=(
            r"failed the primary congruence check at "
            r"Violation\(n=2, modulus=7, lhs_residue=5, rhs_residue=4\)"
        )):
            generate_primary([1, -2, 0, 3, 1, 1, 0, 2, -1, 4], 10)


class TestGenerateHallLike:
    def test_single_term(self):
        assert list(generate_hall_like(1, [7])) == [7]

    def test_zero_perturbation_is_minimal(self):
        seq = generate_hall_like(4, [0, 0, 0, 0])
        assert list(seq) == [0, 0, 0, 0]
        assert check_congruences(seq, "full").ok

    def test_bumped_perturbation_passes_full_check(self):
        seq = generate_hall_like(6, [0, 0, 1, 0, 0, 0])
        assert check_congruences(seq, "full").ok
        assert congruences_hold(list(seq), prime_only=False)
        assert polynomial_certificate(seq) is None

    def test_random_perturbations_pass_full_check(self):
        rng = random.Random(41)
        for _ in range(15):
            pert = [rng.randint(-3, 3) for _ in range(18)]
            seq = generate_hall_like(18, pert)
            assert congruences_hold(list(seq), prime_only=False)

    def test_requires_enough_perturbation(self):
        with pytest.raises(InputError):
            generate_hall_like(3, [0])

    def test_missed_constraint_is_an_internal_error(self, monkeypatch):
        # an antidiagonal of copies of a_n hides every difference from the
        # next term, so a_0 = 1 is missed mod 2 at n = 2
        monkeypatch.setattr(
            sequences, "accumulate", lambda diag, func, initial: [initial] * (len(diag) + 1)
        )
        with pytest.raises(InternalInvariantError, match="constraint"):
            generate_hall_like(6, [1, 0, 0, 0, 0, 0])

    def test_wrong_modulus_is_an_internal_error(self, monkeypatch):
        # a running lcm stuck at 1 solves no constraint, so a_0 = 1 is
        # missed mod 2 at n = 2
        monkeypatch.setattr(sequences.math, "lcm", lambda *args: 1)
        with pytest.raises(InternalInvariantError, match="constraint"):
            generate_hall_like(6, [1, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("bad", [0.5, 2.0, True, Fraction(1, 2), "x"])
def test_generators_reject_entries_that_are_not_integers(bad):
    # none of these may be truncated to an integer
    entries = [1, 0, bad, 0]
    with pytest.raises(InputError, match=re.escape(f"coefficient {bad!r} is not an integer")):
        generate_primary(entries, 4)
    with pytest.raises(InputError, match=re.escape(f"perturbation entry {bad!r} is not")):
        generate_hall_like(4, entries)


def test_generators_accept_exact_integer_entries():
    entries = [1, "3", Fraction(4, 2), 0]
    assert generate_primary(entries, 4) == generate_primary([1, 3, 2, 0], 4)
    assert generate_primary(ExactSequence.of(entries), 4) == generate_primary(entries, 4)
    assert generate_hall_like(4, entries) == generate_hall_like(4, [1, 3, 2, 0])


def test_growth_of_hall_sequences_is_finite():
    # sanity on the scale of the construction, not a growth claim
    seq = generate_hall_like(25, [1] * 25)
    report = growth_rate(seq)
    assert math.isfinite(report.tail_sup)
