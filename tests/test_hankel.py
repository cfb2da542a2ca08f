import copy
import itertools
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from oracles import hankel_rows, invariance_by_order, matmul, transpose, valuation_map
from pseudopoly import (
    AuditConfig,
    ExactSequence,
    InputError,
    IntPolynomial,
    InternalInvariantError,
    RationalFunction,
    binomial_transform,
    detect_rationality,
    generate_primary,
    hankel_determinant,
    hankel_table,
    max_order,
    normalized_det_growth,
    padic_valuation,
    ruzsa_audit,
    verify_transform_invariance,
)
from pseudopoly import hankel
from pseudopoly.binomial import lower_triangular_rows
from pseudopoly.formats import audit_json_obj, dumps
from pseudopoly.primes import is_prime

FIB_5 = ExactSequence.of([0, 1, 1, 2, 3])


def fibonacci(count):
    terms = [0, 1]
    while len(terms) < count:
        terms.append(terms[-1] + terms[-2])
    return terms[:count]


CUBIC_40 = [n**3 - 7 * n + 2 for n in range(40)]
PRIMARY_40 = list(generate_primary([k % 7 - 3 for k in range(40)], 40))


def times_one_minus_x(leading_minors):
    """``leading_minors`` with its recurrence denominator multiplied by
    (1 - x): still a recurrence of the prefix, one order too long."""

    def patched(values, n):
        minors, den = leading_minors(values, n)
        if den is not None:
            den = [a - b for a, b in zip(den + [0], [0] + den)]
        return minors, den

    return patched


def permutation_det(rows):
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


def series_division_oracle(num, den, count):
    """Long division of power series with Fractions; independent of taylor()."""
    coeffs = []
    rem = [Fraction(c) for c in num] + [Fraction(0)] * (count + len(den))
    d = [Fraction(c) for c in den]
    for k in range(count):
        c = rem[k] / d[0]
        coeffs.append(c)
        for j, dj in enumerate(d):
            rem[k + j] -= c * dj
    return coeffs


class TestHankelMatrix:
    # the layout of the rows that the oracles conjugate and eliminate
    def test_fibonacci_order_two(self):
        assert hankel_rows(list(FIB_5), 2) == [[0, 1], [1, 1]]

    def test_order_three_layout(self):
        assert hankel_rows([10, 11, 12, 13, 14], 3) == [
            [10, 11, 12],
            [11, 12, 13],
            [12, 13, 14],
        ]

    def test_order_one(self):
        assert hankel_rows([7], 1) == [[7]]

    def test_error_names_needed_length(self):
        with pytest.raises(InputError, match="9"):
            hankel_determinant(FIB_5, 5)

    def test_symmetric_and_constant_on_antidiagonals(self):
        rng = random.Random(3)
        terms = [rng.randint(-9, 9) for _ in range(15)]
        m = hankel_rows(terms, 8)
        for i in range(8):
            for j in range(8):
                assert m[i][j] == m[j][i] == terms[i + j]


class TestHankelDeterminant:
    def test_rank_one(self):
        assert hankel_determinant(ExactSequence.of([1, 1, 1, 1, 1]), 2) == 0

    def test_fibonacci(self):
        assert hankel_determinant(FIB_5, 2) == -1
        assert hankel_determinant(FIB_5, 3) == 0

    def test_order_zero_convention(self):
        assert hankel_determinant(FIB_5, 0) == 1

    def test_integer_input_gives_integer_result(self):
        det = hankel_determinant(ExactSequence.of([3, 1, 4, 1, 5, 9, 2]), 3)
        assert isinstance(det, int)

    def test_matches_permutation_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 6)
            terms = [rng.randint(-9, 9) for _ in range(2 * n - 1)]
            expected = permutation_det(
                [[terms[i + j] for j in range(n)] for i in range(n)]
            )
            assert hankel_determinant(ExactSequence.of(terms), n) == expected

    def test_rational_input_matches_oracle(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randint(1, 4)
            terms = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(2 * n - 1)
            ]
            expected = permutation_det(
                [[terms[i + j] for j in range(n)] for i in range(n)]
            )
            assert hankel_determinant(ExactSequence.of(terms), n) == expected

    def test_negative_order_rejected(self):
        with pytest.raises(InputError, match="^order must be >= 0$"):
            hankel_determinant(FIB_5, -1)

    def test_large_entries_stay_exact(self):
        terms = [10**40 + k for k in range(9)]
        det = hankel_determinant(ExactSequence.of(terms), 5)
        rows = [[terms[i + j] for j in range(5)] for i in range(5)]
        assert det == permutation_det(rows)


class TestPadicValuation:
    def test_examples(self):
        assert padic_valuation(72, 2) == 3
        assert padic_valuation(72, 5) == 0
        assert padic_valuation(0, 7) == math.inf

    def test_negative_argument(self):
        assert padic_valuation(-72, 3) == 2

    def test_rejects_composite_modulus(self):
        with pytest.raises(InputError):
            padic_valuation(10, 6)

    def test_rejects_non_integer(self):
        with pytest.raises(InputError):
            padic_valuation(1.5, 3)

    def test_definition(self):
        rng = random.Random(29)
        for _ in range(50):
            x = rng.randint(1, 10**6)
            p = rng.choice([2, 3, 5, 7, 11])
            v = padic_valuation(x, p)
            assert x % p**v == 0 and x % p ** (v + 1) != 0


@pytest.mark.parametrize("n, expected", [(1, False), (2, True), (9, False), (97, True)])
def test_is_prime_small_cases(n, expected):
    assert is_prime(n) is expected


def test_is_prime_rejects_a_string():
    with pytest.raises(InputError, match="^primality is defined for ints$"):
        is_prime("3")


class TestHankelTable:
    def test_order_one_has_empty_divisor(self):
        rec = hankel_table(ExactSequence.of([4, 5, 6]), 1)[0]
        assert rec.required_divisor == 1
        assert rec.valuations == ()

    def test_order_five_divisor(self):
        seq = ExactSequence.of(list(range(1, 10)))
        rec = hankel_table(seq, 5)[4]
        assert rec.required_divisor == 72  # 2^3 * 3^2
        assert valuation_map(rec)[2][0] == 3
        assert valuation_map(rec)[3][0] == 2

    def test_generated_sequences_are_divisible(self):
        rng = random.Random(37)
        seq = generate_primary([rng.randint(-4, 4) for _ in range(19)], 19)
        records = hankel_table(seq, 10)
        assert all(rec.divisible for rec in records)
        for rec in records:
            for p, required, actual in rec.valuations:
                assert actual >= required

    def test_zero_determinant_rows_pass_vacuously(self):
        seq = ExactSequence.of(fibonacci(19))
        for rec in hankel_table(seq, 10):
            if rec.det == 0:
                assert rec.divisible
                assert rec.normalized_growth is None
                assert all(actual == math.inf for _, _, actual in rec.valuations)

    def test_too_large_order_rejected(self):
        with pytest.raises(InputError):
            hankel_table(FIB_5, 4)

    @pytest.mark.parametrize("first", [10**400, -(10**4299), Fraction(10**400, 3)])
    def test_first_row_growth_past_the_float_range_needs_no_minor(self, first, monkeypatch):
        # row 1's growth is |a_0|, so the error comes before the remainder
        # sequence, however large the later terms make it
        def unreachable(values, n):
            raise AssertionError("the remainder sequence ran")

        monkeypatch.setattr(hankel, "_leading_minors", unreachable)
        seq = ExactSequence.of([first] + [10**4299 + k for k in range(59)])
        with pytest.raises(InputError, match=r"^\|det H_1\|\^\(1/1\) is past the float range$"):
            hankel_table(seq, 30)

    @pytest.mark.parametrize("terms, n", [
        pytest.param([1, 10**700, 1], 2, id=str(10**700)),
        pytest.param([1, Fraction(10**700, 3), 1], 2, id="second1"),
        pytest.param([1, 0, 1, 0, 10**3000], 3, id="order3"),
    ])
    def test_later_row_growth_past_the_float_range_names_its_order(self, terms, n):
        # det H_2 = a_0 a_2 - a_1^2 is about 10^1400 for the first two, and
        # its fourth root about 10^350; the third has det H_2 = 1 and
        # det H_3 = 10^3000 - 1, whose ninth root is about 10^333.  Every
        # row, int or Fraction, takes its root from root_abs_exact, whose
        # error names the order
        with pytest.raises(
            InputError, match=rf"^\|det H_{n}\|\^\(1/{n * n}\) is past the float range$"
        ):
            hankel_table(ExactSequence.of(terms), n)


class TestTransformInvariance:
    def test_fibonacci(self):
        seq = ExactSequence.of(fibonacci(9))
        assert verify_transform_invariance(seq, 4).passed

    def test_constant_sequence(self):
        seq = ExactSequence.of([9] * 11)
        assert verify_transform_invariance(seq, 6).passed
        # the transform of a constant has a single nonzero entry
        assert list(binomial_transform(seq))[1:] == [0] * 10

    def test_random_integer_sequences(self):
        rng = random.Random(43)
        for _ in range(25):
            terms = [rng.randint(-9, 9) for _ in range(25)]
            assert verify_transform_invariance(ExactSequence.of(terms), 13).passed

    def test_rational_sequences(self):
        rng = random.Random(47)
        terms = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(13)]
        assert verify_transform_invariance(ExactSequence.of(terms), 7).passed

    def test_direct_conjugation_agrees(self):
        # independent matrix-level statement of the same identity
        rng = random.Random(53)
        terms = [rng.randint(-9, 9) for _ in range(11)]
        seq = ExactSequence.of(terms)
        n = 6
        l_rows = lower_triangular_rows(n)
        h_a = hankel_rows(terms, n)
        conjugated = matmul(matmul(l_rows, h_a), transpose(l_rows))
        assert conjugated == hankel_rows(list(binomial_transform(seq)), n)

    def test_out_of_range_order(self):
        with pytest.raises(InputError):
            verify_transform_invariance(FIB_5, 4)

    def test_transform_and_l_are_looked_up_once_on_the_module(self, monkeypatch):
        # a stage trace wraps the two names on this module, and reports a
        # span for each call
        calls = []
        for name in ("binomial_transform", "lower_triangular_rows"):
            original = getattr(hankel, name)
            monkeypatch.setattr(hankel, name, lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        assert verify_transform_invariance(ExactSequence.of(CUBIC_40), 20).passed
        assert sorted(calls) == ["binomial_transform", "lower_triangular_rows"]

    def test_long_prefix_transforms_only_the_terms_the_check_reads(self, monkeypatch):
        rng = random.Random(59)
        seq = ExactSequence.of([rng.randint(-10**6, 10**6) for _ in range(1000)])
        expected = invariance_by_order(seq, 5)
        lengths = []
        original = hankel.binomial_transform
        monkeypatch.setattr(hankel, "binomial_transform",
                            lambda s: lengths.append(len(s)) or original(s))
        assert verify_transform_invariance(seq, 5) == expected
        assert lengths == [9]

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    @pytest.mark.parametrize("length", [5, 6, 7, 8])
    @pytest.mark.parametrize("kind", ["integer", "zero_led", "fraction"])
    def test_small_orders_match_the_oracle(self, n_max, length, kind, monkeypatch):
        # n = 1 takes no difference through row n of L, and from n = 2 the
        # last one, D^n a_(n-2), reads a_(2n-2) there; odd and even N
        rng = random.Random(n_max * 100 + length)
        terms = [rng.randint(-99, 99) for _ in range(length)]
        if kind == "zero_led":
            terms[0] = 0
        elif kind == "fraction":
            terms = [Fraction(t, rng.randint(1, 7)) for t in terms]
        seq = ExactSequence.of(terms)
        report = verify_transform_invariance(seq, n_max)
        assert report.passed
        assert report == invariance_by_order(seq, n_max)
        # and a perturbed last term the check reads fails at the same order
        original = hankel.binomial_transform

        def perturbed(s):
            b = list(original(s))
            b[2 * n_max - 2] += 1
            return ExactSequence.of(b)

        monkeypatch.setattr(hankel, "binomial_transform", perturbed)
        report = verify_transform_invariance(seq, n_max)
        assert report == invariance_by_order(seq, n_max)
        assert report.first_failure == (n_max, "entrywise")

    @pytest.mark.parametrize("index", [None, 120, 59, 60])
    def test_top_order_of_a_long_prefix_matches_the_schoolbook_conjugation(
        self, index, monkeypatch
    ):
        # 64-bit terms at N = 121, past the orders the properties draw; a
        # perturbed b_index first enters H(b) at order (index + 1) // 2 + 1
        rng = random.Random(61)
        terms = [rng.randint(-2**63, 2**63) for _ in range(121)]
        seq = ExactSequence.of(terms)
        n = 61
        l_rows = lower_triangular_rows(n)
        conjugated = matmul(matmul(l_rows, hankel_rows(terms, n)), transpose(l_rows))
        b = list(binomial_transform(seq))
        if index is not None:
            b[index] += 1
            monkeypatch.setattr(hankel, "binomial_transform", lambda s: ExactSequence.of(b))
        h_b = hankel_rows(b, n)
        first = next((m for m in range(1, n + 1)
                      if any(conjugated[i][:m] != h_b[i][:m] for i in range(m))), None)
        report = verify_transform_invariance(seq, n)
        if index is None:
            assert first is None
            assert report == (True, n, None)
        else:
            assert first == (index + 1) // 2 + 1
            assert report == (False, n, (first, "entrywise"))


class TestDetectRationality:
    def test_geometric(self):
        detection = detect_rationality(ExactSequence.of([3**n for n in range(20)]))
        func = detection.function
        assert func is not None
        assert func.order == 1
        assert func.numerator.coefficients == (1,)
        assert func.denominator.coefficients == (1, -3)
        # determinants vanish from order 2 on
        assert detection.det_table[0] == 1
        assert all(d == 0 for d in detection.det_table[1:])

    def test_fibonacci(self):
        detection = detect_rationality(ExactSequence.of(fibonacci(40)))
        func = detection.function
        assert func is not None
        assert func.order == 2
        assert func.numerator.coefficients == (0, 1)
        assert func.denominator.coefficients == (1, -1, -1)
        assert all(d == 0 for d in detection.det_table[2:])

    def test_factorials_are_not_detected(self):
        detection = detect_rationality(
            ExactSequence.of([math.factorial(n) for n in range(15)])
        )
        assert detection.function is None
        assert detection.zero_run == 0
        assert len(detection.det_table) == 8

    def test_zero_sequence(self):
        detection = detect_rationality(ExactSequence.of([0] * 10))
        func = detection.function
        assert func is not None
        assert func.order == 0
        assert func.numerator.is_zero
        assert func.denominator.coefficients == (1,)

    def test_eventually_constant_sequence(self):
        detection = detect_rationality(ExactSequence.of([5] + [1] * 11))
        func = detection.function
        assert func is not None
        assert func.numerator.coefficients == (5, -4)
        assert func.denominator.coefficients == (1, -1)

    def test_reconstruction_reexpands_to_prefix(self):
        rng = random.Random(59)
        for _ in range(15):
            order = rng.randint(1, 4)
            coeffs = [rng.randint(-2, 2) for _ in range(order)]
            terms = [rng.randint(-3, 3) for _ in range(order)]
            while len(terms) < 30:
                terms.append(
                    sum(coeffs[i] * terms[-1 - i] for i in range(order))
                )
            detection = detect_rationality(ExactSequence.of(terms))
            func = detection.function
            assert func is not None
            assert func.taylor(30) == terms
            oracle = series_division_oracle(
                func.numerator.coefficients, func.denominator.coefficients, 30
            )
            assert oracle == terms

    def test_reconstruction_that_misses_the_prefix_is_an_internal_error(self):
        # 1/(1 - 2x) gives 16, not 17, at the last term
        terms = (1, 2, 4, 8, 17)
        with pytest.raises(InternalInvariantError):
            hankel._reconstruct(terms, list(terms), 1, [1, -2])

    def test_reconstruction_that_misses_only_the_unread_term_is_no_function(self):
        # the minors of six terms read five: 1/(1 - 2x) misses only the sixth
        terms = (1, 2, 4, 8, 16, 33)
        assert hankel._reconstruct(terms, list(terms), 1, [1, -2]) is None
        with pytest.raises(InternalInvariantError):
            hankel._reconstruct((1, 2, 4, 8, 17, 32), [1, 2, 4, 8, 17, 32], 1, [1, -2])

    @pytest.mark.parametrize("terms", [CUBIC_40, fibonacci(40)], ids=["cubic", "fibonacci"])
    def test_rational_audit_runs_one_remainder_sequence(self, terms, monkeypatch):
        # the table, the detection and the recurrence all read one run, and
        # the function is checked for coprimality once, not also reduced
        runs, gcds = [], []
        leading_minors, gcd_poly = hankel._leading_minors, hankel.gcd_poly

        def forbidden(*args):
            raise AssertionError("divmod_poly called")

        monkeypatch.setattr(hankel, "_leading_minors",
                            lambda values, n: runs.append(n) or leading_minors(values, n))
        monkeypatch.setattr(hankel, "gcd_poly", lambda p, q: gcds.append(1) or gcd_poly(p, q))
        monkeypatch.setattr(hankel, "divmod_poly", forbidden)
        report = ruzsa_audit(ExactSequence.of(terms))
        assert report.rationality.function is not None
        assert runs == [20]
        assert len(gcds) == 1

    @pytest.mark.parametrize("n_max", [5, 19], ids=["5", "below-top"])
    @pytest.mark.parametrize(
        "terms", [CUBIC_40, fibonacci(40), PRIMARY_40], ids=["cubic", "fibonacci", "primary"]
    )
    def test_audit_runs_one_remainder_sequence_at_any_n_max(self, terms, n_max, monkeypatch):
        # the detection runs it at the largest order first, and the table
        # reads that run however far n_max trims it
        runs = []
        leading_minors = hankel._leading_minors
        monkeypatch.setattr(hankel, "_leading_minors",
                            lambda values, n: runs.append(n) or leading_minors(values, n))
        seq = ExactSequence.of(terms)
        report = ruzsa_audit(seq, AuditConfig(n_max=n_max))
        assert runs == [max_order(seq)] == [20]
        assert len(report.hankel) == n_max
        assert len(report.rationality.det_table) == 20

    @pytest.mark.parametrize("terms", [CUBIC_40, fibonacci(40)], ids=["cubic", "fibonacci"])
    def test_recurrence_with_a_common_factor_is_an_internal_error(self, terms, monkeypatch):
        # a shortest recurrence gives a coprime pair; (1 - x) too many in
        # the denominator is a bug to report, not a factor to divide out
        monkeypatch.setattr(hankel, "_leading_minors", times_one_minus_x(hankel._leading_minors))
        with pytest.raises(InternalInvariantError, match="reduced rational function"):
            detect_rationality(ExactSequence.of(terms))

    def test_short_window_of_nonzero_determinants_blocks_detection(self):
        # order-2 recurrence holds but the trailing window still sees a
        # nonzero determinant, so the rule declines to call it rational
        detection = detect_rationality(ExactSequence.of(fibonacci(8)))
        assert detection.function is None
        assert detection.det_table[1] == -1

    def test_finitely_supported_sequence_needs_a_clear_window(self):
        # the lone nonzero determinant of (0,0,0,1,0,...) sits at order 4;
        # detection waits until the trailing window moves past it
        for length, expected_rational in ((10, False), (12, False), (14, True)):
            seq = ExactSequence.of([0, 0, 0, 1] + [0] * (length - 4))
            detection = detect_rationality(seq)
            assert (detection.function is not None) == expected_rational
        func = detect_rationality(ExactSequence.of([0, 0, 0, 1] + [0] * 10)).function
        assert func.numerator.coefficients == (0, 0, 0, 1)  # x^3
        assert func.denominator.coefficients == (1,)

    def test_insufficient_prefix_rejected(self):
        with pytest.raises(InputError):
            detect_rationality(ExactSequence.of([1, 2, 3, 4]), window=3)

    def test_window_must_be_positive(self):
        with pytest.raises(InputError, match="^window must be >= 1$"):
            detect_rationality(FIB_5, 0)


class TestRemainderSequenceFacts:
    """Each sequence keeps what its own remainder sequence gave."""

    @staticmethod
    def counted_runs(monkeypatch):
        runs = []
        leading_minors = hankel._leading_minors
        monkeypatch.setattr(hankel, "_leading_minors",
                            lambda values, n: runs.append(n) or leading_minors(values, n))
        return runs

    def test_interleaved_sequences_run_once_each(self, monkeypatch):
        fractions = [Fraction(t, 3) for t in fibonacci(39)]
        expected = [[hankel_determinant(ExactSequence(terms), n) for n in range(1, 21)]
                    for terms in (CUBIC_40, PRIMARY_40, fractions)]
        runs = self.counted_runs(monkeypatch)
        seqs = [ExactSequence(terms) for terms in (CUBIC_40, PRIMARY_40, fractions)]
        dets = [[None] * 20 for _ in seqs]
        for n in range(20, 0, -1):
            for seq, row in zip(seqs, dets):
                row[n - 1] = hankel_determinant(seq, n)
        assert dets == expected
        assert runs == [20, 20, 20]

    def test_facts_survive_another_sequences_audit(self, monkeypatch):
        seq = ExactSequence.of(PRIMARY_40)
        report = ruzsa_audit(seq)
        held = seq._hankel
        ruzsa_audit(ExactSequence.of(CUBIC_40))
        runs = self.counted_runs(monkeypatch)
        assert ruzsa_audit(seq) == report
        assert runs == []
        assert seq._hankel is held
        # equal sequences, copies and pickles hold facts of their own
        for twin in (ExactSequence.of(PRIMARY_40), copy.copy(seq),
                     pickle.loads(pickle.dumps(seq))):
            assert twin == seq and twin._hankel is None

    def test_facts_at_a_smaller_order_are_extended_once(self, monkeypatch):
        seq = ExactSequence.of(PRIMARY_40)
        expected = ruzsa_audit(ExactSequence.of(PRIMARY_40))
        runs = self.counted_runs(monkeypatch)
        assert hankel_table(seq, 19) == list(expected.hankel[:19])
        assert detect_rationality(seq) == expected.rationality
        assert hankel_table(seq, 20) == list(expected.hankel)
        assert ruzsa_audit(seq, AuditConfig(n_max=7)).hankel == expected.hankel[:7]
        assert runs == [19, 20]

    def test_threads_sharing_sequences_get_the_serial_results(self):
        # four threads on two cores, switching every microsecond: each
        # audits prefixes of its own, and in every round all of them start
        # together on one fresh shared sequence, at orders that make its
        # facts grow while the others read them
        rng = random.Random(33)
        shared = [CUBIC_40[:30], PRIMARY_40, fibonacci(31), [rng.randint(-99, 99)
                                                          for _ in range(36)]]
        own = [[[rng.randint(-9, 9) for _ in range(24)], PRIMARY_40[: 20 + i]]
               for i in range(4)]

        def results(seq):
            return (hankel_table(seq, 4), hankel_table(seq, max_order(seq) - 1),
                    detect_rationality(seq),
                    dumps(audit_json_obj(ruzsa_audit(seq, AuditConfig(n_max=6)))))

        expected = {tuple(t): results(ExactSequence.of(t))
                    for t in shared + [t for ts in own for t in ts]}
        shared_seqs = [ExactSequence.of(t) for t in shared]
        barrier = threading.Barrier(4, timeout=10)
        out = {}

        def work(i):
            try:
                got = []
                for terms, seq in zip(shared, shared_seqs):
                    barrier.wait()
                    got.append((terms, results(seq)))
                    got += [(t, results(ExactSequence.of(t))) for t in own[i]]
                out[i] = got
            except Exception as exc:  # reported by the assertion below
                out[i] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i in range(4):
            assert not isinstance(out[i], Exception), out[i]
            assert len(out[i]) == 3 * len(shared)
            for terms, got in out[i]:
                assert got == expected[tuple(terms)]


class TestRationalFunction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError, match="^denominator must be nonzero$"):
            RationalFunction(IntPolynomial.of([1]), IntPolynomial(()), 0)

    def test_canonical_form_enforced(self):
        with pytest.raises(InputError):
            RationalFunction(IntPolynomial.of([2]), IntPolynomial.of([2, -2]), 1)
        with pytest.raises(InputError):
            RationalFunction(IntPolynomial.of([1]), IntPolynomial.of([-1, 1]), 1)
        with pytest.raises(InputError):  # common factor (1 - x)
            RationalFunction(IntPolynomial.of([1, -1]), IntPolynomial.of([1, -2, 1]), 2)
        with pytest.raises(InputError):  # gcd(0, 1 - x) is 1 - x
            RationalFunction(IntPolynomial.of([0]), IntPolynomial.of([1, -1]), 1)
        zero = RationalFunction(IntPolynomial.of([0]), IntPolynomial.of([1]), 0)
        assert zero.taylor(3) == [0, 0, 0]

    def test_taylor_matches_long_division(self):
        func = RationalFunction(IntPolynomial.of([0, 1]), IntPolynomial.of([1, -1, -1]), 2)
        assert func.taylor(10) == fibonacci(10)

    def test_str_rendering(self):
        func = RationalFunction(IntPolynomial.of([0, 1]), IntPolynomial.of([1, -1, -1]), 2)
        assert str(func.numerator) == "x"
        assert str(func.denominator) == "1 - x - x^2"

    @pytest.mark.parametrize("terms, text", [
        (fibonacci(21)[1:], "(1)/(1 - x - x^2)"),
        ([n**3 - 7 * n + 2 for n in range(40)],
         "(2 - 12*x + 24*x^2 - 8*x^3)/(1 - 4*x + 6*x^2 - 4*x^3 + x^4)"),
    ], ids=["fibonacci", "cubic"])
    def test_str_of_a_detected_function(self, terms, text):
        # README's quick tour prints str(detection.function)
        assert str(detect_rationality(ExactSequence.of(terms)).function) == text


class TestNormalizedDetGrowth:
    def test_single_term(self):
        (value,) = normalized_det_growth(ExactSequence.of([5]), 1)
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_rational_sequence_vanishes_eventually(self):
        values = normalized_det_growth(ExactSequence.of(fibonacci(21)), 10)
        assert values[0] is None  # first term of the sequence is 0
        assert values[1] == pytest.approx(1.0)
        assert all(v is None for v in values[2:])

    def test_hilbert_type_sequence_matches_closed_form(self):
        seq = ExactSequence.of(Fraction(1, n + 1) for n in range(39))
        values = normalized_det_growth(seq, 20)

        def superfactorial(n):
            result, factorial = 1, 1
            for i in range(1, n):
                factorial *= i
                result *= factorial
            return result

        for n in (2, 8, 20):
            det = hankel_determinant(seq, n)
            assert det == Fraction(superfactorial(n) ** 4, superfactorial(2 * n))
            expected = math.exp(
                (math.log(det.numerator) - math.log(det.denominator)) / n**2
            )
            assert values[n - 1] == pytest.approx(expected, rel=1e-12)
        assert 0.24 <= values[19] <= 0.31


def test_max_order():
    assert max_order(FIB_5) == 3
    assert max_order(ExactSequence.of(range(10))) == 5


def test_determinant_equality_under_transform_stated_directly():
    # the determinant half of the invariance claim, without the conjugation
    rng = random.Random(61)
    for _ in range(10):
        terms = [rng.randint(-9, 9) for _ in range(17)]
        seq = ExactSequence.of(terms)
        g = binomial_transform(seq)
        for n in range(1, max_order(seq) + 1):
            assert hankel_determinant(seq, n) == hankel_determinant(g, n)
