import csv
import io
import math
import random
import sys
from fractions import Fraction

import pytest

from pseudopoly import (
    HALF_E,
    SQRT_E,
    AuditConfig,
    ExactSequence,
    InputError,
    IntPolynomial,
    InternalInvariantError,
    VERDICT_CONGRUENCE_VIOLATION,
    VERDICT_POLYNOMIAL,
    VERDICT_UNDETERMINED,
    check_congruences,
    eval_polynomial_sequence,
    generate_hall_like,
    generate_primary,
    is_power_of_one_minus_x,
    polya_bound_for_series,
    ruzsa_audit,
)
from pseudopoly import hankel
from pseudopoly.cli import run_cli
from pseudopoly.formats import audit_json_obj, dumps

CUBIC = IntPolynomial.of([2, -7, 0, 1])


def assert_report_invariants(report):
    if report.verdict == VERDICT_POLYNOMIAL:
        assert report.degree is not None
        assert report.denominator_is_power_of_one_minus_x is True
    if report.verdict == VERDICT_CONGRUENCE_VIOLATION:
        assert report.congruence.violations
    if report.rationality.function is None:
        assert report.singularities is None
        assert report.verdict in (VERDICT_UNDETERMINED, VERDICT_CONGRUENCE_VIOLATION)


class TestGuardConstants:
    def test_strict_inequality_on_doubles(self):
        assert SQRT_E > HALF_E

    def test_half_e_is_the_two_direction_bound(self):
        assert polya_bound_for_series(1 / math.e, 2) == pytest.approx(HALF_E, abs=1e-12)


class TestPowerOfOneMinusX:
    def test_powers(self):
        assert is_power_of_one_minus_x(IntPolynomial.of([1, -1]))
        assert is_power_of_one_minus_x(IntPolynomial.of([1, -2, 1]))
        assert is_power_of_one_minus_x(IntPolynomial.of([1, -4, 6, -4, 1]))

    def test_constants_count_as_zeroth_power(self):
        assert is_power_of_one_minus_x(IntPolynomial.of([1]))

    def test_non_powers(self):
        assert not is_power_of_one_minus_x(IntPolynomial.of([1, -3]))
        assert not is_power_of_one_minus_x(IntPolynomial.of([1, -1, -1]))
        assert not is_power_of_one_minus_x(IntPolynomial.of([1, -3, 3, -1, 0, 1]))
        assert not is_power_of_one_minus_x(IntPolynomial(()))


class TestRuzsaAudit:
    def test_cubic_polynomial_sequence(self):
        report = ruzsa_audit(eval_polynomial_sequence(CUBIC, 40))
        assert report.verdict == VERDICT_POLYNOMIAL
        assert report.degree == 3
        assert report.congruence.ok
        assert report.growth_below_bound
        assert all(rec.divisible for rec in report.hankel)
        assert report.denominator_is_power_of_one_minus_x is True
        assert report.rationality.function.denominator.coefficients == (1, -4, 6, -4, 1)
        assert report.singularities.direction_count == 1
        assert report.singularities.directions[0] == pytest.approx(0.0, abs=1e-6)
        assert_report_invariants(report)

    def test_powers_of_two_fail_congruences(self):
        report = ruzsa_audit(ExactSequence.of([2**n for n in range(20)]))
        assert report.verdict == VERDICT_CONGRUENCE_VIOLATION
        assert report.congruence.violations[0].modulus == 2
        # the geometric series is still visibly rational in the evidence,
        # and its growth 2 < e is not what disqualifies it
        assert report.rationality.function is not None
        assert report.growth_below_bound
        assert_report_invariants(report)

    def test_generated_primary_sequences(self):
        rng = random.Random(83)
        for _ in range(10):
            seq = generate_primary([rng.randint(-5, 5) for _ in range(30)], 30)
            report = ruzsa_audit(seq)
            assert report.verdict in (VERDICT_UNDETERMINED, VERDICT_POLYNOMIAL)
            assert all(rec.divisible for rec in report.hankel)
            assert_report_invariants(report)

    def test_divisibility_stage_never_fires_on_generated_sequences(self):
        rng = random.Random(89)
        for trial in range(50):
            if trial % 2:
                seq = generate_primary([rng.randint(-3, 3) for _ in range(20)], 20)
            else:
                seq = generate_hall_like(20, [rng.randint(-2, 2) for _ in range(20)])
            report = ruzsa_audit(seq)  # must not raise InternalInvariantError
            assert all(rec.divisible for rec in report.hankel)
            assert_report_invariants(report)

    def test_non_divisible_minor_of_a_congruent_prefix_raises(self, monkeypatch):
        # the primary congruences force P_0 ... P_(n-1) | det H_n, so a minor
        # moved off its required divisor is a bug, not a finding
        terms = list(generate_primary([1, -2, 0, 3] * 8, 31))
        assert ruzsa_audit(ExactSequence.of(terms)).congruence.ok
        original = hankel._leading_minors

        def last_minor_moved(values, n):
            minors, den = original(values, n)
            assert minors[-1] != 0
            return minors[:-1] + [minors[-1] + 1], den

        monkeypatch.setattr(hankel, "_leading_minors", last_minor_moved)
        with pytest.raises(InternalInvariantError, match=r"determinants at orders \[16\]"):
            ruzsa_audit(ExactSequence.of(terms))  # a new object holds no facts yet

    def test_integral_fractions_audit_as_their_ints(self):
        # integral Fractions are stored as ints, so the audit, defined for
        # integer sequences, reads them as the ints they are
        as_fractions = ExactSequence([Fraction(k * k, 1) for k in range(12)])
        as_ints = ExactSequence([k * k for k in range(12)])
        assert as_fractions.is_integer
        assert check_congruences(as_fractions, "full") == check_congruences(as_ints, "full")
        report = ruzsa_audit(as_fractions)
        assert report.verdict == VERDICT_POLYNOMIAL
        assert dumps(audit_json_obj(report)) == dumps(audit_json_obj(ruzsa_audit(as_ints)))

    @pytest.mark.parametrize("kind", ["random", "c-finite"])
    def test_csv_counts_every_violation(self, kind, monkeypatch, capsys):
        # the summary row counts the violations from the residues of the
        # failing moduli; the records listed from them are counted here
        if kind == "random":
            rng = random.Random(40)
            terms = [rng.randint(-10**6, 10**6) for _ in range(40)]
        else:  # a_(n+2) = a_(n+1) + 2 a_n
            terms = [3, 1]
            while len(terms) < 30:
                terms.append(terms[-1] + 2 * terms[-2])
        report = ruzsa_audit(ExactSequence.of(terms))
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(map(str, terms))))
        assert run_cli(["audit", "--format", "csv"]) == 1
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert int(row["congruence_violations"]) == len(report.congruence.violations) > 0

    def test_random_polynomials_get_polynomial_verdict(self):
        rng = random.Random(97)
        for _ in range(10):
            deg = rng.randint(0, 6)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-2, 1, 5])]
            seq = eval_polynomial_sequence(IntPolynomial.of(coeffs), 40)
            report = ruzsa_audit(seq)
            assert report.verdict == VERDICT_POLYNOMIAL
            assert report.degree == deg
            assert_report_invariants(report)

    def test_zero_sequence(self):
        report = ruzsa_audit(ExactSequence.of([0] * 12))
        assert report.verdict == VERDICT_POLYNOMIAL
        assert report.degree == 0
        assert_report_invariants(report)

    def test_growth_bound_is_configurable(self):
        seq = ExactSequence.of([3**n for n in range(12)])  # tail_sup = 3.0
        lax = ruzsa_audit(seq, AuditConfig(growth_bound=4.0))
        strict = ruzsa_audit(seq, AuditConfig(growth_bound=2.0))
        assert lax.growth_below_bound and not strict.growth_below_bound

    def test_json_report_is_deterministic(self):
        seq = eval_polynomial_sequence(CUBIC, 30)
        first = dumps(audit_json_obj(ruzsa_audit(seq)))
        second = dumps(audit_json_obj(ruzsa_audit(seq)))
        assert first == second
        assert '"schema": "ruzsa-audit/1"' in first

    @pytest.mark.parametrize(
        "seq",
        [eval_polynomial_sequence(CUBIC, 40), generate_primary([1, -2, 0, 3] * 8, 31)],
        ids=["cubic", "primary"],
    )
    def test_determinant_layer_is_asked_once_per_order_and_consumer(
        self, seq, monkeypatch
    ):
        # the table and the detection each ask hankel_determinant for every
        # order; the shared memo makes the second ask cheap, but the calls
        # stay visible through the module name
        calls = []
        original = hankel.hankel_determinant

        def counted(s, n):
            calls.append(n)
            return original(s, n)

        monkeypatch.setattr(hankel, "hankel_determinant", counted)
        ruzsa_audit(seq)
        assert len(calls) == 2 * math.ceil(len(seq) / 2)

    def test_needs_ten_terms(self):
        with pytest.raises(InputError):
            ruzsa_audit(ExactSequence.of(range(9)))

    def test_rejects_rational_sequences(self):
        with pytest.raises(InputError):
            ruzsa_audit(ExactSequence.of(["1/2"] * 12))
