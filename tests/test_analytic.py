import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from pseudopoly import (
    Hedgehog,
    InputError,
    IntPolynomial,
    NumericError,
    RationalFunction,
    asymptotic_ratio,
    chebyshev_theta,
    dubinin_bound,
    estimate_transfinite_diameter,
    exponent_identity_check,
    exponent_identity_sweep,
    polya_bound_for_series,
    singular_directions,
    theta_partial_sum,
)


def trial_division_primes(limit):
    return [
        n
        for n in range(2, limit + 1)
        if all(n % d != 0 for d in range(2, int(n**0.5) + 1))
    ]


def random_hedgehog(rng, max_spikes=4, min_gap=0.05):
    spikes = rng.randint(1, max_spikes)
    while True:
        args = sorted(rng.uniform(-math.pi, math.pi) for _ in range(spikes))
        gaps_ok = all(args[i + 1] - args[i] > min_gap for i in range(spikes - 1))
        if spikes > 1:
            gaps_ok = gaps_ok and (args[0] + 2 * math.pi - args[-1]) > min_gap
        if gaps_ok:
            break
    return Hedgehog(
        tuple(rng.uniform(0.2, 2.0) * cmath.exp(1j * a) for a in args)
    )


class TestChebyshevTheta:
    def test_no_primes_below_two(self):
        assert chebyshev_theta(0) == 0.0
        assert chebyshev_theta(1) == 0.0

    def test_single_prime(self):
        assert chebyshev_theta(2) == pytest.approx(math.log(2), rel=1e-12)

    def test_theta_ten_is_log_of_210(self):
        assert chebyshev_theta(10) == pytest.approx(math.log(210), rel=1e-12)

    def test_matches_trial_division(self):
        for x in (17, 50.5, 97):
            expected = sum(math.log(p) for p in trial_division_primes(int(x)))
            assert chebyshev_theta(x) == pytest.approx(expected, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            chebyshev_theta(-1)


class TestExponentIdentity:
    def test_small_case(self):
        report = exponent_identity_check(5)
        assert report.passed
        assert report.per_prime == ((2, 3, 3), (3, 2, 2))

    def test_vacuous_below_first_prime(self):
        report = exponent_identity_check(2)
        assert report.passed
        assert report.per_prime == ()

    def test_counts_match_brute_force(self):
        for n in (7, 30, 121):
            report = exponent_identity_check(n)
            for p, counted, required in report.per_prime:
                brute = sum(1 for k in range(n) if p <= k)
                assert counted == brute == required == n - p

    def test_sweep(self):
        sweep = exponent_identity_sweep(300)
        assert sweep.passed
        assert sweep.first_failure is None
        assert sweep.checked_max == 300

    def test_sweep_agrees_with_single_checks(self):
        assert exponent_identity_sweep(40).passed
        assert all(exponent_identity_check(n).passed for n in range(1, 41))


class TestAsymptoticRatio:
    def test_small_value_against_direct_sum(self):
        primes = trial_division_primes(9)
        theta = [sum(math.log(p) for p in primes if p <= k) for k in range(10)]
        expected = sum(theta) / (100 / 2)
        assert asymptotic_ratio(10) == pytest.approx(expected, rel=1e-12)
        assert 0 < asymptotic_ratio(10) < 1

    def test_partial_sum_matches_prime_weighted_form(self):
        # sum_{k<n} theta(k) = sum_{p<n} (n - p) log p
        n = 500
        expected = sum((n - p) * math.log(p) for p in trial_division_primes(n - 1))
        assert theta_partial_sum(n) == pytest.approx(expected, rel=1e-12)

    def test_grid_is_increasing_and_below_one_point_zero_one(self):
        values = [asymptotic_ratio(n) for n in (10**3, 10**4, 10**5)]
        assert values[0] < values[1] < values[2]
        assert all(v < 1.01 for v in values)

    def test_minimum_argument(self):
        with pytest.raises(InputError):
            asymptotic_ratio(9)


class TestHedgehog:
    def test_rejects_zero_endpoint(self):
        with pytest.raises(InputError):
            Hedgehog((0j,))

    def test_rejects_shared_direction(self):
        with pytest.raises(InputError):
            Hedgehog((1 + 0j, 2 + 0j))

    def test_wraparound_direction_collision(self):
        with pytest.raises(InputError):
            Hedgehog((cmath.exp(1j * (math.pi - 1e-9)), cmath.exp(-1j * math.pi)))

    def test_accepts_distinct_spikes(self):
        assert Hedgehog((1 + 0j, -1 + 0j, 1j)).spike_count == 3


class TestDubininBound:
    def test_single_segment(self):
        assert dubinin_bound(Hedgehog((1 + 0j,))) == pytest.approx(0.25)

    def test_two_opposite_segments(self):
        assert dubinin_bound(Hedgehog((1 + 0j, -1 + 0j))) == pytest.approx(0.5)

    def test_scaled_single_segment(self):
        assert dubinin_bound(Hedgehog((2j,))) == pytest.approx(0.5)

    def test_scaling_is_linear(self):
        rng = random.Random(71)
        for _ in range(20):
            hedgehog = random_hedgehog(rng)
            t = rng.uniform(0.1, 5.0)
            scaled = Hedgehog(tuple(t * z for z in hedgehog.endpoints))
            assert dubinin_bound(scaled) == pytest.approx(
                t * dubinin_bound(hedgehog), rel=1e-12
            )


class TestPolyaBound:
    def test_unit_values(self):
        assert polya_bound_for_series(1.0, 1) == pytest.approx(0.25)

    def test_half_e(self):
        assert polya_bound_for_series(1 / math.e, 2) == pytest.approx(
            math.e / 2, abs=1e-12
        )

    def test_one_direction_case_sits_below_sqrt_e(self):
        assert polya_bound_for_series(1 / math.e, 1) == pytest.approx(math.e / 4)
        assert math.e / 4 < math.sqrt(math.e)
        assert math.sqrt(math.e) > math.e / 2

    def test_monotonicity(self):
        rhos = [0.3, 0.7, 1.5, 4.0]
        assert all(
            polya_bound_for_series(a, 2) > polya_bound_for_series(b, 2)
            for a, b in zip(rhos, rhos[1:])
        )
        assert all(
            polya_bound_for_series(0.8, r) < polya_bound_for_series(0.8, r + 1)
            for r in range(1, 6)
        )

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InputError):
            polya_bound_for_series(0.0, 1)


class TestTransfiniteDiameterEstimate:
    def test_unit_segment(self):
        estimate = estimate_transfinite_diameter(Hedgehog((1 + 0j,)), 64, 2048)
        assert 0.20 <= estimate <= 0.26

    def test_two_spikes(self):
        estimate = estimate_transfinite_diameter(Hedgehog((1 + 0j, -1 + 0j)), 64, 2048)
        assert 0.40 <= estimate <= 0.51

    def test_never_exceeds_bound_by_much(self):
        rng = random.Random(73)
        for _ in range(15):
            hedgehog = random_hedgehog(rng)
            estimate = estimate_transfinite_diameter(hedgehog, 64, 2048)
            assert estimate <= dubinin_bound(hedgehog) + 0.02

    def test_few_leja_points_stay_below_the_bound(self):
        # from 5 points the fitted estimate of a regular hedgehog is below
        # its sharp bound (the raw mean of 2-4 points was up to 4 times it)
        for r in range(1, 5):
            hedgehog = Hedgehog(
                tuple(cmath.exp(2j * math.pi * k / r) for k in range(r))
            )
            for m in range(5, 13):
                estimate = estimate_transfinite_diameter(hedgehog, m, 2048)
                assert estimate <= dubinin_bound(hedgehog)

    def test_regular_spike_configurations_approach_equality(self):
        for r in range(1, 5):
            hedgehog = Hedgehog(
                tuple(cmath.exp(2j * math.pi * k / r) for k in range(r))
            )
            estimate = estimate_transfinite_diameter(hedgehog, 64, 2048)
            bound = dubinin_bound(hedgehog)
            assert abs(estimate - bound) <= 0.1 * bound

    def test_scales_down_to_subnormal_endpoints(self):
        # cap(tK) = t cap(K): on subnormal endpoints the estimate is the
        # nearest double to the unit estimate times t, which is all the
        # digits a subnormal has (1.5e-323 is nearest to 1.70e-323)
        unit = estimate_transfinite_diameter(Hedgehog((1 + 0j,)), 8, 2048)
        for t in (1e-320, 1e-322):
            estimate = estimate_transfinite_diameter(Hedgehog((complex(t),)), 8, 2048)
            assert estimate.hex() == (unit * t).hex()
        estimate = estimate_transfinite_diameter(Hedgehog((1e-300 + 0j,)), 8, 2048)
        assert estimate == pytest.approx(unit * 1e-300, rel=1e-9, abs=0.0)

    def test_parameter_validation(self):
        hedgehog = Hedgehog((1 + 0j,))
        with pytest.raises(InputError):
            estimate_transfinite_diameter(hedgehog, 1, 2048)
        with pytest.raises(InputError, match="at least 5 Leja points"):
            estimate_transfinite_diameter(hedgehog, 4, 2048)
        with pytest.raises(InputError):
            estimate_transfinite_diameter(hedgehog, 64, 8)
        with pytest.raises(InputError):
            estimate_transfinite_diameter(hedgehog, 64, 16)  # 16 candidates < 64 points


class TestSingularDirections:
    def test_simple_pole_at_one(self):
        func = RationalFunction(IntPolynomial.of([1]), IntPolynomial.of([1, -1]), 1)
        report = singular_directions(func)
        assert report.direction_count == 1
        assert report.directions[0] == pytest.approx(0.0, abs=1e-6)
        assert report.radius == pytest.approx(1.0, rel=1e-9)

    def test_conjugate_imaginary_poles(self):
        func = RationalFunction(IntPolynomial.of([1]), IntPolynomial.of([1, 0, 1]), 2)
        report = singular_directions(func)
        assert report.direction_count == 2
        assert report.directions[0] == pytest.approx(-math.pi / 2, abs=1e-6)
        assert report.directions[1] == pytest.approx(math.pi / 2, abs=1e-6)
        assert report.radius == pytest.approx(1.0, rel=1e-9)

    def test_fibonacci_denominator(self):
        func = RationalFunction(IntPolynomial.of([0, 1]), IntPolynomial.of([1, -1, -1]), 2)
        report = singular_directions(func)
        golden = (math.sqrt(5) - 1) / 2
        assert report.direction_count == 2
        assert report.directions[0] == pytest.approx(0.0, abs=1e-6)
        assert report.directions[1] == pytest.approx(math.pi, abs=1e-6)
        assert report.radius == pytest.approx(golden, rel=1e-9)

    def test_repeated_pole_multiplicity(self):
        func = RationalFunction(
            IntPolynomial.of([1]), IntPolynomial.of([1, -4, 6, -4, 1]), 4
        )
        report = singular_directions(func)
        assert len(report.poles) == 1
        pole, multiplicity = report.poles[0]
        assert multiplicity == 4
        assert pole == pytest.approx(1.0, rel=1e-9)
        assert report.direction_count == 1

    def test_directions_independent_of_numerator(self):
        den = IntPolynomial.of([1, 2, 0, 0, 5])
        a = singular_directions(RationalFunction(IntPolynomial.of([1]), den, 4))
        b = singular_directions(RationalFunction(IntPolynomial.of([3, 1]), den, 4))
        assert a.directions == b.directions
        assert a.poles == b.poles

    def test_real_denominators_give_conjugate_paired_directions(self):
        rng = random.Random(79)
        for _ in range(10):
            coeffs = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
            poly = IntPolynomial.of(coeffs)
            if poly.degree < 1:
                continue
            func = RationalFunction(IntPolynomial.of([1]), poly, poly.degree)
            report = singular_directions(func)
            for d in report.directions:
                if abs(d) > 1e-6 and abs(abs(d) - math.pi) > 1e-6:
                    assert any(
                        abs(other + d) <= 1e-6 for other in report.directions
                    )

    def test_linear_poles_are_correctly_rounded_quotients(self):
        # for 1 + 3^302 x, np.roots (LAPACK rescales at that scale) returns a
        # root one ulp off -1/3^302; the closed form is exact to the bit
        for den in ([1, 3**302], [5, -7], [2**70 + 1, -(3**40)]):
            func = RationalFunction(IntPolynomial.of([1]), IntPolynomial.of(den), 1)
            [(pole, multiplicity)] = singular_directions(func).poles
            expected = float(Fraction(-den[0], den[1]))
            assert (pole.real.hex(), pole.imag.hex(), multiplicity) == (
                expected.hex(), (0.0).hex(), 1)
        # a quotient that underflows reads 0, which is never a pole, and
        # its sign, the pole's direction, is lost; (1 - 2x)(1 + 2^1100 x)
        # is one factor whose other root, 1/2, is found
        for den in ([1, 2**1100], [1, -(2**1100)], [1, 2**1100 - 2, -(2**1101)]):
            func = RationalFunction(IntPolynomial.of([1]), IntPolynomial.of(den), len(den) - 1)
            with pytest.raises(NumericError, match="a pole underflows to 0"):
                singular_directions(func)

    def test_unresolved_root_is_a_numeric_error(self):
        # a primitive squarefree factor of degree 5 (lowest degree first)
        # whose root near -0.552 the root finder leaves with a residual about
        # 2.5e6 times the one allowed; the residual is written as a float
        factor = [
            3080656486296031, 176187847829846575028861116093,
            319178351181432342698044194523, -15207722238102647703707510219,
            -27550002846232163528827181250, -265908056268750,
        ]
        func = RationalFunction(IntPolynomial.of([1]), IntPolynomial.of(factor), 5)
        with pytest.raises(NumericError) as info:
            singular_directions(func)
        assert re.fullmatch(
            r"root residuals exceed tolerance 1e-09: \[\(\(-0\.55[0-9]*\+0j\), [0-9.e+]+\)\]",
            str(info.value),
        ), str(info.value)

    def test_linear_pole_past_the_float_range_is_a_numeric_error(self):
        func = RationalFunction(IntPolynomial.of([1]), IntPolynomial.of([2**1100, 1]), 1)
        with pytest.raises(NumericError, match="a denominator factor is past the float range"):
            singular_directions(func)

    def test_constant_denominator_rejected(self):
        func = RationalFunction(IntPolynomial.of([0, 1]), IntPolynomial.of([1]), 1)
        with pytest.raises(InputError):
            singular_directions(func)
