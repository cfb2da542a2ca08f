"""Property tests: the fast exact paths against their slow oracles.

Rationality detection (the recurrence read off the remainder sequence) is
compared with Berlekamp-Massey over the rationals and with the
order-by-order recurrence search, cleared-denominator determinants with
Gaussian elimination over the rationals, the leading minors of one
truncated subresultant remainder sequence (the Hankel table, detection's
determinant evidence, memoized determinants, transform invariance) with a
Bareiss elimination per order, and the forward-difference table
(transform pair, polynomiality certificate, power-of-(1 - x) test) with
explicit binomial sums, the iterated-difference loop and synthetic
division.  Valuations are compared with one division by p at a time, the
report writer with json's own indent-2 encoder, the integer Taylor
expansion with one in Fractions, and the Hall-style generator with a
pairwise CRT fold over every constraint.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    berlekamp_massey,
    binomial_sums,
    certificate_by_differences,
    det_table_by_order,
    detect_function,
    determinant_by_order,
    hall_by_pairwise_crt,
    hankel_table_by_order,
    invariance_by_order,
    json_dumps,
    padic_valuation_by_division,
    power_of_one_minus_x_by_division,
    rational_det,
    recurrence_by_order_search,
    recurrence_denominator,
    reconstruct_by_fractions,
    series_by_fractions,
    signed_binomial_sums,
)
from pseudopoly import (
    ExactSequence,
    IntPolynomial,
    binomial_transform,
    detect_rationality,
    eval_polynomial_sequence,
    generate_hall_like,
    generate_primary,
    hankel_determinant,
    hankel_table,
    inverse_binomial_transform,
    is_power_of_one_minus_x,
    max_order,
    padic_valuation,
    polynomial_certificate,
    verify_transform_invariance,
)
from pseudopoly import hankel
from pseudopoly.formats import dumps
from pseudopoly.polyarith import series_from_rational

PROPERTY = settings(max_examples=60, deadline=None, database=None)

small_ints = st.integers(-10**6, 10**6)
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def c_finite(draw, values):
    """A prefix of an order-k recurrence with coefficients from ``values``;
    short prefixes reach the acceptance bound N = 2k + window."""
    order = draw(st.integers(1, 6))
    coeffs = draw(st.lists(values, min_size=order, max_size=order))
    terms = draw(st.lists(values, min_size=order, max_size=order))
    length = max(4, 2 * order + draw(st.integers(1, 20)))
    while len(terms) < length:
        terms.append(sum(c * terms[-1 - i] for i, c in enumerate(coeffs)))
    return terms


@st.composite
def primary_or_hall(draw):
    length = draw(st.integers(12, 22))
    if draw(st.booleans()):
        support = draw(st.integers(1, length))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=support, max_size=support))
        return list(generate_primary(coeffs + [0] * (length - support), length))
    perturbation = draw(st.lists(st.integers(-2, 2), min_size=length, max_size=length))
    return list(generate_hall_like(length, perturbation))


prefixes = st.one_of(
    st.lists(small_ints, min_size=12, max_size=22),
    st.lists(fractions, min_size=12, max_size=22),
    st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=12, max_size=22),
    c_finite(st.integers(-3, 3)),
    c_finite(fractions),
    primary_or_hall(),
)


@PROPERTY
@given(prefixes, st.integers(1, 5))
@example([0, 1, 1, 2, 3], 1)  # N = 2L + window exactly: accepted
@example([0] * 7 + [1], 3)  # zero window, but L = N is past the order bound
def test_detection_matches_order_search(terms, window):
    seq = ExactSequence.of(terms)
    window = min(window, (len(seq) - 2) // 2)
    exact = [Fraction(t) for t in seq.terms]
    coeffs = berlekamp_massey(exact)
    searched = recurrence_by_order_search(exact, window)
    if searched is None:
        assert 2 * len(coeffs) + window > len(exact)
    else:
        assert coeffs == searched
    detection = detect_rationality(seq, window)
    assert detection.function == detect_function(seq, window)


# a0 = 0 makes the remainder sequence open with a degree jump; sparse
# prefixes put jumps of any length anywhere, up to order 21, and let
# remainders vanish
zero_led = st.one_of(
    st.lists(small_ints, min_size=0, max_size=21).map(lambda t: [0] + t),
    st.lists(st.sampled_from([0, 0, 1, -1]), min_size=0, max_size=21).map(lambda t: [0] + t),
    c_finite(st.integers(-3, 3)).map(lambda t: [0] + t),
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=1, max_size=41),
)
detection_prefixes = st.one_of(
    prefixes,
    st.lists(st.just(0), min_size=4, max_size=22),
    zero_led.filter(lambda t: len(t) >= 4),
)


@PROPERTY
@given(detection_prefixes, st.integers(1, 5))
@example([1, 2, 4, 8, 16, 33], 1)  # the last term of an even prefix breaks it
@example([0, 0, 0, 1], 1)  # L = 0 fails at the last term
@example([1, 2, 4, 8, 16, 32], 1)  # 1/(1 - 2x)
@example([0, 1, 1, 2, 3, 5, 8, 13], 2)  # x/(1 - x - x^2)
def test_detection_matches_berlekamp_massey(terms, window):
    # the recurrence read off the remainder sequence against the one
    # Berlekamp-Massey finds over the rationals
    seq = ExactSequence.of(terms)
    window = min(window, (len(seq) - 2) // 2)
    exact = [Fraction(t) for t in seq.terms]
    coeffs = berlekamp_massey(exact)
    values, _ = hankel._clear_denominators(seq.terms)
    expected = None
    if not any(det_table_by_order(seq)[-window:]) and 2 * len(coeffs) + window <= len(exact):
        expected = reconstruct_by_fractions(seq.terms, recurrence_denominator(coeffs))
    assert detect_rationality(seq, window).function == expected
    minors, den = hankel._leading_minors(values, max_order(seq))
    if den is not None:
        assert len(den) - 1 == max((k for k, d in enumerate(minors, 1) if d), default=0)


minor_prefixes = st.one_of(
    st.lists(small_ints, min_size=1, max_size=25),
    st.lists(fractions, min_size=1, max_size=25),
    st.lists(st.just(0), min_size=1, max_size=25),
    c_finite(st.integers(-3, 3)),
    c_finite(fractions),
    zero_led,
)


@PROPERTY
@given(minor_prefixes, st.integers(0, 13))
@example([0, 1, 0, 0, 0], 0)  # a0 = 0, then a nonzero minor
@example([0, 0, 0, 0, 1], 0)  # one jump past the largest order
@example([0] * 9, 0)
def test_table_and_detection_match_eliminations_by_order(terms, cut):
    seq = ExactSequence.of(terms)
    n_max = max(0, max_order(seq) - cut)
    assert hankel_table(seq, n_max) == hankel_table_by_order(seq, n_max)
    if len(seq) >= 4:
        det_table = detect_rationality(seq, 1).det_table
        expected = det_table_by_order(seq)
        assert det_table == expected
        assert list(map(type, det_table)) == list(map(type, expected))


@PROPERTY
@given(minor_prefixes, st.integers(0, 13))
@example([0, 1, 2, 3, 4, 5, 6], 0)  # a0 = 0: the first divisor drops a degree
@example([-1, -1, 0, 0, 0, 0, -1, 0, 0], 0)  # a jump with e = 2 after order 2
@example([0, 1, 1, 2, 3, 5, 8, 13, 21], 0)  # every kept coefficient vanishes
@example([0, 1, 0, 0, 0, 0, 0, -1, 1], 0)  # a jump past the largest order
@example([0] * 9, 0)
@example([5], 0)
@example([0], 0)
def test_leading_minors_of_symmetric_matrices(terms, cut):
    # every branch of the truncated remainder sequence against an
    # elimination per order, on the symmetric matrices H_1 .. H_n
    seq = ExactSequence.of(terms)
    n = max(0, max_order(seq) - cut)
    values, scale = hankel._clear_denominators(seq.terms)
    minors, _ = hankel._leading_minors(values, n)
    assert len(minors) == n
    assert [Fraction(d, scale**k) for k, d in enumerate(minors, 1)] == [
        determinant_by_order(seq, k) for k in range(1, n + 1)
    ]


@PROPERTY
@given(
    minor_prefixes,
    minor_prefixes,
    st.sampled_from(["ascending", "descending", "random"]),
    st.sampled_from(["other", "equal-copy", "fraction-twin"]),
    st.randoms(use_true_random=False),
)
def test_memoized_determinants_never_cross_sequences(first, second, schedule, pair, rng):
    seq = ExactSequence.of(first)
    if pair == "equal-copy":
        other = ExactSequence.of(first)  # equal values, a distinct object
    elif pair == "fraction-twin":  # equal values, int and Fraction terms
        ints = [int(t) for t in first]
        seq = ExactSequence.of(ints)
        other = ExactSequence(tuple(Fraction(t) for t in ints))
    else:
        other = ExactSequence.of(second)
    calls = [(s, n) for s in (seq, other) for n in range(1, max_order(s) + 1)]
    if schedule == "ascending":
        calls.sort(key=lambda call: call[1])
    elif schedule == "descending":
        calls.sort(key=lambda call: -call[1])
    else:
        rng.shuffle(calls)
    for s, n in calls:
        det = hankel_determinant(s, n)
        expected = determinant_by_order(s, n)
        assert det == expected
        assert type(det) is type(expected)
        assert type(det) is (int if s.is_integer else Fraction)


invariance_prefixes = st.one_of(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=25),
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=1, max_size=25),
    st.lists(fractions, min_size=1, max_size=25),
    zero_led,
    c_finite(st.integers(-3, 3)),
)


@PROPERTY
@given(invariance_prefixes, st.integers(0, 12))
def test_invariance_matches_conjugation_by_order(terms, cut):
    seq = ExactSequence.of(terms)
    n_max = max(1, max_order(seq) - cut)
    assert verify_transform_invariance(seq, n_max) == invariance_by_order(seq, n_max)


@PROPERTY
@given(invariance_prefixes, st.data())
def test_perturbed_transform_fails_at_the_oracles_order(terms, data):
    seq = ExactSequence.of(terms)
    n_max = data.draw(st.integers(1, max_order(seq)))
    index = data.draw(st.integers(0, len(seq) - 1))
    delta = data.draw(st.sampled_from([-1, 1, 7]))
    original = hankel.binomial_transform

    def perturbed(s):
        b = list(original(s))
        b[index] += delta
        return ExactSequence(tuple(b))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "binomial_transform", perturbed)
        report = verify_transform_invariance(seq, n_max)
        expected = invariance_by_order(seq, n_max)
    assert report == expected
    # term i + j of H(b) fails every order above max(i, j) >= ceil(index / 2)
    order = (index + 1) // 2 + 1
    if order <= n_max:
        assert report.first_failure == (order, "entrywise")


@PROPERTY
@given(st.lists(fractions, min_size=1, max_size=13), st.integers(1, 7))
def test_rational_determinant_matches_elimination(terms, n):
    n = min(n, (len(terms) + 1) // 2)
    seq = ExactSequence.of(terms)
    rows = [[terms[i + j] for j in range(n)] for i in range(n)]
    det = hankel_determinant(seq, n)
    assert det == rational_det(rows)
    if not seq.is_integer:
        assert isinstance(det, Fraction)


@PROPERTY
@given(st.lists(small_ints, min_size=1, max_size=13), st.integers(1, 7))
def test_integer_bareiss_matches_elimination(terms, n):
    n = min(n, (len(terms) + 1) // 2)
    rows = [[terms[i + j] for j in range(n)] for i in range(n)]
    det = hankel_determinant(ExactSequence.of(terms), n)
    assert isinstance(det, int)
    assert det == rational_det(rows)


@PROPERTY
@given(st.lists(fractions, min_size=1, max_size=25))
def test_transform_invariance_holds_on_fractions(terms):
    seq = ExactSequence.of(terms)
    n_max = (len(seq) + 1) // 2
    report = verify_transform_invariance(seq, n_max)
    assert report.passed
    assert report.checked_max == n_max
    assert report.first_failure is None


exact_prefixes = st.one_of(
    st.lists(small_ints, min_size=1, max_size=40),
    st.lists(fractions, min_size=1, max_size=40),
)


@PROPERTY
@given(exact_prefixes)
def test_transform_pair_matches_binomial_sums(terms):
    seq = ExactSequence.of(terms)
    b = binomial_transform(seq)
    assert list(b) == signed_binomial_sums(list(seq))
    assert list(inverse_binomial_transform(seq)) == binomial_sums(list(seq))
    assert inverse_binomial_transform(b) == seq


@st.composite
def polynomial_prefixes(draw):
    """Values of a random integer polynomial, sometimes with one term
    nudged so that the certificate has to fail or find a higher degree."""
    coeffs = draw(st.lists(st.integers(-20, 20), max_size=8))
    length = draw(st.integers(3, 30))
    terms = [IntPolynomial.of(coeffs)(n) for n in range(length)]
    if draw(st.booleans()):
        terms[draw(st.integers(0, length - 1))] += draw(st.sampled_from([-1, 1]))
    return terms


@PROPERTY
@given(st.one_of(
    polynomial_prefixes(),
    st.lists(small_ints, min_size=3, max_size=30),
    st.lists(fractions, min_size=3, max_size=30),
    st.lists(st.sampled_from([0, 0, 0, 1]), min_size=3, max_size=12),
))
@example([0, 0, 0])
@example([0, 0, 1])  # degree 2 needs five terms
def test_certificate_matches_difference_loop(terms):
    seq = ExactSequence.of(terms)
    assert polynomial_certificate(seq) == certificate_by_differences(list(seq))


@PROPERTY
@given(st.lists(st.integers(-5, 5), max_size=10))
def test_power_test_matches_synthetic_division(coeffs):
    poly = IntPolynomial.of(coeffs)
    expected = power_of_one_minus_x_by_division(poly.coefficients)
    assert is_power_of_one_minus_x(poly) == expected


@PROPERTY
@given(
    st.integers(-9, 9).filter(bool),
    st.integers(0, 12),
    st.data(),
)
def test_power_test_on_perturbed_powers(c, d, data):
    coeffs = [(-1) ** k * c * math.comb(d, k) for k in range(d + 1)]
    assert is_power_of_one_minus_x(IntPolynomial.of(coeffs))
    k = data.draw(st.integers(0, d + 1))
    coeffs += [0]
    coeffs[k] += data.draw(st.sampled_from([-1, 1]))
    poly = IntPolynomial.of(coeffs)
    expected = power_of_one_minus_x_by_division(poly.coefficients)
    assert is_power_of_one_minus_x(poly) == expected


@PROPERTY
@given(
    st.sampled_from([2, 3, 5, 7, 97, 7919, 2**31 - 1]),
    st.integers(0, 600),
    st.integers(-10**40, 10**40),
)
@example(2, 0, 0)
@example(3, 500, -3**7 * 10)
@example(2, 255, 2**256 + 2)
def test_valuation_matches_one_division_at_a_time(p, k, m):
    x = m * p**k  # m may be 0 or itself divisible by p
    assert padic_valuation(x, p) == padic_valuation_by_division(x, p)


# every kind of denominator constant term: 1 (all the audit meets), a unit,
# integers that do and do not divide the numerators, and a Fraction
series_coefficients = st.one_of(
    st.lists(st.integers(-20, 20), max_size=6),
    st.lists(st.one_of(st.integers(-20, 20), fractions), max_size=6),
)


@PROPERTY
@given(
    series_coefficients,
    st.sampled_from([1, -1, 2, -3, Fraction(3, 2)]),
    series_coefficients,
    st.integers(0, 25),
)
@example([1], 1, [-1, -1], 12)  # 1/(1 - x - x^2)
@example([Fraction(1, 2), 3], 2, [1], 8)
def test_series_matches_fraction_expansion(num, d0, tail, count):
    den = [d0] + tail
    series = series_from_rational(num, den, count)
    expected = series_by_fractions(num, den, count)
    assert series == expected
    assert [type(c) for c in series] == [
        int if c.denominator == 1 else Fraction for c in expected
    ]


@PROPERTY
@given(st.integers(1, 80).flatmap(
    lambda n: st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)
))
@example([0] * 80)
@example([5])
def test_hall_matches_pairwise_crt(perturbation):
    length = len(perturbation)
    expected = hall_by_pairwise_crt(length, perturbation)
    assert list(generate_hall_like(length, perturbation)) == expected


class IntSubclass(int):
    def __repr__(self):
        return "not-a-number"

    __str__ = __repr__


class FloatSubclass(float):
    def __repr__(self):
        return "not-a-number"

    __str__ = __repr__


json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028')))
json_scalar_kinds = [
    st.none(),
    st.booleans(),
    st.one_of(st.integers(), st.integers(-10**3000, 10**3000)),
    st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan])),
    json_text,
]
json_values = st.recursive(
    st.one_of(
        *json_scalar_kinds,
        *(st.lists(kind, max_size=6) for kind in json_scalar_kinds),
        st.lists(st.one_of(st.booleans(), st.integers()), max_size=6),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(json_text, children, max_size=5),
    ),
    max_leaves=30,
)


@PROPERTY
@given(json_values)
@example([True, 1, 0, False])
@example({"": [], "a": {}, '"\\\x01\u00e9': [[], {}]})
@example([IntSubclass(7), IntSubclass(-8)])
@example({"f": FloatSubclass(2.5), "i": IntSubclass(3), "l": [FloatSubclass(-0.0)]})
def test_writer_matches_json_encoder(value):
    assert dumps(value) == json_dumps(value)
