"""Property tests: the fast exact paths against their slow oracles.

Rationality detection (the recurrence read off the remainder sequence) is
compared with Berlekamp-Massey over the rationals and with the
order-by-order recurrence search, cleared-denominator determinants with
Gaussian elimination over the rationals, the leading minors of one
truncated subresultant remainder sequence (the Hankel table, detection's
determinant evidence, memoized determinants, transform invariance) with a
Bareiss elimination per order, and the forward-difference table
(transform pair, polynomiality certificate, power-of-(1 - x) test) with
explicit binomial sums, the top-down difference rows, the
iterated-difference loop and synthetic division.  Valuations are compared with one division by p at a time, the
report writer with json's own indent-2 encoder, its Hankel and
congruence-violation rows with one dict per row, the integer Taylor
expansion with one in Fractions, the Hall-style generator with a
pairwise CRT fold over every constraint, the integer gcd and squarefree
decomposition with Euclid and Yun over the rationals, and the hedgehog's
shared-direction rule (argument clustering) with a comparison of every pair
of arguments, and the audit's verdict and degree with its stages run in
their earlier order, the certificate computed for every detected function.
The congruence checks are compared with the divisibility of the forward
differences by lcm(1..k) and by the primorials, and with one difference
per (n, m) pair.
"""
import cmath
import math
from math import comb
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from oracles import (
    audit_as_dict,
    audit_verdict_by_stages,
    berlekamp_massey,
    binomial_sums,
    certificate_by_differences,
    congruence_as_dict,
    congruence_csv_by_str,
    congruences_by_pairs,
    det_table_by_order,
    detect_function,
    detection_by_two_scans,
    determinant_by_order,
    gcd_over_q,
    hall_by_pairwise_crt,
    hankel_rows_as_dicts,
    hankel_table_by_order,
    invariance_by_order,
    json_dumps,
    leading_minors_by_pseudo_division,
    monic,
    mul,
    padic_valuation_by_division,
    parse_lines_one_at_a_time,
    power_of_one_minus_x_by_binomials,
    power_of_one_minus_x_by_division,
    rational_det,
    recurrence_by_order_search,
    recurrence_denominator,
    reconstruct_by_fractions,
    series_by_fractions,
    shares_direction_pairwise,
    signed_binomial_sums,
    squarefree_over_q,
    transform_by_differences,
    valuation_by_climbing,
)
from pseudopoly import (
    DIRECTION_TOL,
    ExactSequence,
    Hedgehog,
    InputError,
    IntPolynomial,
    InternalInvariantError,
    binomial_transform,
    check_congruences,
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
    primorials,
    ruzsa_audit,
    verify_transform_invariance,
)
from pseudopoly import hankel
from pseudopoly.analytic import _cluster_directions, singular_directions
from pseudopoly.formats import (
    audit_json_obj,
    congruence_csv,
    congruence_json_obj,
    dumps,
    hankel_json_obj,
    parse_sequence,
)
from pseudopoly.core import NumericError
from pseudopoly.hankel import HankelRecord, RationalFunction
from pseudopoly.polyarith import (
    gcd_poly,
    series_from_rational,
    split_one_minus_x,
    squarefree_factors,
)
from pseudopoly.sequences import CongruenceReport, Violation

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
def primary_or_hall(draw, lengths=st.integers(12, 22)):
    length = draw(lengths)
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


@st.composite
def last_term_moved(draw, base):
    """A prefix from ``base``, one term shorter or not, so that both
    parities occur, with its last term moved by -1, 0 or 1."""
    terms = list(draw(base))
    if len(terms) > 4 and draw(st.booleans()):
        terms.pop()
    terms[-1] += draw(st.sampled_from([-1, 0, 1]))
    return terms


polynomial_prefixes = st.builds(
    lambda coeffs, length: [sum(c * k**j for j, c in enumerate(coeffs)) for k in range(length)],
    st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    st.integers(4, 30),
)
two_scan_prefixes = st.one_of(
    last_term_moved(c_finite(st.integers(-3, 3))),
    last_term_moved(c_finite(fractions)),
    last_term_moved(polynomial_prefixes),
    polynomial_prefixes,
    st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=4, max_size=22),  # sparse
    zero_led.filter(lambda t: len(t) >= 4),
    st.lists(fractions, min_size=4, max_size=22),
)


def _function_or_error(detect, seq, window):
    try:
        return detect(seq, window)
    except InternalInvariantError:
        return InternalInvariantError


@PROPERTY
@given(two_scan_prefixes, st.integers(1, 5))
@example([2**k for k in range(19)] + [2**19 + 1], 3)  # even: no minor reads it
@example([2**k for k in range(20)], 3)
@example([2**k for k in range(18)] + [2**18 + 1], 3)  # odd: the last minor reads it
@example([k**3 for k in range(15)] + [15**3 - 1], 2)
@example([0, 0, 0, 1], 1)
def test_detection_matches_two_scans(terms, window):
    # the re-expansion alone decides what the integer scan of the
    # recurrence over every term and the re-expansion decided together
    seq = ExactSequence.of(terms)
    window = min(window, (len(seq) - 2) // 2)
    expected = _function_or_error(detection_by_two_scans, seq, window)
    actual = _function_or_error(
        lambda s, w: detect_rationality(s, w).function, seq, window
    )
    assert actual == expected


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


@st.composite
def table_prefixes(draw):
    """(terms, congruent): a primary or Hall prefix, perhaps negated, or a
    polynomial prefix (higher rows 0), all congruent; or a primary or Hall
    prefix with one term moved, which is not."""
    kind = draw(st.sampled_from(["primary", "polynomial", "moved"]))
    if kind == "polynomial":
        return draw(polynomial_prefixes), True
    terms = draw(primary_or_hall())
    if draw(st.booleans()):
        terms = [-t for t in terms]
    if kind == "moved":
        terms[draw(st.integers(0, len(terms) - 1))] += draw(st.sampled_from([1, -1]))
    return terms, kind != "moved"


@PROPERTY
@given(table_prefixes(), st.integers(0, 3))
@example(([k**4 - 3 * k for k in range(16)], True), 0)
@example(([-t for t in generate_primary([1, -2, 0, 3] * 4, 15)], True), 0)
# a_1 moved: rows 4 to 8 do not divide, yet meet n - p at some primes
@example(([t + (k == 1) for k, t in enumerate(generate_primary([1, -2, 0, 3] * 4, 15))],
          False), 0)
# negative determinants and quotients
@example(([-t for t in generate_hall_like(15, [1, -1, 2, 0, -2] * 3)], True), 0)
def test_table_rows_match_eliminations_by_order(prefix, cut):
    # a nonzero int row's divisibility from its one division by the
    # required divisor, its valuations from the quotient or the
    # determinant, a zero row without a valuation
    terms, congruent = prefix
    seq = ExactSequence.of(terms)
    n_max = max(0, max_order(seq) - cut)
    records = hankel_table(seq, n_max)
    assert records == hankel_table_by_order(seq, n_max)
    if congruent:
        assert all(r.divisible for r in records)


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


@st.composite
def wide_prefixes(draw):
    """Random terms of absolute value at most 2^bits, bits drawn from 1 to 300
    once per prefix."""
    bits = draw(st.integers(1, 300))
    return draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=41))


@st.composite
def congruent_with_one_change(draw):
    """A primorial-scaled or Hall prefix of 21 to 41 terms, perhaps with
    one term zeroed or moved.  Its normal steps run on coefficients of up to
    about 600 bits; a primorial-scaled polynomial (finite support) ends
    them with a vanishing remainder, and a changed term where it is first
    read with a degree jump."""
    terms = draw(primary_or_hall(st.integers(21, 41)))
    change = draw(st.sampled_from([None, "zero", "move"]))
    if change is not None:
        i = draw(st.integers(0, len(terms) - 1))
        terms[i] = 0 if change == "zero" else terms[i] + draw(st.sampled_from([1, -1]))
    return terms


# the primorial-scaled polynomial of degree 15 on 41 terms: 16 normal steps
# on coefficients of up to 292 bits, then every kept coefficient vanishes
PRIMARY_DEGREE_15 = list(generate_primary(
    [5, -1, 1, 4, -5, 3, -2, -5, -3, -4, 1, 3, -2, 2, 4, -4] + [0] * 25, 41
))

# full-rank prefixes run only steps with delta = 1; sparse and zero-led ones
# and collapsing C-finite tails run degree jumps (delta >= 2) too
remainder_prefixes = st.one_of(
    wide_prefixes(),
    st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=1, max_size=41),
    zero_led,
    c_finite(st.integers(-3, 3)),
    c_finite(fractions),
    st.lists(fractions, min_size=1, max_size=25),
    congruent_with_one_change(),
)


@PROPERTY
@given(remainder_prefixes, st.integers(0, 13))
@example([-1, -1, 0, 0, 0, 0, -1, 0, 0], 0)  # a jump with e = 2 after order 2
@example([0, 1, 0, 0, 0, 0, 0, -1, 1], 0)  # a jump past the largest order
@example([0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 5], 0)  # a0 = a1 = a2 = 0
@example([0, 1, 1, 2, 3, 5, 8, 13, 21], 0)  # every kept coefficient vanishes
@example([2**300 + 1, -(2**299), 3, 2**300 - 1, 7], 0)
@example(PRIMARY_DEGREE_15, 0)  # 16 normal steps, then a vanishing remainder
# a_36 moved: 16 normal steps, then a jump over det H_17 .. det H_20 = 0
@example([t + (i == 36) for i, t in enumerate(PRIMARY_DEGREE_15)], 0)
def test_one_pass_steps_match_pseudo_division(terms, cut):
    values, _ = hankel._clear_denominators(ExactSequence.of(terms).terms)
    n = max(0, (len(values) + 1) // 2 - cut)
    assert hankel._leading_minors(values, n) == leading_minors_by_pseudo_division(values, n)


@PROPERTY
@given(
    st.sampled_from([2, 3, 5, 7, 97, 7919]),
    st.integers(0, 40),
    st.integers(-5, 60),
    st.integers(-10**30, 10**30),
    st.one_of(st.just(1), st.integers(2, 10**6)),
)
@example(2, 0, 0, 0, 1)  # zero, hint 0
@example(3, 7, 0, 0, 1)  # zero
@example(5, 0, 3, -7, 1)  # hint 0
@example(2, 10, 0, -3, 1)  # exactly the required exponent, negative
@example(2, 10, -1, 1, 1)  # one short of it
@example(3, 4, 2, 1, 3**5)  # a Fraction with p in its denominator
@example(3, 0, 0, 7, 1)  # v = 0, one division
@example(3, 0, 1, -7, 1)  # v = 1, two divisions
@example(3, 0, 2, 7, 1)  # v = 2, where the climb starts
@example(3, 0, 3, -7, 1)  # v = 3
@example(3, 5000, 0, 7, 1)  # 3^5000 * 7: v in the thousands
def test_valuation_from_the_required_exponent_matches_climbing(p, hint, k, m, den):
    # value = m p^(hint + k) / den: p^hint, the exponent a Hankel row
    # requires, may divide it or not, m and den may hold more factors of p,
    # and den = 1 gives an int
    value = m * p ** max(0, hint + k)
    if den != 1:
        value = Fraction(value, den)
    expected = valuation_by_climbing(value, p)
    assert hankel._exact_valuation(value, p) == expected
    if den == 1:
        assert expected == padic_valuation_by_division(value, p)


# the line breaks str.splitlines honours, with CRLF and a lone CR
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]
_LINES = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.integers(-10**20, 10**20).map(lambda v: f" \t{v}  "),
    st.sampled_from(["", "   ", "\t"]),
    st.sampled_from(["+3", "1_000", "\u0663", "\uff17", "1.5", "x", "- 3", "--1", "1 2"]),
    st.just("7" * 4301),  # one digit past the interpreter's default limit
)


def _parsed_or_error(parse, text):
    try:
        return list(parse(text))
    except InputError as exc:
        return str(exc)


@PROPERTY
@given(st.lists(_LINES, min_size=1, max_size=12),
       st.lists(st.sampled_from(_LINE_BREAKS), min_size=12, max_size=12))
@example(["7" * 4301, "+3"], ["\n"] * 12)  # the long line first: its error
@example(["+3", "7" * 4301], ["\n"] * 12)  # the malformed line first: its error
@example(["1", "", "  2  ", "3"], ["\r\n"] * 12)
@example(["1", "2"], ["\r"] * 12)
@example(["", "  "], ["\n"] * 12)  # nothing but blanks
@example(["", "", "1", "2", "+3"], ["\n"] * 12)  # leading blank lines count
@example(["  ", "\t", "x"], ["\r\n"] * 12)  # leading whitespace-only lines
@example(["", " ", "1", "1.5"], ["\x0b"] * 12)  # breaks that str.strip drops too
def test_joined_match_parses_as_line_by_line(lines, breaks):
    text = "".join(map(str.__add__, lines, breaks))
    expected = _parsed_or_error(parse_lines_one_at_a_time, text)
    assert _parsed_or_error(lambda t: parse_sequence(t).terms, text) == expected


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


# up to 64 terms of every size, so that the term sizes and the orders, up
# to 32, both vary
invariance_prefixes = st.one_of(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=64),
    st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=64),
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=1, max_size=64),
    st.lists(fractions, min_size=1, max_size=64),
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
@given(invariance_prefixes)
def test_transform_keeps_every_leading_minor(terms):
    # the invariance check computes no determinant, since det L_n = 1 makes
    # equal minors follow from the conjugation; the elimination keeps them
    a = hankel._clear_denominators(ExactSequence.of(terms).terms)[0]
    b = binomial_transform(ExactSequence(a)).integer_terms()
    n = max_order(ExactSequence(a))
    assert hankel._leading_minors(a, n)[0] == hankel._leading_minors(b, n)[0]


def width_from_a(seq, n_max):
    """2 n_max plus the largest bit length of the first 2 n_max - 1 cleared
    terms: 2 bits past any difference D^k a_0, k < 2 n_max - 1, that the
    check compares with b_k, since row k of L has absolute sum 2^k."""
    a = hankel._clear_denominators(seq.terms[:2 * n_max - 1])[0]
    return 2 * n_max + max(abs(t).bit_length() for t in a)


def transform_perturbed_by(deltas):
    """A replacement for the binomial transform that adds ``deltas`` (index
    -> amount) to the true one."""
    original = hankel.binomial_transform

    def perturbed(s):
        b = list(original(s))
        for index, delta in deltas.items():
            b[index] += delta
        return ExactSequence.of(b)

    return perturbed


@PROPERTY
@given(invariance_prefixes, st.data())
def test_perturbed_transform_fails_at_the_oracles_order(terms, data):
    seq = ExactSequence.of(terms)
    n_max = data.draw(st.integers(1, max_order(seq)))
    # the check transforms and reads only the first 2 n_max - 1 terms
    index = data.draw(st.integers(0, 2 * n_max - 2))
    # small amounts, and powers of two up to and around the size of the
    # differences
    width = width_from_a(seq, n_max)
    delta = data.draw(st.one_of(
        st.sampled_from([-1, 1, 7]),
        st.builds(lambda sign, j: sign << j, st.sampled_from([-1, 1]),
                  st.one_of(st.integers(0, width + 8), st.integers(width - 2, width + 2))),
    ))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "binomial_transform", transform_perturbed_by({index: delta}))
        report = verify_transform_invariance(seq, n_max)
        expected = invariance_by_order(seq, n_max)
    assert report == expected
    # term i + j of H(b) fails every order above max(i, j) >= ceil(index / 2)
    assert report.first_failure == ((index + 1) // 2 + 1, "entrywise")


@PROPERTY
@given(invariance_prefixes.filter(lambda terms: len(terms) >= 3), st.data())
def test_carry_between_adjacent_slots_is_not_missed(terms, data):
    # two adjacent terms moved at once, one by a power of two about the
    # size of the differences and the next by -1: they must not cancel
    seq = ExactSequence.of(terms)
    n_max = data.draw(st.integers(2, max_order(seq)))
    index = data.draw(st.integers(0, 2 * n_max - 3))
    shift = width_from_a(seq, n_max) + data.draw(st.integers(-1, 2))
    deltas = {index: 1 << shift, index + 1: -1}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "binomial_transform", transform_perturbed_by(deltas))
        report = verify_transform_invariance(seq, n_max)
        expected = invariance_by_order(seq, n_max)
    assert report == expected
    assert report.first_failure == ((index + 1) // 2 + 1, "entrywise")


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


@PROPERTY
@given(st.one_of(
    st.lists(st.integers(-9, 9), max_size=9),
    st.lists(fractions, max_size=5),
), st.integers(1, 40), st.integers(0, 5))
@example([], 12, 0)  # all zero
@example([7], 1, 0)  # a single term
@example([5], 1, 3)  # one nonzero term, the last one
def test_polynomial_and_zero_led_prefixes_match_binomial_sums(coeffs, length, leading):
    # polynomial values: the difference rows vanish after deg + 1 steps, or
    # never within a short prefix; ``leading`` zeros move the first nonzero term
    terms = [0] * leading + [
        sum(c * n**k for k, c in enumerate(coeffs)) for n in range(length)
    ]
    assert list(binomial_transform(ExactSequence.of(terms))) == signed_binomial_sums(terms)


@PROPERTY
@given(st.one_of(
    st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=300),
    st.builds(lambda coeffs, length: [sum(c * n**k for k, c in enumerate(coeffs))
                                      for n in range(length)],
              st.lists(st.integers(-9, 9), max_size=12), st.integers(1, 300)),
    st.lists(fractions, min_size=1, max_size=60),
    zero_led,
    st.builds(lambda zeros, tail: [0] * zeros + tail,
              st.integers(1, 40), st.lists(fractions, max_size=20)),
))
@example([0])  # a single term, zero
@example([0] * 300)  # all zero
@example([-5])  # a single nonzero term
@example([Fraction(1, 3)])
def test_transform_matches_top_down_differences(terms):
    b = binomial_transform(ExactSequence.of(terms))
    expected = ExactSequence.of(transform_by_differences(terms))
    assert b == expected
    assert [type(t) for t in b] == [type(t) for t in expected]


@st.composite
def nudged_polynomials(draw):
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
    nudged_polynomials(),
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
    st.integers(-10**6, 10**6),
    st.integers(0, 12),
    st.lists(st.integers(-5, 5), max_size=5),
    st.booleans(),
)
@example(0, 3, [1], False)  # the zero polynomial
@example(7, 0, [], False)  # a constant
@example(-2, 4, [1], True)  # q = 1 - x itself: one more power
@example(5, 1, [1, 1], True)  # q = (1 - x)(1 + 2x)
@example(3, 2, [2, 1], False)  # q(1) != 0 and not constant
def test_power_test_matches_binomials(c, d, q, vanish_at_one):
    # c (1 - x)^d q, with q(1) = 0 (a factor 1 - x hidden in q) or not
    if vanish_at_one and q:
        q = q + [-sum(q)]
    one_minus_x_power = [(-1) ** k * comb(d, k) for k in range(d + 1)]
    poly = IntPolynomial.of(mul([c], mul(one_minus_x_power, q or [1])))
    assert is_power_of_one_minus_x(poly) == power_of_one_minus_x_by_binomials(poly)


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
@example([1, 2, 3, 4, 5, 6, 7], 3, [0, 0, 1, 0, 0, 0], 4)  # deg den > count
@example([Fraction(1, 3)], Fraction(-2, 5), [Fraction(1, 7), 0, 0], 9)  # trailing zeros
def test_series_matches_fraction_expansion(num, d0, tail, count):
    den = [d0] + tail
    series = series_from_rational(num, den, count)
    expected = series_by_fractions(num, den, count)
    assert series == expected
    assert [type(c) for c in series] == [
        int if c.denominator == 1 else Fraction for c in expected
    ]


@st.composite
def factored_polys(draw, coefficients=st.one_of(st.integers(-9, 9),
                                                st.integers(-10**20, 10**20))):
    """A content (zero and negative included) times a product of repeated
    factors of degree 1 to 3, lowest degree first."""
    poly = [draw(st.integers(-50, 50))]
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.lists(coefficients, min_size=2, max_size=4)
                      .filter(lambda f: f[-1] != 0))
        for _ in range(draw(st.integers(1, 3))):
            poly = mul(poly, factor)
    return poly


@PROPERTY
@given(factored_polys(), factored_polys(), factored_polys())
@example([], [], [])
@example([1], [], [-4, 0, -2])  # gcd(0, q) is q up to a unit
@example([3], [7], [5])
@example([-1, 2], [-6, 0, -3], [2, -10**20])
def test_integer_gcd_matches_euclid_over_q(common, p, q):
    p, q = mul(common, p), mul(common, q)
    g = gcd_poly(p, q)
    assert monic(g) == gcd_over_q(p, q)
    assert all(type(c) is int for c in g)
    assert not g or (g[-1] > 0 and math.gcd(*g) == 1)


@PROPERTY
@given(factored_polys())
@example([])
@example([-6])
@example(mul([-2], mul([1, -1], [1, -1])))
@example(mul([3, -10**20], mul([3, -10**20], [7, 0, 5])))
@example(mul([1, -1], mul([1, -1], [-1, 1])))  # (x - 1)^3 alone
@example([1, 0, 0, -1])  # 1 - x^3: x - 1 joins the cubic factor
@example(mul(mul([1, -1], [1, -1]), mul([1, 1, 1], [1, 1, 1])))  # (1 - x)^2 (1 + x + x^2)^2
@example(mul(mul([1, -1], mul([1, -1], [1, -1])), [2, 1]))  # (1 - x)^3 (x + 2)
def test_integer_squarefree_matches_yun_over_q(p):
    factors = squarefree_factors(p)
    assert [(monic(f), m) for f, m in factors] == squarefree_over_q(p)
    for f, _ in factors:
        assert all(type(c) is int for c in f)
        assert f[-1] > 0 and math.gcd(*f) == 1


def _x_minus_one_power(m):
    return [(-1) ** (m - k) * comb(m, k) for k in range(m + 1)]


@PROPERTY
@given(
    st.integers(0, 8),
    st.one_of(
        st.lists(st.integers(-10**6, 10**6), max_size=8),
        factored_polys(),
    ),
)
@example(0, [])
@example(3, [0])
@example(2, [5])
@example(0, [1, -1])
def test_split_one_minus_x_leaves_a_cofactor_without_the_root(m, p):
    # p times (x - 1)^m, split: (x - 1)^m' q gives it back, q(1) != 0
    p = mul(_x_minus_one_power(m), p)
    split, q = split_one_minus_x(p)
    if not p:
        assert (split, q) == (0, [])
        return
    assert sum(q) != 0
    assert mul(_x_minus_one_power(split), q) == p
    assert split >= m


@PROPERTY
@given(factored_polys().filter(lambda p: len(p) > 1 and p[0] != 0))
@example(mul([1, -1, 0, -2], [1, -1, 0, -2]))  # (1 - x - 2x^3)^2
@example([1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 3])  # leading coefficient 3
@example([1, 2**60 + 32, 3])  # float(c) / float(3) is not c / 3 here
def test_singular_directions_see_the_oracles_doubles(den):
    den = [-c for c in den] if den[0] < 0 else den
    expected = []
    for factor, multiplicity in squarefree_over_q(den):
        roots = np.roots(np.array([float(c) for c in reversed(factor)]))
        expected.extend((complex(z), multiplicity) for z in roots)
    expected.sort(key=lambda pm: (pm[0].real, pm[0].imag))
    func = RationalFunction(IntPolynomial.of([1]), IntPolynomial.of(den), len(den) - 1)
    try:
        poles = singular_directions(func).poles
    except NumericError:
        reject()  # an ill-conditioned factor, about 1 draw in 1,000, or a pole read as 0

    def bits(poles):
        return [(z.real.hex(), z.imag.hex(), m) for z, m in poles]

    assert bits(poles) == bits(expected)


@PROPERTY
@given(st.integers(1, 80).flatmap(
    lambda n: st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)
))
@example([0] * 80)
@example([5])
# the running lcm grows at the prime powers 121 = 11^2, 125 = 5^3 and
# 128 = 2^7
@example([n % 11 - 5 for n in range(130)])
def test_hall_matches_pairwise_crt(perturbation):
    length = len(perturbation)
    expected = hall_by_pairwise_crt(length, perturbation)
    assert list(generate_hall_like(length, perturbation)) == expected


@st.composite
def shifted_prefixes(draw):
    """Random, primary and Hall prefixes, perhaps with the term at one index
    i moved by +-1 or +-i."""
    terms = draw(st.one_of(st.lists(small_ints, min_size=2, max_size=22), primary_or_hall()))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(terms) - 1))
        terms[i] += draw(st.sampled_from([1, -1, i, -i]))
    return terms


@PROPERTY
@given(shifted_prefixes())
@example([0, 0, 0, 0, 6])  # P_4 = 6 divides the difference, lcm(1..4) = 12 does not
def test_congruences_iff_forward_differences_divisible(terms):
    # the criterion generate_hall_like's output check rests on: a prefix
    # preserves congruences iff lcm(1..k) divides its forward difference
    # of order k at 0 for every k, and primary ones iff P_k does
    seq = ExactSequence.of(terms)
    differences = list(binomial_transform(seq))
    lcms = [math.lcm(*range(1, k + 1)) for k in range(len(terms))]
    full = all(d % m == 0 for d, m in zip(differences, lcms))
    primary = all(d % p == 0 for d, p in zip(differences, primorials(len(terms) - 1)))
    assert full == check_congruences(seq, "full").ok
    assert primary == check_congruences(seq, "primary").ok


congruence_prefixes = st.one_of(
    shifted_prefixes(),
    primary_or_hall().map(lambda terms: [-t for t in terms]),
    nudged_polynomials(),
    c_finite(st.integers(-3, 3)),
    st.lists(small_ints, min_size=2, max_size=3),
)


@PROPERTY
@given(congruence_prefixes, st.sampled_from(["primary", "full"]))
@example([0] * 11 + [210], "primary")  # only the largest prime, 11, fails
@example([0] * 11 + [2520], "full")  # only the largest modulus, 11, fails
@example([2**n for n in range(20)], "primary")  # (0, 2, 0, 1) before (0, 3, 2, 1)
@example([-7, 4], "full")
@example([3, -1, -6], "primary")
def test_congruences_match_pair_scan(terms, mode):
    # the periodicity of the residues mod each modulus against one
    # difference per (n, m) pair: same pair count, same violations in order
    seq = ExactSequence.of(terms)
    report = check_congruences(seq, mode)
    assert (report.mode, report.length, report.checked_pairs, report.violations) == (
        congruences_by_pairs(seq, mode)
    )
    assert type(report.violations) is tuple
    # tuple equality alone would accept plain tuples as records
    assert all(type(v) is Violation for v in report.violations)


@PROPERTY
@given(congruence_prefixes, st.sampled_from(["primary", "full"]))
@example([0] * 11 + [210], "primary")
@example([0] * 11 + [2520], "full")
@example([-7, 4], "full")
def test_failing_holds_each_violated_modulus_with_its_residues(terms, mode):
    # exactly the moduli of the pair scan's violations, ascending, each with
    # a_n mod m for every n of the prefix
    seq = ExactSequence.of(terms)
    report = check_congruences(seq, mode)
    violated = sorted({v.modulus for v in congruences_by_pairs(seq, mode)[3]})
    assert report.failing == tuple((m, tuple(a % m for a in terms)) for m in violated)
    assert report.ok == (not violated)


@st.composite
def near_directions(draw):
    """2-4 arguments near 0 or near -pi and pi, each offset from its base by
    0, +-1/2, +-1 or +-2 times DIRECTION_TOL and then perhaps moved one ulp,
    so that pairs fall on both sides of the tolerance, across the cut at
    -pi/pi too."""
    offsets = [k * DIRECTION_TOL for k in (0, 0.5, -0.5, 1, -1, 2, -2)]
    args = []
    for _ in range(draw(st.integers(2, 4))):
        base = draw(st.sampled_from([0.0, math.pi, -math.pi]))
        arg = base + draw(st.sampled_from(offsets))
        arg = draw(st.sampled_from([arg, math.nextafter(arg, 4), math.nextafter(arg, -4)]))
        args.append(min(max(arg, -math.pi), math.pi))
    return args


@PROPERTY
@given(near_directions(), st.sampled_from([1.0, 2.5, 1e-3]))
@example([0.0, DIRECTION_TOL], 1.0)
@example([0.0, math.nextafter(DIRECTION_TOL, 1)], 1.0)
@example([math.pi - DIRECTION_TOL / 2, -math.pi + DIRECTION_TOL / 2], 1.0)
@example([0.0, DIRECTION_TOL, 2 * DIRECTION_TOL], 1.0)
def test_hedgehog_direction_rule_matches_pairwise(args, modulus):
    assert (
        len(_cluster_directions(args, DIRECTION_TOL)) < len(args)
    ) == shares_direction_pairwise(args, DIRECTION_TOL)
    endpoints = [cmath.rect(modulus, a) for a in args]
    phases = [cmath.phase(z) for z in endpoints]
    if shares_direction_pairwise(phases, DIRECTION_TOL):
        with pytest.raises(InputError, match="share a direction"):
            Hedgehog(endpoints)
    else:
        assert Hedgehog(endpoints).spike_count == len(args)


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


def json_containers(children):
    """Lists, tuples and str-keyed dicts of ``children``.  A def, not a
    lambda: Hypothesis reads extend's source to see that it uses its
    argument, and warns that it cannot recurse when it does not see it;
    a def's source is read whole."""
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(json_text, children, max_size=5),
    )


json_values = st.recursive(
    st.one_of(
        *json_scalar_kinds,
        *(st.lists(kind, max_size=6) for kind in json_scalar_kinds),
        st.lists(st.one_of(st.booleans(), st.integers()), max_size=6),
    ),
    json_containers,
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


float_lists = st.lists(
    st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-310])),
    min_size=1, max_size=12,
)


@PROPERTY
@given(float_lists)
@example([0.5, 1e-300, -0.0, 5e-324])  # no nan or inf: one join
@example([0.5, math.nan])
@example([-math.inf, 2.5e-310, math.inf])
def test_float_lists_match_json_encoder(values):
    # an all-float list such as growth.per_n is one join of float.__repr__,
    # written again with json's spellings when it holds nan or inf
    assert dumps(values) == json_dumps(values)
    assert dumps({"per_n": values}) == json_dumps({"per_n": values})


# Report rows: determinants past the 4,300-digit str limit and as
# Fractions, primes 2..29 (so "11" sorts before "2"), empty and infinite
# valuations, and growth values at both ends of the float range.
PAST_STR_LIMIT = 10**4400 + 7
row_dets = st.one_of(
    st.integers(),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(2, 10**9)),
    st.sampled_from([PAST_STR_LIMIT, -PAST_STR_LIMIT, Fraction(PAST_STR_LIMIT, 3)]),
)
row_valuations = st.integers(0, 10).flatmap(lambda k: st.tuples(*(
    st.tuples(st.just(p), st.integers(0, 200), st.one_of(st.integers(0, 10**6), st.just(math.inf)))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)[:k]
)))
hankel_records = st.builds(
    HankelRecord,
    st.integers(1, 10**6),
    row_dets,
    st.one_of(st.integers(1, 10**60), st.just(PAST_STR_LIMIT)),
    row_valuations,
    st.booleans(),
    st.one_of(st.floats(), st.sampled_from([None, -0.0, 1e-300, 5e-324])),
)
# -1 at both ends of 515 terms: for every m from 2 to 513, the pairs (0, m)
# and (514 - m, m) fail, one residue m - 1 and the other 0.  So n, the
# modulus and both residues reach 511 and 512, the ends of the writers'
# table of str(k) for k < 512, and the 515 terms take a per-call table.
EDGE_REPORT = check_congruences(ExactSequence([-1] + [0] * 513 + [-1]), "full")
# reports of random, C-finite and congruent prefixes with one term changed,
# as check_congruences makes them
congruence_reports = st.builds(
    check_congruences,
    st.one_of(
        st.lists(small_ints, min_size=2, max_size=40),
        c_finite(st.integers(-3, 3)),
        congruent_with_one_change(),
    ).map(ExactSequence),
    st.sampled_from(["primary", "full"]),
)
BASE_AUDIT = ruzsa_audit(ExactSequence.of([2**n for n in range(12)]))


@PROPERTY
@given(st.lists(hankel_records, max_size=5), congruence_reports)
@example([], CongruenceReport("full", 0, 0, ()))
@example([HankelRecord(1, 3, 1, (), True, None)], CongruenceReport("primary", 3, 1, ()))
@example(
    [
        HankelRecord(2, 6, 1, ((3, 0, 1), (7, 2, math.inf)), True, 1.5),  # primes not below n
        HankelRecord(12, -4, 2, ((2, 10, math.inf), (11, 1, 0)), False, 0.5),  # 3..7 skipped
    ],
    CongruenceReport("primary", 3, 1, ()),
)
@example(
    [HankelRecord(5, 0, 12, ((2, 3, 4), (3, 2, 0)), False, None)],  # det 0, finite actuals
    CongruenceReport("primary", 3, 1, ()),
)
@example(
    [  # rows that share primes with other exponents
        HankelRecord(4, 12, 12, ((2, 2, 2), (3, 1, 1)), True, 1.25),
        HankelRecord(5, 0, 288, ((2, 3, math.inf), (3, 2, math.inf)), True, None),
        HankelRecord(6, 2**9 * 3**5, 8640, ((2, 4, 9), (3, 3, 5), (5, 1, 0)), False, 2.0),
    ],
    check_congruences(ExactSequence([0, 0, 1]), "full"),  # (0, 2, 1, 0) only
)
@example([], EDGE_REPORT)
def test_row_writers_match_dict_rows(records, congruence):
    assert dumps(hankel_json_obj(records)) == json_dumps(hankel_rows_as_dicts(records))
    assert dumps(congruence_json_obj(congruence)) == json_dumps(congruence_as_dict(congruence))
    report = BASE_AUDIT._replace(hankel=tuple(records), congruence=congruence)
    assert dumps(audit_json_obj(report)) == json_dumps(audit_as_dict(report))


@PROPERTY
@given(congruence_reports)
@example(CongruenceReport("full", 0, 0, ()))
@example(EDGE_REPORT)
def test_congruence_csv_matches_str_of_each_field(report):
    assert congruence_csv(report) == congruence_csv_by_str(report)


@PROPERTY
@given(st.one_of(
    c_finite(st.integers(-3, 3)).filter(lambda terms: len(terms) >= 10),
    primary_or_hall(),
    st.lists(small_ints, min_size=10, max_size=22),
))
def test_audit_report_matches_dict_rows(terms):
    report = ruzsa_audit(ExactSequence.of(terms))
    assert dumps(audit_json_obj(report)) == json_dumps(audit_as_dict(report))


@st.composite
def integer_valued_polynomials(draw):
    """sum_k c_k C(n, k) for n < N, which breaks the congruences unless every
    c_k is a multiple of the primorial P_k; a_0 may then be moved by a
    multiple of P_(N-1), which keeps them and removes the certificate."""
    length = draw(st.integers(10, 24))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    if draw(st.booleans()):
        coeffs = [c * p for c, p in zip(coeffs, primorials(len(coeffs)))]
    terms = [sum(c * comb(n, k) for k, c in enumerate(coeffs)) for n in range(length)]
    terms[0] += draw(st.sampled_from([0, 0, 1, -2])) * primorials(length - 1)[-1]
    return terms


@PROPERTY
@given(st.one_of(
    integer_valued_polynomials(),
    c_finite(st.integers(-3, 3)).filter(lambda terms: len(terms) >= 10),
    primary_or_hall(),
    st.lists(small_ints, min_size=10, max_size=22),
))
@example([2310] + list(range(1, 12)))  # (1 - x)^2 and no certificate
@example([comb(n, 2) for n in range(20)])  # (1 - x)^3, not congruent
@example([comb(n, 3) * 30 for n in range(12)])  # congruent cubic, N = 2 * 4 + 4
def test_audit_verdict_matches_earlier_stage_order(terms):
    report = ruzsa_audit(ExactSequence.of(terms))
    assert (report.verdict, report.degree) == audit_verdict_by_stages(ExactSequence.of(terms))
